#include "mpp/mpp.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/sort_key.h"
#include "common/stopwatch.h"
#include "exec/sort.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dashdb {

using ast::ExprKind;

namespace {
/// Fault points exercised by the resilience tests (tests/mpp_fault_test.cc)
/// and the failover drill. Evaluated on every shard attempt; free when
/// nothing is armed.
constexpr const char* kFaultShardExec = "mpp.shard_exec";
constexpr const char* kFaultShardStall = "mpp.shard_stall";

/// Registry mirrors of MppExecStats, resolved once per process.
struct MppInstruments {
  Counter* shard_attempts;
  Counter* shard_retries;
  Counter* failovers;
  Counter* timeouts;
  Counter* speculative_launches;
  Counter* speculative_wins;
  Counter* exchange_chunks;            ///< shard->coordinator chunks shipped
  Counter* exchange_bytes;             ///< in-memory bytes those chunks decode to
  Counter* exchange_compressed_bytes;  ///< wire bytes actually shipped
  Counter* exchange_stalls;            ///< producer waits on a full window
  Counter* merge_streams;  ///< pre-sorted shard streams k-way merged
};

MppInstruments& GlobalMppInstruments() {
  auto& reg = MetricRegistry::Global();
  static MppInstruments in{
      reg.GetCounter("mpp.shard_attempts"),
      reg.GetCounter("mpp.shard_retries"),
      reg.GetCounter("mpp.failovers"),
      reg.GetCounter("mpp.timeouts"),
      reg.GetCounter("mpp.speculative_launches"),
      reg.GetCounter("mpp.speculative_wins"),
      reg.GetCounter("mpp.exchange_chunks"),
      reg.GetCounter("mpp.exchange_bytes"),
      reg.GetCounter("mpp.exchange_compressed_bytes"),
      reg.GetCounter("mpp.exchange_stalls"),
      reg.GetCounter("mpp.merge_streams"),
  };
  return in;
}

/// Resolves one ORDER BY key to a select-list index: ordinals, output
/// names/aliases, bare column refs, and — the pushdown enabler — any
/// expression textually identical to a select item (e.g. ORDER BY V + C
/// when V + C is selected). Returns -1 when the key is none of these.
int ResolveOrderKeyIdx(const ast::OrderItem& oi, const ast::SelectStmt& sel) {
  const size_t n = sel.items.size();
  if (oi.ordinal > 0) {
    return oi.ordinal <= static_cast<int>(n) ? oi.ordinal - 1 : -1;
  }
  for (size_t c = 0; c < n; ++c) {
    const ast::SelectItem& item = sel.items[c];
    std::string name;
    if (!item.alias.empty()) {
      name = NormalizeIdent(item.alias);
    } else if (item.expr && (item.expr->kind == ExprKind::kColumnRef ||
                             item.expr->kind == ExprKind::kFuncCall)) {
      name = item.expr->name;
    } else {
      name = "EXPR_" + std::to_string(c + 1);
    }
    if (!oi.output_name.empty() && NormalizeIdent(oi.output_name) == name) {
      return static_cast<int>(c);
    }
    if (oi.expr && oi.expr->kind == ExprKind::kColumnRef &&
        oi.expr->name == name) {
      return static_cast<int>(c);
    }
  }
  if (oi.expr) {
    const std::string want = AstToString(oi.expr);
    for (size_t c = 0; c < n; ++c) {
      if (sel.items[c].expr && AstToString(sel.items[c].expr) == want) {
        return static_cast<int>(c);
      }
    }
  }
  return -1;
}

/// Resolves a star query's ORDER BY key against the shard output columns
/// (the star expansion) the way the binder does: ordinal, output name, or a
/// qualified column's bare name, first match. Returns -1 when none match.
int ResolveExpandedOrderKey(const ast::OrderItem& oi,
                            const std::vector<OutputCol>& cols) {
  if (oi.ordinal > 0) {
    return oi.ordinal <= static_cast<int>(cols.size()) ? oi.ordinal - 1 : -1;
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    const bool match = oi.output_name.empty()
                           ? NormalizeIdent(cols[c].name) == oi.expr->name
                           : cols[c].name == oi.output_name;
    if (match) return static_cast<int>(c);
  }
  return -1;
}

Status OrderKeyUnimplemented() {
  return Status::Unimplemented(
      "MPP ORDER BY supports output columns, ordinals, and select-list "
      "expressions");
}

void FoldExecStats(const MppExecStats& s, MppExecStats* into) {
  into->shard_retries += s.shard_retries;
  into->failovers += s.failovers;
  into->timeouts += s.timeouts;
  into->speculative_launches += s.speculative_launches;
  into->speculative_wins += s.speculative_wins;
}

/// The message verb of a DML statement, whose shard row counts add up on a
/// distributed table; null for every other statement.
const char* DmlVerb(ast::StmtKind kind) {
  switch (kind) {
    case ast::StmtKind::kInsert:
      return "INSERTED ";
    case ast::StmtKind::kUpdate:
      return "UPDATED ";
    case ast::StmtKind::kDelete:
      return "DELETED ";
    default:
      return nullptr;
  }
}

/// Indents a multi-line block (shard plans inside the combined report).
std::string Indent(const std::string& text, int spaces) {
  std::string pad(spaces, ' ');
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (nl > pos) out += pad + text.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
  return out;
}
}  // namespace

// --- flow-controlled exchange ----------------------------------------------

void ExchangeChannel::Push(ExchangeChunk chunk) {
  std::unique_lock<std::mutex> lk(mu_);
  if (queue_.size() >= window_ && !cancelled_) {
    ++stalls_;
    can_push_.wait(lk, [&] { return queue_.size() < window_ || cancelled_; });
  }
  if (cancelled_) return;  // consumer aborted: drop
  queue_.push_back(std::move(chunk));
  high_water_ = std::max(high_water_, queue_.size());
  can_pop_.notify_one();
}

void ExchangeChannel::Close(Status status) {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  status_ = std::move(status);
  can_pop_.notify_all();
}

void ExchangeChannel::CancelConsumer() {
  std::lock_guard<std::mutex> lk(mu_);
  cancelled_ = true;
  queue_.clear();
  can_push_.notify_all();
}

bool ExchangeChannel::Pop(ExchangeChunk* chunk, Status* status) {
  std::unique_lock<std::mutex> lk(mu_);
  can_pop_.wait(lk, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) {
    *status = status_;
    return false;
  }
  *chunk = std::move(queue_.front());
  queue_.pop_front();
  can_push_.notify_one();
  return true;
}

uint64_t ExchangeChannel::stalls() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stalls_;
}

size_t ExchangeChannel::high_water() const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_water_;
}

namespace {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

bool GetU8(const std::string& in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

size_t DictCodeWidth(size_t dict_size) {
  if (dict_size <= 0xFF) return 1;
  if (dict_size <= 0xFFFF) return 2;
  return 4;
}

}  // namespace

std::string EncodeExchangeBatch(const RowBatch& rows, size_t begin,
                                size_t end) {
  std::string out;
  const uint32_t ncols = static_cast<uint32_t>(rows.columns.size());
  const uint32_t nrows = static_cast<uint32_t>(end - begin);
  PutU32(&out, ncols);
  PutU32(&out, nrows);
  for (const ColumnVector& col : rows.columns) {
    PutU8(&out, static_cast<uint8_t>(col.type()));
    bool any_null = false;
    for (size_t i = begin; i < end && !any_null; ++i) any_null = col.IsNull(i);
    PutU8(&out, any_null ? 1 : 0);
    if (any_null) {
      for (size_t i = begin; i < end; ++i) PutU8(&out, col.IsNull(i) ? 1 : 0);
    }
    if (col.type() == TypeId::kDouble) {
      for (size_t i = begin; i < end; ++i) {
        const double d = col.IsNull(i) ? 0.0 : col.GetDouble(i);
        char b[8];
        std::memcpy(b, &d, 8);
        out.append(b, 8);
      }
    } else if (col.type() == TypeId::kVarchar) {
      // Dictionary coding: each distinct string ships once, rows ship as
      // minimal-width codes. Repetitive columns (dimension attributes,
      // status fields) collapse to near-nothing on the wire.
      std::unordered_map<std::string, uint32_t> dict;
      std::vector<const std::string*> entries;
      std::vector<uint32_t> codes;
      codes.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        if (col.IsNull(i)) {
          codes.push_back(0);  // masked by the null byte on decode
          continue;
        }
        const std::string& s = col.GetString(i);
        auto [it, inserted] =
            dict.emplace(s, static_cast<uint32_t>(entries.size()));
        if (inserted) entries.push_back(&it->first);
        codes.push_back(it->second);
      }
      PutU32(&out, static_cast<uint32_t>(entries.size()));
      for (const std::string* s : entries) {
        PutU32(&out, static_cast<uint32_t>(s->size()));
        out.append(*s);
      }
      const size_t width = DictCodeWidth(entries.size());
      PutU8(&out, static_cast<uint8_t>(width));
      for (uint32_t c : codes) {
        char b[4];
        std::memcpy(b, &c, 4);
        out.append(b, width);
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        const int64_t v = col.IsNull(i) ? 0 : col.GetInt(i);
        PutU64(&out, static_cast<uint64_t>(v));
      }
    }
  }
  return out;
}

Status DecodeExchangeBatch(const std::string& payload, RowBatch* into) {
  size_t pos = 0;
  uint32_t ncols = 0, nrows = 0;
  if (!GetU32(payload, &pos, &ncols) || !GetU32(payload, &pos, &nrows)) {
    return Status::Internal("exchange chunk: truncated header");
  }
  if (ncols != into->columns.size()) {
    return Status::Internal("exchange chunk: column count mismatch");
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnVector& col = into->columns[c];
    uint8_t type_byte = 0, any_null = 0;
    if (!GetU8(payload, &pos, &type_byte) ||
        !GetU8(payload, &pos, &any_null)) {
      return Status::Internal("exchange chunk: truncated column header");
    }
    if (static_cast<TypeId>(type_byte) != col.type()) {
      return Status::Internal("exchange chunk: column type mismatch");
    }
    std::vector<uint8_t> nulls;
    if (any_null) {
      nulls.resize(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        if (!GetU8(payload, &pos, &nulls[i])) {
          return Status::Internal("exchange chunk: truncated null bytes");
        }
      }
    }
    if (col.type() == TypeId::kDouble) {
      for (uint32_t i = 0; i < nrows; ++i) {
        if (pos + 8 > payload.size()) {
          return Status::Internal("exchange chunk: truncated doubles");
        }
        double d;
        std::memcpy(&d, payload.data() + pos, 8);
        pos += 8;
        if (any_null && nulls[i]) {
          col.AppendNull();
        } else {
          col.AppendDouble(d);
        }
      }
    } else if (col.type() == TypeId::kVarchar) {
      uint32_t ndict = 0;
      if (!GetU32(payload, &pos, &ndict)) {
        return Status::Internal("exchange chunk: truncated dictionary");
      }
      std::vector<std::string> dict(ndict);
      for (uint32_t d = 0; d < ndict; ++d) {
        uint32_t len = 0;
        if (!GetU32(payload, &pos, &len) || pos + len > payload.size()) {
          return Status::Internal("exchange chunk: truncated dict entry");
        }
        dict[d].assign(payload, pos, len);
        pos += len;
      }
      uint8_t width = 0;
      if (!GetU8(payload, &pos, &width) ||
          (width != 1 && width != 2 && width != 4)) {
        return Status::Internal("exchange chunk: bad code width");
      }
      for (uint32_t i = 0; i < nrows; ++i) {
        if (pos + width > payload.size()) {
          return Status::Internal("exchange chunk: truncated codes");
        }
        uint32_t code = 0;
        std::memcpy(&code, payload.data() + pos, width);
        pos += width;
        if (any_null && nulls[i]) {
          col.AppendNull();
          continue;
        }
        if (code >= ndict) {
          return Status::Internal("exchange chunk: code out of range");
        }
        col.AppendString(dict[code]);
      }
    } else {
      for (uint32_t i = 0; i < nrows; ++i) {
        uint64_t v = 0;
        if (!GetU64(payload, &pos, &v)) {
          return Status::Internal("exchange chunk: truncated ints");
        }
        if (any_null && nulls[i]) {
          col.AppendNull();
        } else {
          col.AppendInt(static_cast<int64_t>(v));
        }
      }
    }
  }
  if (pos != payload.size()) {
    return Status::Internal("exchange chunk: trailing bytes");
  }
  return Status::OK();
}

MppDatabase::MppDatabase(int nodes, int shards_per_node, int cores_per_node,
                         size_t ram_per_node, EngineConfig shard_config)
    : topo_(nodes, shards_per_node, cores_per_node, ram_per_node) {
  for (int s = 0; s < topo_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<Engine>(shard_config));
    sessions_.push_back(shards_.back()->CreateSession());
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  shard_parallelism_ = std::max(1, std::min(hw, num_shards()));
  // The calling thread runs shards too (the pool keeps at least one worker).
  pool_ = std::make_unique<ThreadPool>(shard_parallelism_ - 1);
}

Status MppDatabase::CreateTable(const TableSchema& schema, bool replicated) {
  std::lock_guard<std::mutex> turn(turnstile_);
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  for (auto& shard : shards_) {
    if (schema.organization() == TableOrganization::kRow) {
      DASHDB_ASSIGN_OR_RETURN(auto t, shard->CreateRowTable(schema));
      (void)t;
    } else {
      DASHDB_ASSIGN_OR_RETURN(auto t, shard->CreateColumnTable(schema));
      (void)t;
    }
  }
  replicated_[NormalizeIdent(schema.schema_name()) + "." +
              NormalizeIdent(schema.table_name())] = replicated;
  data_version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

int MppDatabase::RouteRow(const TableSchema& schema,
                          const std::vector<Value>& row) {
  int key = schema.distribution_key();
  if (key < 0) {
    return static_cast<int>(round_robin_++ % shards_.size());
  }
  const Value& v = row[key];
  uint64_t h = v.is_null() ? 0
               : v.type() == TypeId::kVarchar
                   ? HashString(v.AsString())
                   : HashInt64(static_cast<uint64_t>(v.AsInt()));
  return static_cast<int>(h % shards_.size());
}

Status MppDatabase::Load(const std::string& schema, const std::string& table,
                         const RowBatch& rows) {
  std::lock_guard<std::mutex> turn(turnstile_);
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  data_version_.fetch_add(1, std::memory_order_release);
  const bool replicate = IsReplicated(schema, table);
  DASHDB_ASSIGN_OR_RETURN(auto entry, shards_[0]->GetTable(schema, table));
  const TableSchema& ts = entry->schema;

  auto append_to = [&](int shard, const RowBatch& batch) -> Status {
    DASHDB_ASSIGN_OR_RETURN(auto e, shards_[shard]->GetTable(schema, table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(e->storage);
    auto row = std::dynamic_pointer_cast<RowTable>(e->storage);
    if (col) return col->Append(batch);
    if (row) return row->Append(batch);
    return Status::InvalidArgument("table has no local shard storage "
                                   "(nickname or view?)");
  };

  if (replicate) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      DASHDB_RETURN_IF_ERROR(append_to(static_cast<int>(s), rows));
    }
    return Status::OK();
  }
  // Partition rows per shard, then bulk-append.
  std::vector<RowBatch> parts(shards_.size());
  for (auto& p : parts) {
    for (int c = 0; c < ts.num_columns(); ++c) {
      p.columns.emplace_back(ts.column(c).type);
    }
  }
  // Route straight off the key column — no per-row Value boxing.
  const size_t n = rows.num_rows();
  const int key_col = ts.distribution_key();
  const ColumnVector* kc = key_col >= 0 ? &rows.columns[key_col] : nullptr;
  for (size_t i = 0; i < n; ++i) {
    int shard;
    if (!kc) {
      shard = static_cast<int>(round_robin_++ % shards_.size());
    } else if (kc->IsNull(i)) {
      shard = 0;
    } else if (kc->type() == TypeId::kVarchar) {
      shard = static_cast<int>(HashString(kc->GetString(i)) % shards_.size());
    } else {
      const uint64_t h = kc->type() == TypeId::kDouble
                             ? HashInt64(static_cast<uint64_t>(
                                   kc->GetValue(i).AsInt()))
                             : HashInt64(static_cast<uint64_t>(kc->GetInt(i)));
      shard = static_cast<int>(h % shards_.size());
    }
    for (int c = 0; c < ts.num_columns(); ++c) {
      parts[shard].columns[c].AppendFrom(rows.columns[c], i);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (parts[s].num_rows() > 0) {
      DASHDB_RETURN_IF_ERROR(append_to(static_cast<int>(s), parts[s]));
    }
  }
  return Status::OK();
}

Status MppDatabase::AttemptWithSpeculation(int shard, const ShardFn& fn,
                                           QueryContext* qctx,
                                           MppExecStats* stats,
                                           ShardAttemptOut* out) {
  // The primary runs under its own child of the query root: a winning
  // speculative attempt cancels the loser through this context and it
  // stops at its next morsel boundary, so every attempt is joined before
  // this call returns (no abandoned futures).
  QueryContext primary_ctx(qctx);
  auto primary = std::async(std::launch::async, [&fn, &primary_ctx, shard] {
    AttemptResult r;
    r.status = fn(shard, &primary_ctx, &r.out);
    return r;
  });
  auto window =
      std::chrono::duration<double>(fail_policy_.straggler_after_seconds);
  if (primary.wait_for(window) == std::future_status::ready) {
    AttemptResult r = primary.get();
    *out = std::move(r.out);
    return r.status;
  }
  // Straggler: re-execute on the calling thread.
  ++stats->speculative_launches;
  GlobalMppInstruments().speculative_launches->Add(1);
  ShardAttemptOut spec;
  QueryContext spec_ctx(qctx);
  Status spec_st = fn(shard, &spec_ctx, &spec);
  if (spec_st.ok()) {
    // First result wins; actively cancel the straggling primary and join
    // it (its result — typically kCancelled — is discarded).
    if (primary.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++stats->speculative_wins;
      GlobalMppInstruments().speculative_wins->Add(1);
      primary_ctx.Cancel();
    }
    primary.wait();
    *out = std::move(spec);
    return Status::OK();
  }
  // Speculation failed; fall back to whatever the primary produces.
  AttemptResult r = primary.get();
  *out = std::move(r.out);
  return r.status;
}

Result<std::vector<MppDatabase::ShardRun>> MppDatabase::RunShards(
    bool idempotent, const ShardFn& fn, QueryContext* qctx) {
  FaultInjector& fault = FaultInjector::Global();
  MppInstruments& ins = GlobalMppInstruments();
  const FailoverPolicy& pol = fail_policy_;
  const int n = num_shards();
  std::vector<ShardRun> runs(n);
  std::vector<Status> status(n);
  std::vector<int> owner(n);  // node serving each shard's current attempt
  std::vector<uint8_t> gated(n), ran(n);
  std::vector<int> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 1;; ++attempt) {
    // Gate, in shard order on this thread: "the node just died under you".
    // Fault hits map to shards identically on every run, and a gate
    // failure precedes the attempt, so it is retryable even for DML.
    {
      std::lock_guard<std::mutex> topo_lock(topo_mu_);
      for (int s : pending) owner[s] = topo_.OwnerOf(s);
    }
    // Whether a failed attempt ends the statement instead of retrying. A
    // governed abort (CANCEL or statement timeout on the query root) must
    // surface, never be retried — even though kTimeout is transient for
    // shard-budget timeouts. Sticky once true, so a body and the retry
    // decisions below agree.
    auto gives_up = [&](const Status& st, bool at_gate) {
      const bool governed = qctx != nullptr && qctx->cancelled();
      const bool retryable =
          st.IsTransient() && (at_gate || idempotent) && !governed;
      return !retryable || attempt >= pol.max_attempts_per_shard;
    };
    // Set once the statement is bound to fail this round: no further
    // shard body is dispatched.
    std::atomic<bool> failed{false};
    std::vector<int> dispatch;
    for (int s : pending) {
      ins.shard_attempts->Add(1);
      status[s] = fault.Evaluate(kFaultShardExec);
      gated[s] = !status[s].ok();
      ran[s] = 0;
      if (!gated[s]) dispatch.push_back(s);
      if (gated[s] && gives_up(status[s], true)) failed = true;
    }
    // Bodies, concurrently. ParallelFor probes the governor before every
    // claim, so a cancelled statement dispatches no further shards.
    pool_->ParallelFor(
        dispatch.size(),
        [&](size_t i) {
          if (failed.load(std::memory_order_acquire)) return;
          const int s = dispatch[i];
          ShardRun& run = runs[s];
          run.out = ShardAttemptOut{};
          Stopwatch sw;
          Status st =
              idempotent && pol.straggler_after_seconds >= 0
                  ? AttemptWithSpeculation(s, fn, qctx, &run.stats, &run.out)
                  : fn(s, qctx, &run.out);
          run.seconds = sw.ElapsedSeconds();
          if (st.ok() && idempotent &&
              run.seconds > pol.shard_timeout_seconds) {
            // Post-hoc budget check: the deterministic plan makes discarding
            // a late result and re-executing safe (and byte-identical).
            ++run.stats.timeouts;
            ins.timeouts->Add(1);
            st = Status::Timeout("shard attempt took " +
                                 std::to_string(run.seconds) + "s (budget " +
                                 std::to_string(pol.shard_timeout_seconds) +
                                 "s)");
          }
          if (!st.ok()) {
            run.out = ShardAttemptOut{};  // frees the partial result now
            if (gives_up(st, false)) {
              failed.store(true, std::memory_order_release);
            }
          }
          status[s] = std::move(st);
          ran[s] = 1;
        },
        shard_parallelism_, qctx);
    // Retry decisions, in shard order on this thread.
    std::vector<int> retry;
    double backoff = 0;
    for (int s : pending) {
      if (!gated[s] && !ran[s]) {
        // A shard that gives up below ends the statement; an unclaimed one
        // is just not run.
        if (failed.load(std::memory_order_acquire)) continue;
        // The governor stopped the loop before this shard was claimed.
        Status alive = qctx->CheckAlive();
        status[s] = alive.ok() ? Status::Cancelled("shard not dispatched")
                               : alive;
      }
      const Status& st = status[s];
      if (st.ok()) continue;
      if (gives_up(st, gated[s])) {
        return st.WithContext("shard " + std::to_string(s) + " (node " +
                              std::to_string(owner[s]) + ")");
      }
      ++runs[s].stats.shard_retries;
      ins.shard_retries->Add(1);
      if (st.IsUnavailable() && pol.failover_on_unavailable) {
        // The paper's II.E response: mark the attempt's node dead and
        // reassociate its shards across survivors. The shard's file set
        // lives on the clustered FS, so the retry IS the survivor running
        // the reassociated shard. Another shard of that node finds it
        // already failed.
        std::lock_guard<std::mutex> topo_lock(topo_mu_);
        if (topo_.IsAlive(owner[s]) && topo_.num_alive_nodes() > 1 &&
            topo_.FailNode(owner[s]).ok()) {
          ++runs[s].stats.failovers;
          ins.failovers->Add(1);
        }
      }
      // Bounded exponential backoff; jitter is a pure function of
      // (injector seed, shard, attempt) so schedules replay exactly.
      double delay = pol.backoff_base_seconds *
                     static_cast<double>(uint64_t{1} << (attempt - 1));
      delay = std::min(delay, pol.backoff_max_seconds);
      Rng jitter(fault.seed() ^ (static_cast<uint64_t>(s) << 32) ^
                 static_cast<uint64_t>(attempt));
      backoff = std::max(backoff, delay * (0.5 + 0.5 * jitter.NextDouble()));
      retry.push_back(s);
    }
    if (retry.empty()) return runs;
    // One sleep per round: the retried shards back off together.
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    pending = std::move(retry);
  }
}

std::shared_ptr<Session> MppDatabase::NewShardSession(int shard) {
  std::shared_ptr<Session> session = shards_[shard]->CreateSession();
  session->CopySettingsFrom(*sessions_[shard]);
  return session;
}

bool MppDatabase::IsReplicated(const std::string& schema,
                               const std::string& table) const {
  auto it = replicated_.find(NormalizeIdent(schema) + "." +
                             NormalizeIdent(table));
  return it != replicated_.end() && it->second;
}

std::string MppDatabase::TargetSchema(const ast::Statement& st) const {
  return st.target_schema.empty() ? sessions_[0]->default_schema()
                                  : st.target_schema;
}

Result<MppQueryResult> MppDatabase::Broadcast(const ast::Statement& st,
                                              const std::string& sql,
                                              QueryContext* qctx) {
  // SET must land on the shard sessions, where settings live; plain
  // EXPLAIN runs beside other queries under the shared lock, so it reads
  // copies of them.
  const bool on_copy = st.kind == ast::StmtKind::kExplain;
  ShardFn fn = [this, &sql, on_copy](int shard, QueryContext*,
                                     ShardAttemptOut* o) -> Status {
    DASHDB_RETURN_IF_ERROR(FaultInjector::Global().Evaluate(kFaultShardStall));
    std::shared_ptr<Session> session =
        on_copy ? NewShardSession(shard) : sessions_[shard];
    DASHDB_ASSIGN_OR_RETURN(o->qr,
                            shards_[shard]->Execute(session.get(), sql));
    return Status::OK();
  };
  DASHDB_ASSIGN_OR_RETURN(std::vector<ShardRun> runs,
                          RunShards(/*idempotent=*/false, fn, qctx));
  MppQueryResult out;
  int64_t rows = 0;
  for (const ShardRun& r : runs) {
    out.shard_seconds.push_back(r.seconds);
    FoldExecStats(r.stats, &out.exec);
    rows += r.out.qr.affected_rows;
  }
  out.result = std::move(runs.back().out.qr);
  // DML reports the cluster's count: each shard of a distributed table
  // holds its own rows, each shard of a replicated one a full copy.
  const char* verb = DmlVerb(st.kind);
  if (verb != nullptr && !IsReplicated(TargetSchema(st), st.target_table)) {
    out.result.affected_rows = rows;
    out.result.message = verb + std::to_string(rows);
  }
  return out;
}

Result<MppQueryResult> MppDatabase::RoutedInsert(const ast::Statement& st,
                                                 const std::string& sql,
                                                 QueryContext* qctx) {
  const std::string schema = TargetSchema(st);
  if (IsReplicated(schema, st.target_table) || st.select ||
      !st.insert_columns.empty()) {
    // Replicated targets, INSERT..SELECT, and column-subset inserts run on
    // every shard (the engine resolves shard-local sources); distributed
    // correctness for INSERT..SELECT relies on shard-local source data.
    return Broadcast(st, sql, qctx);
  }
  DASHDB_ASSIGN_OR_RETURN(auto entry,
                          shards_[0]->GetTable(schema, st.target_table));
  const TableSchema& ts = entry->schema;
  // Evaluate literal rows and route each to its shard.
  MppQueryResult out;
  out.shard_seconds.resize(shards_.size(), 0);
  int64_t affected = 0;
  for (const auto& ast_row : st.insert_rows) {
    if (static_cast<int>(ast_row.size()) != ts.num_columns()) {
      return Status::SemanticError("INSERT row width mismatch");
    }
    std::vector<Value> row;
    Binder binder(shards_[0]->catalog(), sessions_[0].get());
    for (size_t c = 0; c < ast_row.size(); ++c) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr bound,
                              binder.BindScalar(ast_row[c], {}));
      RowBatch empty;
      DASHDB_ASSIGN_OR_RETURN(
          Value v, bound->EvaluateRow(empty, 0, sessions_[0]->exec_ctx()));
      DASHDB_ASSIGN_OR_RETURN(v, v.CastTo(ts.column(c).type));
      row.push_back(std::move(v));
    }
    int shard = RouteRow(ts, row);
    DASHDB_ASSIGN_OR_RETURN(auto e,
                            shards_[shard]->GetTable(schema, st.target_table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(e->storage);
    auto rtab = std::dynamic_pointer_cast<RowTable>(e->storage);
    Stopwatch sw;
    if (col) {
      DASHDB_RETURN_IF_ERROR(col->AppendRow(row));
    } else if (rtab) {
      DASHDB_RETURN_IF_ERROR(rtab->AppendRow(row));
    }
    out.shard_seconds[shard] += sw.ElapsedSeconds();
    ++affected;
  }
  out.result.affected_rows = affected;
  out.result.message = "INSERTED " + std::to_string(affected);
  return out;
}

namespace {

/// Merge operation for one partial-aggregate column.
enum class MergeOp : uint8_t { kSum, kMin, kMax };

/// One original select item in an aggregate query.
struct FinalItem {
  enum Kind { kGroup, kAggDirect, kAvg } kind = kGroup;
  int group_idx = 0;     // kGroup: which group column
  int partial_idx = 0;   // kAggDirect: merged partial column
  int sum_idx = 0, count_idx = 0;  // kAvg
};

bool HasSequenceRef(const ast::ExprP& e) {
  if (!e) return false;
  if (e->kind == ExprKind::kSequenceRef) return true;
  for (const auto& c : e->children) {
    if (HasSequenceRef(c)) return true;
  }
  return HasSequenceRef(e->else_branch);
}

bool HasSequenceRef(const ast::SelectStmt& sel) {
  for (const auto& cte : sel.ctes) {
    if (cte.query && HasSequenceRef(*cte.query)) return true;
  }
  for (const auto& item : sel.items) {
    if (HasSequenceRef(item.expr)) return true;
  }
  for (const auto& ref : sel.from) {
    if (ref.subquery && HasSequenceRef(*ref.subquery)) return true;
    if (HasSequenceRef(ref.join_condition)) return true;
  }
  for (const auto& g : sel.group_by) {
    if (HasSequenceRef(g)) return true;
  }
  for (const auto& o : sel.order_by) {
    if (HasSequenceRef(o.expr)) return true;
  }
  for (const auto& row : sel.values_rows) {
    for (const auto& v : row) {
      if (HasSequenceRef(v)) return true;
    }
  }
  return HasSequenceRef(sel.where) || HasSequenceRef(sel.having) ||
         HasSequenceRef(sel.start_with) || HasSequenceRef(sel.connect_by);
}

bool IsSimpleAgg(const ast::ExprP& e) {
  if (e->kind != ExprKind::kFuncCall) return false;
  AggKind k;
  if (!AggKindFromName(e->name, &k)) return false;
  switch (k) {
    case AggKind::kCount:
    case AggKind::kCountStar:
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kAvg:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<MppQueryResult> MppDatabase::ExecSelect(const ast::SelectStmt& sel,
                                               QueryContext* qctx,
                                               bool analyze) {
  // Sequences live on the session that created them. Shard attempts bind
  // on fresh per-attempt sessions, and one counter per shard could not give
  // cluster-unique values anyway.
  if (HasSequenceRef(sel)) {
    return Status::Unimplemented(
        "MPP SELECT does not support sequence references (NEXTVAL/CURRVAL)");
  }
  // Detect aggregation.
  bool has_agg = !sel.group_by.empty();
  for (const auto& item : sel.items) {
    if (item.expr->kind == ExprKind::kFuncCall) {
      AggKind k;
      if (AggKindFromName(item.expr->name, &k)) has_agg = true;
    }
  }
  MppQueryResult out;
  out.shard_seconds.resize(shards_.size(), 0);
  out.shard_exec.resize(shards_.size());
  // EXPLAIN ANALYZE state: the coordinator's span tree plus the per-shard
  // annotated plans for the combined report.
  std::shared_ptr<Trace> trace;
  uint32_t root_span = 0;
  std::vector<std::string> shard_plans(shards_.size());
  if (analyze) {
    trace = std::make_shared<Trace>();
    root_span = trace->AddSpan("MppQuery", Trace::kNoParent);
  }
  // Records one shard's outcome into the result, trace, and report state.
  // Shards ran concurrently, but this runs in shard order once all have
  // finished, so span ids are deterministic.
  auto record_shard = [&](size_t s, ShardRun& r) {
    const MppExecStats& sstats = r.stats;
    out.shard_seconds[s] = r.seconds;
    out.shard_exec[s] = sstats;
    FoldExecStats(sstats, &out.exec);
    if (!analyze) return;
    uint32_t sid = trace->AddSpan("Shard", root_span);
    TraceSpan& ss = trace->span(sid);
    ss.rows = r.out.batch.num_rows();
    ss.wall_seconds = r.seconds;
    ss.attrs["shard"] = static_cast<int64_t>(s);
    ss.attrs["attempts"] = static_cast<int64_t>(1 + sstats.shard_retries);
    if (sstats.shard_retries) {
      ss.attrs["retries"] = static_cast<int64_t>(sstats.shard_retries);
    }
    if (sstats.failovers) {
      ss.attrs["failovers"] = static_cast<int64_t>(sstats.failovers);
    }
    if (sstats.speculative_launches) {
      ss.attrs["spec_launches"] =
          static_cast<int64_t>(sstats.speculative_launches);
      ss.attrs["spec_wins"] = static_cast<int64_t>(sstats.speculative_wins);
    }
    if (r.out.shard_trace) trace->Graft(*r.out.shard_trace, sid);
    shard_plans[s] = std::move(r.out.analyzed_plan);
  };
  // Assembles the combined report once the merged result cardinality is
  // known: cluster header, per-shard counters, indented shard plans.
  auto finish_analyze = [&]() {
    if (!analyze) return;
    std::lock_guard<std::mutex> topo_lock(topo_mu_);
    uint64_t rows = out.result.rows.num_rows();
    std::string msg =
        "EXPLAIN ANALYZE (mpp shards=" + std::to_string(shards_.size()) +
        ", alive_nodes=" + std::to_string(topo_.num_alive_nodes()) +
        ", rows=" + std::to_string(rows) + ")\n";
    for (size_t s = 0; s < shards_.size(); ++s) {
      const MppExecStats& st = out.shard_exec[s];
      msg += "Shard " + std::to_string(s) + " (node " +
             std::to_string(topo_.OwnerOf(s)) +
             "): attempts=" + std::to_string(1 + st.shard_retries);
      if (st.shard_retries) {
        msg += " retries=" + std::to_string(st.shard_retries);
      }
      if (st.failovers) msg += " failovers=" + std::to_string(st.failovers);
      if (st.timeouts) msg += " timeouts=" + std::to_string(st.timeouts);
      if (st.speculative_launches) {
        msg += " spec_launches=" + std::to_string(st.speculative_launches) +
               " spec_wins=" + std::to_string(st.speculative_wins);
      }
      msg += "\n" + Indent(shard_plans[s], 2);
    }
    out.result.message = std::move(msg);
    trace->span(root_span).rows = rows;
    out.trace = trace;
  };

  if (!has_agg) {
    bool has_star = false;
    for (const auto& item : sel.items) {
      if (item.expr && item.expr->kind == ExprKind::kStar) has_star = true;
    }
    // ORDER BY keys resolve to output columns before execution. A star
    // hides the output indices until the shards expand it, so a star
    // query's keys must be ordinals or column names, resolved against the
    // shard output columns once they are known. The ORDER BY — plus a LIMIT
    // inflated by the offset — ships into the shard-local plans, and the
    // coordinator k-way merges the pre-sorted shard streams.
    std::vector<int> key_cols;
    for (const auto& oi : sel.order_by) {
      // A star key's column is filled in after the shards run (0 holds
      // its place); only an ordinal or a column name can resolve there.
      const bool by_name =
          oi.ordinal > 0 || (oi.expr && oi.expr->kind == ExprKind::kColumnRef);
      const int idx = !has_star ? ResolveOrderKeyIdx(oi, sel) : by_name ? 0 : -1;
      if (idx < 0) return OrderKeyUnimplemented();
      key_cols.push_back(idx);
    }
    auto shard_sel = std::make_shared<ast::SelectStmt>(sel);
    shard_sel->offset = 0;
    // A shard truncated to its first limit+offset rows still contains every
    // row a global prefix of limit+offset can draw from it: the prefix is
    // taken in the shard stream's own order, sorted or (with no ORDER BY)
    // plain shard order.
    shard_sel->limit = sel.limit < 0 ? -1 : sel.limit + sel.offset;
    ShardFn fn = MakeShardSelectFn(shard_sel, analyze);
    DASHDB_ASSIGN_OR_RETURN(std::vector<ShardRun> runs,
                            RunShards(/*idempotent=*/true, fn, qctx));
    const std::vector<OutputCol> cols = runs.front().out.cols;
    for (size_t s = 0; s < runs.size(); ++s) record_shard(s, runs[s]);
    if (has_star) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        key_cols[k] = ResolveExpandedOrderKey(sel.order_by[k], cols);
        if (key_cols[k] < 0) return OrderKeyUnimplemented();
      }
    }
    out.result.columns = cols;
    // Streaming k-way merge over the shard streams, each still charged
    // through its run. Shard sorts are stable, and key ties break on the
    // shard index, so the output is byte-identical to concatenating the
    // unsorted streams in shard order and stable-sorting globally. With no
    // ORDER BY every key ties, and the merge is that concatenation.
    const size_t S = runs.size();
    std::vector<bool> desc;
    for (const auto& oi : sel.order_by) desc.push_back(oi.desc);
    std::vector<NormalizedKeyColumn> keys(S);
    int64_t key_bytes = 0;
    for (size_t s = 0; s < S; ++s) {
      std::vector<const ColumnVector*> kc;
      for (int idx : key_cols) kc.push_back(&runs[s].out.batch.columns[idx]);
      keys[s].Build(kc, desc, 0, runs[s].out.batch.num_rows());
      key_bytes += static_cast<int64_t>(keys[s].byte_size());
    }
    MemCharge mem(qctx);
    DASHDB_RETURN_IF_ERROR(mem.Add(key_bytes, "MPP merge keys"));
    if (!key_cols.empty()) {
      GlobalMppInstruments().merge_streams->Add(static_cast<int64_t>(S));
    }
    std::vector<size_t> pos(S, 0);
    auto alive = [&](size_t s) {
      return pos[s] < runs[s].out.batch.num_rows();
    };
    auto wins = [&](size_t a, size_t b) {
      int c = keys[a].Compare(pos[a], keys[b], pos[b]);
      return c != 0 ? c < 0 : a < b;
    };
    TournamentTree tree;
    tree.Init(S, wins, alive);
    RowBatch merged;
    InitBatchFor(cols, &merged);
    const int64_t want =
        sel.limit < 0 ? -1 : sel.limit + static_cast<int64_t>(sel.offset);
    int64_t popped = 0;
    size_t since_probe = 0;
    for (;;) {
      if (want >= 0 && popped >= want) break;  // prefix satisfied: stop
      const int w = tree.winner();
      if (w < 0) break;
      if (popped >= static_cast<int64_t>(sel.offset)) {
        AppendRowFrom(runs[w].out.batch, pos[w], &merged);
      }
      ++pos[w];
      ++popped;
      tree.Replay(static_cast<size_t>(w), wins, alive);
      if (++since_probe >= 2048) {
        since_probe = 0;
        DASHDB_RETURN_IF_ERROR(qctx->CheckAlive());
      }
    }
    out.result.rows = std::move(merged);
    out.result.affected_rows =
        static_cast<int64_t>(out.result.rows.num_rows());
    finish_analyze();
    return out;
  }

  // ---- two-phase aggregation ----
  // Build the partial (shard) statement: group exprs + decomposed partials.
  if (sel.having) {
    return Status::Unimplemented("MPP HAVING not supported");
  }
  // final_cols below run parallel to sel.items, so select-list resolution
  // (names, ordinals, and whole select-list expressions — e.g. ORDER BY
  // COUNT(*)) indexes the merged result directly.
  std::vector<int> key_cols;
  for (const auto& oi : sel.order_by) {
    const int idx = ResolveOrderKeyIdx(oi, sel);
    if (idx < 0) return OrderKeyUnimplemented();
    key_cols.push_back(idx);
  }
  auto partial_p = std::make_shared<ast::SelectStmt>(sel);
  ast::SelectStmt& partial = *partial_p;
  partial.order_by.clear();
  partial.limit = -1;
  partial.offset = 0;
  partial.items.clear();
  // Group columns first.
  for (size_t g = 0; g < sel.group_by.size(); ++g) {
    ast::SelectItem it;
    it.expr = sel.group_by[g];
    it.alias = "G" + std::to_string(g);
    partial.items.push_back(std::move(it));
  }
  std::vector<FinalItem> finals;
  std::vector<MergeOp> merges;  // per partial agg column
  auto add_partial = [&](ast::ExprP call, MergeOp m) -> int {
    ast::SelectItem it;
    it.expr = std::move(call);
    it.alias = "P" + std::to_string(partial.items.size());
    partial.items.push_back(std::move(it));
    merges.push_back(m);
    return static_cast<int>(merges.size()) - 1;
  };
  for (const auto& item : sel.items) {
    const ast::ExprP& e = item.expr;
    if (IsSimpleAgg(e)) {
      AggKind k;
      AggKindFromName(e->name, &k);
      FinalItem f;
      if (e->name == "AVG" || e->name == "MEAN") {
        auto sum = std::make_shared<ast::Expr>(*e);
        sum->name = "SUM";
        auto cnt = std::make_shared<ast::Expr>(*e);
        cnt->name = "COUNT";
        f.kind = FinalItem::kAvg;
        f.sum_idx = add_partial(sum, MergeOp::kSum);
        f.count_idx = add_partial(cnt, MergeOp::kSum);
      } else {
        f.kind = FinalItem::kAggDirect;
        MergeOp m = MergeOp::kSum;
        if (e->name == "MIN") m = MergeOp::kMin;
        if (e->name == "MAX") m = MergeOp::kMax;
        f.partial_idx = add_partial(std::make_shared<ast::Expr>(*e), m);
      }
      finals.push_back(f);
      continue;
    }
    // Must be a group expression.
    bool found = false;
    for (size_t g = 0; g < sel.group_by.size(); ++g) {
      if (AstToString(sel.group_by[g]) == AstToString(e)) {
        FinalItem f;
        f.kind = FinalItem::kGroup;
        f.group_idx = static_cast<int>(g);
        finals.push_back(f);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Unimplemented(
          "MPP SELECT items must be group expressions or simple aggregates "
          "(COUNT/SUM/MIN/MAX/AVG)");
    }
  }
  const size_t n_groups = sel.group_by.size();
  // Run partials on every shard and merge by group key.
  struct GroupAccum {
    std::vector<Value> groups;
    std::vector<Value> partials;
  };
  std::unordered_map<std::string, GroupAccum> table;
  ShardFn fn = MakeShardSelectFn(partial_p, analyze);
  DASHDB_ASSIGN_OR_RETURN(std::vector<ShardRun> runs,
                          RunShards(/*idempotent=*/true, fn, qctx));
  const std::vector<OutputCol> partial_cols = runs.front().out.cols;
  MemCharge mem(qctx);
  for (size_t s = 0; s < runs.size(); ++s) {
    record_shard(s, runs[s]);
    // The group table takes over the partial batch's charge; the batch is
    // freed once folded in.
    const RowBatch& batch = runs[s].out.batch;
    DASHDB_RETURN_IF_ERROR(mem.Add(runs[s].out.charge.bytes(),
                                   "MPP partial-aggregate merge"));
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::string key;
      for (size_t g = 0; g < n_groups; ++g) {
        key += batch.columns[g].GetValue(i).ToString();
        key += '\x1f';
      }
      auto it = table.find(key);
      if (it == table.end()) {
        GroupAccum acc;
        for (size_t g = 0; g < n_groups; ++g) {
          acc.groups.push_back(batch.columns[g].GetValue(i));
        }
        for (size_t p = 0; p < merges.size(); ++p) {
          acc.partials.push_back(batch.columns[n_groups + p].GetValue(i));
        }
        table.emplace(std::move(key), std::move(acc));
        continue;
      }
      for (size_t p = 0; p < merges.size(); ++p) {
        Value incoming = batch.columns[n_groups + p].GetValue(i);
        Value& cur = it->second.partials[p];
        if (incoming.is_null()) continue;
        if (cur.is_null()) {
          cur = incoming;
          continue;
        }
        switch (merges[p]) {
          case MergeOp::kSum:
            cur = cur.type() == TypeId::kDouble ||
                          incoming.type() == TypeId::kDouble
                      ? Value::Double(cur.AsDouble() + incoming.AsDouble())
                      : Value::Int64(cur.AsInt() + incoming.AsInt());
            break;
          case MergeOp::kMin:
          case MergeOp::kMax: {
            // Doubles merge in the shards' own total order, so a -0.0/+0.0
            // tie or a NaN does not depend on which shard arrives first.
            const bool min = merges[p] == MergeOp::kMin;
            if (cur.type() == TypeId::kDouble &&
                incoming.type() == TypeId::kDouble) {
              const double a = cur.AsDouble(), b = incoming.AsDouble();
              cur = Value::Double(min ? DoubleMin(a, b) : DoubleMax(a, b));
            } else if (min ? incoming.Compare(cur) < 0
                           : incoming.Compare(cur) > 0) {
              cur = incoming;
            }
            break;
          }
        }
      }
    }
    runs[s].out.batch = RowBatch{};
    runs[s].out.charge.Reset();
  }
  // Final projection.
  std::vector<OutputCol> final_cols;
  for (size_t i = 0; i < sel.items.size(); ++i) {
    const FinalItem& f = finals[i];
    std::string name = !sel.items[i].alias.empty()
                           ? sel.items[i].alias
                           : (sel.items[i].expr->kind == ExprKind::kColumnRef
                                  ? sel.items[i].expr->name
                                  : sel.items[i].expr->name);
    TypeId t;
    if (f.kind == FinalItem::kGroup) {
      t = partial_cols[f.group_idx].type;
    } else if (f.kind == FinalItem::kAvg) {
      t = TypeId::kDouble;
    } else {
      t = partial_cols[n_groups + f.partial_idx].type;
    }
    final_cols.push_back({name, t});
  }
  out.result.columns = final_cols;
  for (const auto& c : final_cols) {
    out.result.rows.columns.emplace_back(c.type);
  }
  // Global aggregate with no groups and no rows still yields one row.
  if (table.empty() && n_groups == 0) {
    GroupAccum acc;
    for (size_t p = 0; p < merges.size(); ++p) {
      acc.partials.push_back(Value::Null(TypeId::kInt64));
    }
    table.emplace("", std::move(acc));
  }
  for (auto& [key, acc] : table) {
    for (size_t i = 0; i < finals.size(); ++i) {
      const FinalItem& f = finals[i];
      Value v = Value::Null(final_cols[i].type);
      if (f.kind == FinalItem::kGroup) {
        v = acc.groups[f.group_idx];
      } else if (f.kind == FinalItem::kAggDirect) {
        v = acc.partials[f.partial_idx];
        if (v.is_null() && merges[f.partial_idx] == MergeOp::kSum &&
            partial_cols[n_groups + f.partial_idx].type == TypeId::kInt64 &&
            n_groups == 0) {
          // COUNT over zero rows is 0, not NULL.
          const ast::ExprP& e = sel.items[i].expr;
          if (e->name == "COUNT") v = Value::Int64(0);
        }
      } else {  // AVG
        Value sum = acc.partials[f.sum_idx];
        Value cnt = acc.partials[f.count_idx];
        if (!sum.is_null() && !cnt.is_null() && cnt.AsInt() > 0) {
          v = Value::Double(sum.AsDouble() / cnt.AsDouble());
        }
      }
      out.result.rows.columns[i].AppendValue(v);
    }
  }
  // Coordinator ORDER BY / LIMIT / OFFSET over the merged groups, through
  // the same plan the binder builds.
  std::vector<SortKey> sort_keys;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const OutputCol& c = final_cols[key_cols[k]];
    sort_keys.push_back({std::make_shared<ColumnRefExpr>(key_cols[k], c.type,
                                                         c.name),
                         sel.order_by[k].desc});
  }
  ExecContext ctx;
  OperatorPtr plan = PlanOrderBy(
      std::make_unique<ValuesOp>(std::move(out.result.rows), final_cols),
      std::move(sort_keys), sel.limit, sel.offset, &ctx);
  AttachQueryContext(plan.get(), qctx);
  DASHDB_ASSIGN_OR_RETURN(out.result.rows, DrainOperator(plan.get()));
  out.result.affected_rows = static_cast<int64_t>(out.result.rows.num_rows());
  finish_analyze();
  return out;
}

MppDatabase::ShardFn MppDatabase::MakeShardSelectFn(
    std::shared_ptr<ast::SelectStmt> stmt, bool analyze) {
  return [this, stmt, analyze](int shard, QueryContext* qctx,
                               ShardAttemptOut* o) -> Status {
    DASHDB_RETURN_IF_ERROR(FaultInjector::Global().Evaluate(kFaultShardStall));
    // Declared before the plan, whose operators point into its ExecContext.
    std::shared_ptr<Session> session = NewShardSession(shard);
    BindOptions bopts;
    bopts.scan = shards_[shard]->MakeScanOptions();
    Binder binder(shards_[shard]->catalog(), session.get(), bopts);
    DASHDB_ASSIGN_OR_RETURN(OperatorPtr root, binder.BindSelect(*stmt));
    // The shard-local plan probes the attempt's governor at every operator
    // Open/Next and morsel boundary; its memory charges roll up to the
    // query root's budget.
    AttachQueryContext(root.get(), qctx);
    // Shard results travel through the flow-controlled exchange: a producer
    // thread drains the plan into size-bounded dictionary-coded chunks and
    // blocks whenever the credit window fills (backpressure); this thread
    // charges each chunk to the statement's budget and decodes it into the
    // attempt payload as it arrives. The fn stays
    // synchronous overall, so retry/speculation semantics are unchanged.
    constexpr size_t kChunkTargetBytes = 64 << 10;
    constexpr size_t kCreditWindow = 4;
    ExchangeChannel channel(kCreditWindow);
    std::thread producer([&] {
      Status st = root->Open();
      RowBatch batch;
      while (st.ok()) {
        Result<bool> more = root->Next(&batch);
        if (!more.ok()) {
          st = more.status();
          break;
        }
        if (!more.value()) break;
        batch.Compact();
        const size_t n = batch.num_rows();
        if (n == 0) continue;
        const int64_t total = BatchMemoryBytes(batch);
        size_t per_chunk = n;
        if (static_cast<size_t>(total) > kChunkTargetBytes) {
          per_chunk = std::max<size_t>(
              1, n * kChunkTargetBytes / static_cast<size_t>(total));
        }
        for (size_t begin = 0; begin < n; begin += per_chunk) {
          const size_t end = std::min(n, begin + per_chunk);
          ExchangeChunk chunk;
          chunk.payload = EncodeExchangeBatch(batch, begin, end);
          chunk.rows = end - begin;
          chunk.raw_bytes =
              static_cast<size_t>(total) * (end - begin) / n;
          channel.Push(std::move(chunk));
        }
      }
      channel.Close(std::move(st));
    });
    o->cols = root->output();
    o->batch = RowBatch{};  // retries reuse the attempt payload
    o->charge = MemCharge(qctx);
    for (const OutputCol& c : o->cols) o->batch.columns.emplace_back(c.type);
    MppInstruments& ins = GlobalMppInstruments();
    Status decode_err;
    Status produce_st;
    ExchangeChunk chunk;
    while (channel.Pop(&chunk, &produce_st)) {
      if (decode_err.ok()) {
        decode_err = o->charge.Add(static_cast<int64_t>(chunk.raw_bytes),
                                   "MPP shard result");
        if (decode_err.ok()) {
          decode_err = DecodeExchangeBatch(chunk.payload, &o->batch);
        }
        if (!decode_err.ok()) channel.CancelConsumer();
        ins.exchange_chunks->Add(1);
        ins.exchange_bytes->Add(static_cast<int64_t>(chunk.raw_bytes));
        ins.exchange_compressed_bytes->Add(
            static_cast<int64_t>(chunk.payload.size()));
      }
    }
    ins.exchange_stalls->Add(static_cast<int64_t>(channel.stalls()));
    producer.join();
    DASHDB_RETURN_IF_ERROR(decode_err);
    DASHDB_RETURN_IF_ERROR(produce_st);
    if (analyze) {
      o->analyzed_plan = root->AnalyzeString();
      auto t = std::make_shared<Trace>();
      root->AddTraceSpans(t.get(), Trace::kNoParent);
      o->shard_trace = std::move(t);
    }
    return Status::OK();
  };
}

Result<MppQueryResult> MppDatabase::Execute(const std::string& sql) {
  return Execute(sql, nullptr);
}

ResultCache::Versions MppDatabase::CoordinatorVersions() {
  ResultCache::Versions v;
  if (!shards_.empty()) {
    Engine& s0 = *shards_.front();
    v.catalog = s0.catalog()->version();
    v.stats = s0.stats_version();
    v.data = s0.data_version();
  }
  v.data += data_version_.load(std::memory_order_acquire);
  return v;
}

Result<MppQueryResult> MppDatabase::Execute(
    const std::string& sql, std::shared_ptr<QueryContext> qctx) {
  if (qctx == nullptr) qctx = std::make_shared<QueryContext>();
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseStatement(sql));
  if (stmt->kind == ast::StmtKind::kSelect ||
      stmt->kind == ast::StmtKind::kExplain) {
    // Queries share the database. Passing the turnstile first queues this
    // reader behind a waiting writer, which holds it.
    { std::lock_guard<std::mutex> turn(turnstile_); }
    std::shared_lock<std::shared_mutex> read_lock(mu_);
    if (stmt->kind == ast::StmtKind::kExplain) {
      // EXPLAIN ANALYZE runs the query through the coordinator and reports
      // per-shard plans + failover counters; plain EXPLAIN broadcasts so
      // the message shows a shard-local plan.
      if (stmt->explain_analyze && stmt->select) {
        return ExecSelect(*stmt->select, qctx.get(), /*analyze=*/true);
      }
      return Broadcast(*stmt, sql, qctx.get());
    }
    if (result_cache_enabled_ && stmt->select &&
        IsResultCacheableSelect(*stmt->select)) {
      // Versions captured before the lookup: a write racing this query
      // can only skip the insert below, never produce a stale hit.
      const ResultCache::Versions v = CoordinatorVersions();
      if (std::shared_ptr<const QueryResult> cached = result_cache_.Lookup(
              sql, Dialect::kAnsi, "PUBLIC", v)) {
        MppQueryResult out;
        out.result = *cached;
        out.shard_seconds.assign(shards_.size(), 0.0);
        return out;
      }
      Result<MppQueryResult> r = ExecSelect(*stmt->select, qctx.get());
      if (r.ok() && CoordinatorVersions() == v) {
        const int64_t bytes = BatchMemoryBytes(r->result.rows);
        // The retained copy charges this statement's budget; a query that
        // cannot afford it completes normally and just skips caching.
        if (qctx->Charge(bytes, "result cache insert").ok()) {
          result_cache_.Insert(sql, Dialect::kAnsi, "PUBLIC", v,
                               std::make_shared<QueryResult>(r->result),
                               static_cast<size_t>(bytes));
          qctx->Release(bytes);
        }
      }
      return r;
    }
    return ExecSelect(*stmt->select, qctx.get());
  }
  // Every other statement may write (DDL, DML, SET, CALL RUNSTATS...) and
  // runs alone; holding the turnstile keeps new readers out meanwhile.
  std::lock_guard<std::mutex> turn(turnstile_);
  std::unique_lock<std::shared_mutex> write_lock(mu_);
  switch (stmt->kind) {
    case ast::StmtKind::kInsert:
      data_version_.fetch_add(1, std::memory_order_release);
      return RoutedInsert(*stmt, sql, qctx.get());
    case ast::StmtKind::kSet: {
      // RESULT_CACHE is a coordinator knob (the cache lives here, not on
      // the shards); record it, then broadcast like any SET so shard
      // sessions stay in sync for knobs they do own (SCHEMA, MEM_BUDGET...).
      const std::string name = NormalizeIdent(stmt->set_name);
      if (name == "RESULT_CACHE") {
        const std::string v = NormalizeIdent(stmt->set_value);
        if (v == "ON" || v == "TRUE" || v == "1") {
          result_cache_enabled_ = true;
        } else if (v == "OFF" || v == "FALSE" || v == "0") {
          result_cache_enabled_ = false;
        } else {
          return Status::InvalidArgument("RESULT_CACHE must be ON or OFF");
        }
      }
      return Broadcast(*stmt, sql, qctx.get());
    }
    default:
      // Conservative: any other statement may write (DDL, UPDATE, DELETE,
      // TRUNCATE, CALL RUNSTATS...). Broadcast DML reaches shard 0, whose
      // versions already stamp cache entries, but bumping the coordinator
      // counter too keeps invalidation independent of routing details.
      data_version_.fetch_add(1, std::memory_order_release);
      return Broadcast(*stmt, sql, qctx.get());
  }
}

Result<std::vector<size_t>> MppDatabase::ShardRowCounts(
    const std::string& schema, const std::string& table) {
  std::shared_lock<std::shared_mutex> read_lock(mu_);
  std::vector<size_t> out;
  for (auto& shard : shards_) {
    DASHDB_ASSIGN_OR_RETURN(auto entry, shard->GetTable(schema, table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
    auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
    out.push_back(col ? col->live_row_count()
                      : (row ? row->live_row_count() : 0));
  }
  return out;
}

}  // namespace dashdb

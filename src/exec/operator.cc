#include "exec/operator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include <cmath>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/sort_key.h"
#include "common/threadpool.h"
#include "exec/join_order.h"
#include "exec/window.h"

namespace dashdb {

void InitBatchFor(const std::vector<OutputCol>& cols, RowBatch* out) {
  out->columns.clear();
  out->columns.reserve(cols.size());
  for (const auto& c : cols) out->columns.emplace_back(c.type);
}

void AppendRowFrom(const RowBatch& src, size_t row, RowBatch* dst) {
  for (size_t c = 0; c < src.columns.size(); ++c) {
    dst->columns[c].AppendFrom(src.columns[c], row);
  }
}

namespace {

/// Appends every logical row of `src` (its selection honored) to `dst`,
/// column by column.
void AppendBatch(const RowBatch& src, RowBatch* dst) {
  for (size_t c = 0; c < src.columns.size(); ++c) {
    if (src.selection) {
      dst->columns[c].Gather(src.columns[c], src.selection->data(),
                             src.selection->size());
    } else {
      dst->columns[c].Append(src.columns[c]);
    }
  }
}

/// Typed non-null cell equality mirroring Value::Compare(..) == 0 without
/// materializing Values. Mixed varchar/non-varchar cells (not producible
/// by the binder's equi-join typing, but legal for Value) fall back to the
/// boxed comparison.
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j) {
  const bool av = a.type() == TypeId::kVarchar;
  const bool bv = b.type() == TypeId::kVarchar;
  if (av && bv) return a.GetString(i) == b.GetString(j);
  if (av != bv) return a.GetValue(i).Compare(b.GetValue(j)) == 0;
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    return a.GetDouble(i) == b.GetDouble(j);
  }
  return a.GetInt(i) == b.GetInt(j);
}

/// ` blooms=N bloom-dropped=M filter=K[,K...]` over every runtime filter,
/// plus ` noop-pages=P` (full dense filters skipped by the key synopsis)
/// when a dense filter is among them.
std::string RuntimeFilterExtra(const std::vector<ScanRuntimeFilter>& filters,
                              const ScanStats& stats) {
  if (filters.empty()) return std::string();
  char buf[96];
  std::snprintf(buf, sizeof(buf), " blooms=%zu bloom-dropped=%llu filter=",
                filters.size(),
                static_cast<unsigned long long>(stats.bloom_dropped));
  std::string out = buf;
  bool dense = false;
  for (size_t i = 0; i < filters.size(); ++i) {
    if (i > 0) out += ",";
    out += filters[i].kind();
    dense |= filters[i].dense != nullptr;
  }
  if (dense) out += " noop-pages=" + std::to_string(stats.filter_skips);
  return out;
}

/// The DenseJoinIndex::RangeFor key-slot count of the non-NULL keys of the
/// integer-backed column `keys` (0 when they do not qualify); *lo receives
/// their minimum.
uint64_t DenseRangeOf(const ColumnVector& keys, int64_t* lo) {
  const int64_t* v = keys.ints().data();
  const bool nulls = keys.has_nulls();
  int64_t min = INT64_MAX, max = INT64_MIN;
  for (size_t r = 0; r < keys.size(); ++r) {
    if (nulls && keys.IsNull(r)) continue;
    min = std::min(min, v[r]);
    max = std::max(max, v[r]);
  }
  *lo = min;
  // An all-NULL column leaves max < min, which never qualifies.
  return DenseJoinIndex::RangeFor(min, max, keys.size());
}

}  // namespace

std::string Operator::PlanString(int indent) const {
  std::string out(indent * 2, ' ');
  out += label();
  out += "\n";
  for (const Operator* c : children()) out += c->PlanString(indent + 1);
  return out;
}

namespace {

/// Pool-helper CPU that RunOnPool calls on this thread have counted so
/// far; the Open()/Next() wrappers add its growth over a call, so a
/// parent's cumulative CPU includes its children's helpers.
thread_local double tls_pool_cpu = 0;

/// Registry instruments for the exec layer, resolved once per process;
/// after that every event is one relaxed atomic add.
struct ExecInstruments {
  Counter* rows_out;
  Counter* batches_out;
  Counter* operator_opens;
  Counter* morsels;
  Counter* bloom_pushdowns;      ///< runtime Bloom filters installed on scans
  Counter* bloom_rows_dropped;   ///< scan rows rejected by pushed filters
  Counter* adaptive_replans;     ///< mid-query join re-orderings
  Counter* limit_early_stops;    ///< LimitOp stops with limit satisfied
  Histogram* batch_rows;
  Histogram* filter_selectivity;  ///< percent of examined rows passing
  Histogram* card_est_error;      ///< log2(actual/estimated) per operator
};

ExecInstruments& GlobalExecInstruments() {
  auto& reg = MetricRegistry::Global();
  static ExecInstruments in{
      reg.GetCounter("exec.rows_out"),
      reg.GetCounter("exec.batches_out"),
      reg.GetCounter("exec.operator_opens"),
      reg.GetCounter("exec.morsels"),
      reg.GetCounter("exec.bloom_pushdowns"),
      reg.GetCounter("exec.bloom_rows_dropped"),
      reg.GetCounter("exec.adaptive_replans"),
      reg.GetCounter("exec.limit_early_stops"),
      reg.GetHistogram("exec.batch_rows", {16, 64, 256, 1024, 4096}),
      reg.GetHistogram("exec.filter_selectivity", {1, 5, 10, 25, 50, 75, 90, 100}),
      reg.GetHistogram("exec.card_est_error", {-4, -2, -1, 0, 1, 2, 4}),
  };
  return in;
}

}  // namespace

Operator::~Operator() {
  if (qctx_ != nullptr && mem_reserved_ > 0) qctx_->Release(mem_reserved_);
}

Status Operator::ChargeMemory(int64_t bytes, const char* what) {
  if (bytes <= 0) return Status::OK();
  if (qctx_ != nullptr) DASHDB_RETURN_IF_ERROR(qctx_->Charge(bytes, what));
  mem_reserved_ += bytes;
  mem_peak_bytes_ = std::max(mem_peak_bytes_, mem_reserved_);
  return Status::OK();
}

void Operator::ReleaseMemory(int64_t bytes) {
  if (bytes <= 0) return;
  if (qctx_ != nullptr) qctx_->Release(bytes);
  mem_reserved_ -= bytes;
}

void Operator::RunOnPool(ThreadPool* pool, size_t n,
                         const std::function<void(size_t)>& fn, int dop) {
  double helper_cpu = 0;
  pool->ParallelFor(n, fn, dop, qctx_, &helper_cpu);
  tls_pool_cpu += helper_cpu;
}

Status Operator::Open() {
  ++metrics_.open_calls;
  GlobalExecInstruments().operator_opens->Add(1);
  if (qctx_ != nullptr) DASHDB_RETURN_IF_ERROR(qctx_->CheckAlive());
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = ThreadCpuSeconds() + tls_pool_cpu;
  Status s = OpenImpl();
  metrics_.cpu_seconds += ThreadCpuSeconds() + tls_pool_cpu - cpu0;
  metrics_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  return s;
}

Result<bool> Operator::Next(RowBatch* out) {
  return NextInternal(out, /*allow_selection=*/false);
}

Result<bool> Operator::NextSel(RowBatch* out) {
  return NextInternal(out, /*allow_selection=*/true);
}

Result<bool> Operator::NextInternal(RowBatch* out, bool allow_selection) {
  ++metrics_.next_calls;
  if (qctx_ != nullptr) DASHDB_RETURN_IF_ERROR(qctx_->CheckAlive());
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = ThreadCpuSeconds() + tls_pool_cpu;
  Result<bool> r = NextImpl(out);
  // Compaction for selection-unaware callers counts as this operator's
  // work, so it stays inside the timed window.
  if (r.ok() && *r && !allow_selection) out->Compact();
  metrics_.cpu_seconds += ThreadCpuSeconds() + tls_pool_cpu - cpu0;
  metrics_.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (r.ok() && *r) {
    // Logical rows: a batch carrying a selection counts its selected rows,
    // so EXPLAIN ANALYZE cardinalities are invariant to where compaction
    // happens.
    const uint64_t n = out->logical_rows();
    ++metrics_.batches_out;
    metrics_.rows_out += n;
    auto& in = GlobalExecInstruments();
    in.rows_out->Add(n);
    in.batches_out->Add(1);
    in.batch_rows->Observe(static_cast<int64_t>(n));
  }
  return r;
}

std::string Operator::kind() const {
  std::string l = label();
  size_t p = l.find('(');
  return p == std::string::npos ? l : l.substr(0, p);
}

std::string Operator::AnalyzeString(int indent) const {
  double child_wall = 0;
  for (const Operator* c : children()) child_wall += c->metrics().wall_seconds;
  const double self = std::max(0.0, metrics_.wall_seconds - child_wall);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " [rows=%llu batches=%llu wall=%.3fms self=%.3fms",
                static_cast<unsigned long long>(metrics_.rows_out),
                static_cast<unsigned long long>(metrics_.batches_out),
                metrics_.wall_seconds * 1e3, self * 1e3);
  std::string out(indent * 2, ' ');
  out += label();
  out += buf;
  if (has_est_) {
    char ebuf[32];
    std::snprintf(ebuf, sizeof(ebuf), " est=%.0f", est_rows_);
    out += ebuf;
  }
  if (mem_peak_bytes_ > 0) {
    char mbuf[32];
    std::snprintf(mbuf, sizeof(mbuf), " mem=%lld",
                  static_cast<long long>(mem_peak_bytes_));
    out += mbuf;
  }
  out += AnalyzeExtra();
  out += "]";
  out += "\n";
  for (const Operator* c : children()) out += c->AnalyzeString(indent + 1);
  return out;
}

void RecordCardinalityFeedback(const Operator* root) {
  if (root == nullptr) return;
  if (root->has_est_rows() && root->metrics().next_calls > 0) {
    const double actual = static_cast<double>(root->metrics().rows_out);
    // +1 on both sides keeps zero-row plans finite; the histogram bucket
    // is the rounded log2 ratio (0 = on the money, ±1 = off by 2x, ...).
    const double ratio = (actual + 1.0) / (root->est_rows() + 1.0);
    GlobalExecInstruments().card_est_error->Observe(
        static_cast<int64_t>(std::llround(std::log2(ratio))));
  }
  for (const Operator* c : root->children()) RecordCardinalityFeedback(c);
}

uint32_t Operator::AddTraceSpans(Trace* trace, uint32_t parent) const {
  const uint32_t id = trace->AddSpan(kind(), parent);
  TraceSpan& s = trace->span(id);
  s.rows = metrics_.rows_out;
  s.wall_seconds = metrics_.wall_seconds;
  s.cpu_seconds = metrics_.cpu_seconds;
  for (const Operator* c : children()) c->AddTraceSpans(trace, id);
  return id;
}

Result<RowBatch> DrainOperator(Operator* op) {
  DASHDB_RETURN_IF_ERROR(op->Open());
  RowBatch all;
  InitBatchFor(op->output(), &all);
  RowBatch batch;
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, op->NextSel(&batch));
    if (!more) break;
    AppendBatch(batch, &all);
  }
  return all;
}

void AttachQueryContext(Operator* root, QueryContext* qctx) {
  if (root == nullptr) return;
  root->set_query_ctx(qctx);
  // children() is the EXPLAIN view (const), but attachment happens once on
  // the freshly bound tree the walker's caller owns mutably.
  for (const Operator* c : root->children()) {
    AttachQueryContext(const_cast<Operator*>(c), qctx);
  }
}

ScanRuntimeFilter MakeRuntimeFilter(int col, const ColumnVector& keys,
                                    TypeId probe_type) {
  const size_t n = keys.size();
  int64_t lo = 0;
  if (IsIntegerBacked(keys.type()) && IsIntegerBacked(probe_type)) {
    if (const uint64_t range = DenseRangeOf(keys, &lo)) {
      auto set = std::make_shared<DenseKeySet>();
      set->Init(lo, range);
      const int64_t* v = keys.ints().data();
      for (size_t r = 0; r < n; ++r) {
        if (!keys.IsNull(r)) set->Insert(v[r]);
      }
      return {col, std::shared_ptr<const DenseKeySet>(std::move(set))};
    }
  }
  auto bloom = std::make_shared<BloomPrefilter>();
  bloom->Init(n);
  for (size_t r = 0; r < n; ++r) {
    if (!keys.IsNull(r)) bloom->Add(HashCell(keys, r));
  }
  return {col, std::shared_ptr<const BloomPrefilter>(std::move(bloom))};
}

int64_t BatchMemoryBytes(const RowBatch& b) {
  int64_t bytes = 0;
  for (const auto& col : b.columns) bytes += ColumnMemoryBytes(col);
  return bytes;
}

int64_t ColumnMemoryBytes(const ColumnVector& c) {
  if (c.type() != TypeId::kVarchar) return static_cast<int64_t>(c.size()) * 8;
  int64_t bytes = 0;
  for (const auto& s : c.strings()) bytes += static_cast<int64_t>(s.size()) + 2;
  return bytes;
}

// ------------------------------------------------------------ ColumnScan --

ColumnScanOp::ColumnScanOp(std::shared_ptr<const ColumnTable> table,
                           std::vector<ColumnPredicate> preds,
                           std::vector<int> projection, ScanOptions opts)
    : table_(std::move(table)),
      preds_(std::move(preds)),
      projection_(std::move(projection)),
      opts_(opts) {
  for (int c : projection_) {
    output_.push_back(
        {table_->schema().column(c).name, table_->schema().column(c).type});
  }
}

Status ColumnScanOp::OpenImpl() {
  if (window_.size() > 1) {
    for (size_t i = next_slot_; i < window_.size(); ++i) {
      ReleaseMemory(BatchMemoryBytes(window_[i]));
    }
  }
  window_.clear();
  next_slot_ = 0;
  next_page_ = 0;
  window_units_ = 0;
  window_bytes_ = 0;
  stats_ = ScanStats{};
  return Status::OK();
}

bool ColumnScanOp::AcceptRuntimeFilter(ScanRuntimeFilter filter) {
  const int col = filter.col;
  if (next_page_ > 0 || col < 0 || col >= static_cast<int>(output_.size()) ||
      !filter.bloom == !filter.dense ||
      (filter.dense && !IsIntegerBacked(output_[col].type))) {
    return false;
  }
  runtime_filters_.push_back(std::move(filter));
  GlobalExecInstruments().bloom_pushdowns->Add(1);
  return true;
}

std::string ColumnScanOp::AnalyzeExtra() const {
  return RuntimeFilterExtra(runtime_filters_, stats_);
}

Result<bool> ColumnScanOp::NextImpl(RowBatch* out) {
  for (;;) {
    while (next_slot_ < window_.size()) {
      RowBatch& slot = window_[next_slot_++];
      if (window_.size() > 1) ReleaseMemory(BatchMemoryBytes(slot));
      if (slot.num_rows() > 0) {
        *out = std::move(slot);
        return true;
      }
    }
    if (next_page_ > table_->num_pages()) return false;
    DASHDB_RETURN_IF_ERROR(FillWindow());
  }
}

Status ColumnScanOp::FillWindow() {
  const size_t n_units = table_->num_pages() + 1;  // pages plus the tail
  window_units_ = NextWindowUnits(
      *this, parallel() ? static_cast<size_t>(opts_.dop) : 1, window_units_,
      window_bytes_);
  // Synopsis probes run here, so pages they skip never take a window place
  // (nor a pool task); the skips count into stats_ as ScanPage counts them.
  std::vector<size_t> pages;  // page of each slot, ascending
  while (pages.size() < window_units_ && next_page_ < n_units) {
    const size_t p = next_page_++;
    if (table_->PageMayMatch(p, preds_, opts_, &stats_)) pages.push_back(p);
  }
  const size_t n = pages.size();
  window_.assign(n, RowBatch());
  next_slot_ = 0;
  std::vector<ScanStats> unit_stats(n);
  Status first_error;
  std::mutex err_mu;
  auto scan_unit = [&](size_t slot) {
    // Governor probe at page granularity: a cancel/timeout stops every
    // worker before its next page, and surfaces like a storage fault.
    Status s = CheckQueryAlive();
    if (s.ok()) {
      GlobalExecInstruments().morsels->Add(1);
      InitBatchFor(output_, &window_[slot]);
      s = table_->ScanPage(pages[slot], preds_, projection_,
                           runtime_filters_, opts_, &window_[slot], nullptr,
                           &unit_stats[slot]);
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lk(err_mu);
      if (first_error.ok()) first_error = s;
    }
  };
  if (parallel()) {
    RunOnPool(opts_.exec_pool, n, scan_unit, opts_.dop);
  } else {
    for (size_t u = 0; u < n && first_error.ok(); ++u) scan_unit(u);
  }
  DASHDB_RETURN_IF_ERROR(first_error);
  // A governed ParallelFor abandons its tail when a cancel/timeout lands on
  // its own chunk-claim probe — without recording an error. Re-probe, or a
  // cancelled scan would surface as a clean (but truncated) end-of-stream.
  DASHDB_RETURN_IF_ERROR(CheckQueryAlive());
  const size_t dropped0 = stats_.bloom_dropped;
  for (const ScanStats& u : unit_stats) {
    stats_.pages_visited += u.pages_visited;
    stats_.pages_skipped += u.pages_skipped;
    stats_.strides_skipped += u.strides_skipped;
    stats_.rows_matched += u.rows_matched;
    stats_.bloom_dropped += u.bloom_dropped;
    stats_.filter_skips += u.filter_skips;
  }
  GlobalExecInstruments().bloom_rows_dropped->Add(stats_.bloom_dropped -
                                                  dropped0);
  // A one-slot window passes to the consumer in the call that decoded it,
  // so the scan holds nothing between calls: only wider windows charge.
  window_bytes_ = 0;
  if (n <= 1) return Status::OK();
  int64_t held = 0;
  for (const RowBatch& slot : window_) held += BatchMemoryBytes(slot);
  Status charged = ChargeMemory(held, "column scan window");
  if (!charged.ok()) window_.clear();
  window_bytes_ = held;
  return charged;
}

// --------------------------------------------------------- CountStarScan --

CountStarScanOp::CountStarScanOp(std::shared_ptr<const ColumnTable> table,
                                 std::vector<ColumnPredicate> preds,
                                 ScanOptions opts, const std::string& out_name)
    : table_(std::move(table)), preds_(std::move(preds)), opts_(opts) {
  output_.push_back({out_name, TypeId::kInt64});
}

Status CountStarScanOp::OpenImpl() {
  done_ = false;
  stats_ = ScanStats{};
  return Status::OK();
}

Result<bool> CountStarScanOp::NextImpl(RowBatch* out) {
  if (done_) return false;
  DASHDB_ASSIGN_OR_RETURN(size_t count,
                          table_->CountRows(preds_, opts_, &stats_));
  InitBatchFor(output_, out);
  out->columns[0].AppendInt(static_cast<int64_t>(count));
  done_ = true;
  return true;
}

// --------------------------------------------------------------- RowScan --

RowScanOp::RowScanOp(std::shared_ptr<const RowTable> table,
                     std::vector<ColumnPredicate> preds,
                     std::vector<int> projection)
    : table_(std::move(table)),
      preds_(std::move(preds)),
      projection_(std::move(projection)) {
  for (int c : projection_) {
    output_.push_back(
        {table_->schema().column(c).name, table_->schema().column(c).type});
  }
}

Status RowScanOp::OpenImpl() {
  next_row_ = 0;
  return Status::OK();
}

Result<bool> RowScanOp::NextImpl(RowBatch* out) {
  while (next_row_ < table_->row_count()) {
    InitBatchFor(output_, out);
    uint64_t end = std::min<uint64_t>(next_row_ + kChunk, table_->row_count());
    DASHDB_RETURN_IF_ERROR(
        table_->ScanRange(next_row_, end, preds_, projection_, out, nullptr));
    next_row_ = end;
    if (out->num_rows() > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------- RowIndexScan --

RowIndexScanOp::RowIndexScanOp(std::shared_ptr<const RowTable> table,
                               int index_col, int64_t lo, int64_t hi,
                               std::vector<ColumnPredicate> residual,
                               std::vector<int> projection)
    : table_(std::move(table)),
      index_col_(index_col),
      lo_(lo),
      hi_(hi),
      residual_(std::move(residual)),
      projection_(std::move(projection)) {
  for (int c : projection_) {
    output_.push_back(
        {table_->schema().column(c).name, table_->schema().column(c).type});
  }
}

Status RowIndexScanOp::OpenImpl() {
  drained_ = false;
  InitBatchFor(output_, &buffer_);
  return table_->IndexScan(
      index_col_, lo_, hi_, residual_, projection_,
      [&](RowBatch& b, const std::vector<uint64_t>&) {
        AppendBatch(b, &buffer_);
      });
}

Result<bool> RowIndexScanOp::NextImpl(RowBatch* out) {
  if (drained_ || buffer_.num_rows() == 0) return false;
  *out = std::move(buffer_);
  InitBatchFor(output_, &buffer_);
  drained_ = true;
  return true;
}

// ---------------------------------------------------------------- Filter --

FilterOp::FilterOp(OperatorPtr child, ExprPtr pred, const ExecContext* ctx)
    : child_(std::move(child)), pred_(std::move(pred)), ctx_(ctx) {
  output_ = child_->output();
}

Status FilterOp::OpenImpl() {
  rows_in_ = 0;
  rows_passed_ = 0;
  sel_batches_ = 0;
  return child_->Open();
}

Result<bool> FilterOp::NextImpl(RowBatch* out) {
  RowBatch in;
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, child_->NextSel(&in));
    if (!more) return false;
    const size_t examined = in.logical_rows();
    DASHDB_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                            EvalFilter(*pred_, in, *ctx_));
    rows_in_ += examined;
    rows_passed_ += sel.size();
    if (examined > 0) {
      GlobalExecInstruments().filter_selectivity->Observe(
          static_cast<int64_t>(100 * sel.size() / examined));
    }
    if (sel.empty()) continue;
    // No row movement: the child's columns pass through untouched and the
    // qualifying rows ride along as a selection vector. Compaction happens
    // at the first selection-unaware consumer (Operator::Next) or blow-up
    // point, not here.
    ++sel_batches_;
    *out = std::move(in);
    out->selection =
        std::make_shared<const std::vector<uint32_t>>(std::move(sel));
    return true;
  }
}

std::string FilterOp::AnalyzeExtra() const {
  if (rows_in_ == 0) return std::string();
  char buf[64];
  std::snprintf(buf, sizeof(buf), " sel=%.1f%% sel-batches=%llu",
                100.0 * static_cast<double>(rows_passed_) /
                    static_cast<double>(rows_in_),
                static_cast<unsigned long long>(sel_batches_));
  return buf;
}

// --------------------------------------------------------------- Project --

ProjectOp::ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names, const ExecContext* ctx)
    : child_(std::move(child)), exprs_(std::move(exprs)), ctx_(ctx) {
  for (size_t i = 0; i < exprs_.size(); ++i) {
    output_.push_back({names[i], exprs_[i]->out_type()});
  }
}

Status ProjectOp::OpenImpl() { return child_->Open(); }

Result<bool> ProjectOp::NextImpl(RowBatch* out) {
  // Selection-aware: Evaluate() produces dense output over the selected
  // rows, so projection doubles as the compaction point — selected rows
  // are gathered exactly once, into the projected columns.
  RowBatch in;
  DASHDB_ASSIGN_OR_RETURN(bool more, child_->NextSel(&in));
  if (!more) return false;
  out->columns.clear();
  out->columns.reserve(exprs_.size());
  for (const auto& e : exprs_) {
    DASHDB_ASSIGN_OR_RETURN(ColumnVector cv, e->Evaluate(in, *ctx_));
    out->columns.push_back(std::move(cv));
  }
  return true;
}

// -------------------------------------------------------------- HashJoin --

HashJoinOp::HashJoinOp(OperatorPtr probe, OperatorPtr build,
                       std::vector<ExprPtr> probe_keys,
                       std::vector<ExprPtr> build_keys, JoinType type,
                       const ExecContext* ctx)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      type_(type),
      ctx_(ctx) {
  output_ = probe_->output();
  for (const auto& c : build_->output()) output_.push_back(c);
  window_ = std::make_unique<InputWindow>(this, probe_.get(), probe_keys_, ctx_,
                                          "hash join probe window");
}

HashJoinOp::~HashJoinOp() = default;

Status HashJoinOp::OpenImpl() {
  built_ = false;
  build_data_.columns.clear();
  build_key_cols_.clear();
  partitions_.clear();
  dense_ = DenseJoinIndex();
  fast_int_ = false;
  filter_installed_ = false;
  window_->Reset();
  joined_.clear();
  joined_next_ = 0;
  DASHDB_RETURN_IF_ERROR(probe_->Open());
  return build_->Open();
}

std::string HashJoinOp::label() const {
  std::string s = type_ == JoinType::kLeft ? "HashLeftJoin" : "HashJoin";
  s += "(keys=" + std::to_string(probe_keys_.size());
  if (ctx_->parallel()) {
    s += ", build-dop=" + std::to_string(ctx_->dop);
    s += ", probe-dop=" + std::to_string(ctx_->dop);
  }
  s += ")";
  return s;
}

std::string HashJoinOp::AnalyzeExtra() const {
  std::string s;
  if (built_) {
    s += dense_.range() > 0
             ? " index=dense range=" + std::to_string(dense_.range())
             : std::string(" index=hash");
  }
  if (filter_installed_) s += " bloom-pushdown=yes";
  return s + window_->FanoutExtra("probe-fanouts");
}

bool HashJoinOp::ParallelBuildEligible(size_t build_rows) const {
  return ctx_->parallel() && build_rows >= InputWindow::kParallelMinRows;
}

Status HashJoinOp::BuildSide() {
  InitBatchFor(build_->output(), &build_data_);
  constexpr int nparts = 1 << kPartitionBits;
  partitions_.resize(nparts);
  // Fast path detection: one integer-backed column-ref key on both sides.
  if (probe_keys_.size() == 1) {
    auto* pk = dynamic_cast<ColumnRefExpr*>(probe_keys_[0].get());
    auto* bk = dynamic_cast<ColumnRefExpr*>(build_keys_[0].get());
    if (pk && bk && IsIntegerBacked(pk->out_type()) &&
        IsIntegerBacked(bk->out_type())) {
      fast_int_ = true;
      probe_key_col_ = pk->index();
      build_key_col_ = bk->index();
    }
  }
  // Drain the build side first: cardinality is then known before any hash
  // table is sized, and the appended build_data_ batch becomes the single
  // input the (possibly parallel) partitioning phases read from. Batches
  // append column by column (selected rows gathered directly), in arrival
  // order, so build row ids are the child's row order.
  {
    RowBatch in;
    for (;;) {
      DASHDB_ASSIGN_OR_RETURN(bool more, build_->NextSel(&in));
      if (!more) break;
      AppendBatch(in, &build_data_);
    }
  }
  const size_t n = build_data_.num_rows();
  built_ = true;
  if (n == 0) return Status::OK();

  // Budget the materialized build side; the index built over it charges
  // its own bytes once built.
  DASHDB_RETURN_IF_ERROR(
      ChargeMemory(BatchMemoryBytes(build_data_), "hash join build"));
  DASHDB_ASSIGN_OR_RETURN(bool dense, BuildDense());
  if (dense) {
    InstallProbeFilter();
    return Status::OK();
  }

  // Generic path: evaluate every build key column once over the drained
  // batch. The per-row std::vector<Value> materialization the old table
  // layout needed is gone — equality checks read the columns directly.
  if (!fast_int_) {
    build_key_cols_.reserve(build_keys_.size());
    for (const auto& k : build_keys_) {
      DASHDB_ASSIGN_OR_RETURN(ColumnVector cv,
                              k->Evaluate(build_data_, *ctx_));
      build_key_cols_.push_back(std::move(cv));
    }
  }

  const bool parallel = ParallelBuildEligible(n);
  auto run = [&](size_t count, const std::function<void(size_t)>& f) {
    if (parallel) {
      RunOnPool(ctx_->pool, count, f, ctx_->dop);
    } else {
      for (size_t i = 0; i < count; ++i) f(i);
    }
  };

  // Phase 1 — per-row partition assignment (rows are independent): hashing
  // and the radix digit. -1 marks NULL keys, which never join and stay out
  // of the tables. Hashes are kept for the flat tables and Bloom filters.
  std::vector<int32_t> part_of(n);
  std::vector<uint64_t> hash_of(n);
  const ColumnVector* key_col =
      fast_int_ ? &build_data_.columns[build_key_col_] : nullptr;
  if (fast_int_) {
    run(n, [&](size_t r) {
      if (key_col->IsNull(r)) {
        part_of[r] = -1;
        return;
      }
      uint64_t h = HashInt64(static_cast<uint64_t>(key_col->GetInt(r)));
      hash_of[r] = h;
      part_of[r] = static_cast<int32_t>((h >> 32) & (nparts - 1));
    });
  } else {
    run(n, [&](size_t r) {
      uint64_t h = 0;
      bool has_null = false;
      for (const auto& kc : build_key_cols_) {
        has_null |= kc.IsNull(r);
        h = HashCombine(h, HashCell(kc, r));
      }
      hash_of[r] = h;
      part_of[r] =
          has_null ? -1 : static_cast<int32_t>((h >> 32) & (nparts - 1));
    });
  }

  // A governed ParallelFor abandons its tail on cancel/timeout, so phase 1
  // may have left rows unassigned — re-probe before trusting its output.
  DASHDB_RETURN_IF_ERROR(CheckQueryAlive());

  // Phase 2 — counting sort of row ids by partition (serial, O(n)).
  std::vector<uint32_t> offsets(nparts + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    if (part_of[r] >= 0) ++offsets[part_of[r] + 1];
  }
  for (int p = 0; p < nparts; ++p) offsets[p + 1] += offsets[p];
  std::vector<uint32_t> rows(offsets[nparts]);
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      if (part_of[r] >= 0) rows[cursor[part_of[r]]++] = static_cast<uint32_t>(r);
    }
  }

  // Phase 3 — per-partition table construction: the radix partitions are
  // independent, so they fan out across the pool. Rows insert in ascending
  // row order within each partition — the same sequence the serial build
  // used — so duplicate chains (and join output order) are unchanged.
  run(static_cast<size_t>(nparts), [&](size_t p) {
    Partition& part = partitions_[p];
    const size_t rows_in_p = offsets[p + 1] - offsets[p];
    part.table.Reserve(rows_in_p);
    part.bloom.Init(rows_in_p);
    for (uint32_t idx = offsets[p]; idx < offsets[p + 1]; ++idx) {
      uint32_t r = rows[idx];
      uint64_t key = fast_int_
                         ? static_cast<uint64_t>(key_col->GetInt(r))
                         : hash_of[r];
      part.table.Insert(key, hash_of[r], r);
      part.bloom.Add(hash_of[r]);
    }
  });
  DASHDB_RETURN_IF_ERROR(CheckQueryAlive());
  int64_t index_bytes = 0;
  for (const Partition& part : partitions_) {
    index_bytes += static_cast<int64_t>(part.table.ByteSize() +
                                        part.bloom.ByteSize());
  }
  DASHDB_RETURN_IF_ERROR(ChargeMemory(index_bytes, "hash join index"));
  InstallProbeFilter();
  return Status::OK();
}

Result<bool> HashJoinOp::BuildDense() {
  if (!fast_int_) return false;
  const ColumnVector& kc = build_data_.columns[build_key_col_];
  const size_t n = kc.size();
  const int64_t* keys = kc.ints().data();
  const bool nulls = kc.has_nulls();
  int64_t lo = 0;
  const uint64_t range = DenseRangeOf(kc, &lo);
  if (range == 0) return false;
  dense_.Init(lo, range, n);
  DASHDB_RETURN_IF_ERROR(
      ChargeMemory(static_cast<int64_t>(dense_.ByteSize()), "hash join index"));
  // Descending row order, so each key's chain ascends as in FlatJoinIndex.
  for (size_t r = n; r-- > 0;) {
    if (nulls && kc.IsNull(r)) continue;
    dense_.PushFront(keys[r], static_cast<uint32_t>(r));
  }
  return true;
}

void HashJoinOp::InstallProbeFilter() {
  // Scan-side semi-join pushdown: the build is complete and the probe side
  // has not been pulled yet, so a filter over the (single) build key column
  // can still land on the probe-side scan before it runs. Its keys are raw
  // key cells, independent of the multi-key HashCombine chain the join
  // tables use.
  if (filter_target_ == nullptr || type_ != JoinType::kInner ||
      build_keys_.size() != 1) {
    return;
  }
  const ColumnVector& bc = fast_int_ ? build_data_.columns[build_key_col_]
                                     : build_key_cols_[0];
  filter_installed_ = filter_target_->AcceptRuntimeFilter(MakeRuntimeFilter(
      filter_target_col_, bc, probe_keys_[0]->out_type()));
}

bool HashJoinOp::KeysEqual(
    const std::vector<const ColumnVector*>& probe_key_cols, size_t probe_row,
    uint32_t build_row) const {
  for (size_t i = 0; i < build_key_cols_.size(); ++i) {
    const ColumnVector& pc = *probe_key_cols[i];
    const ColumnVector& bc = build_key_cols_[i];
    if (pc.IsNull(probe_row) || bc.IsNull(build_row)) return false;
    if (!CellsEqual(pc, probe_row, bc, build_row)) return false;
  }
  return true;
}

Result<bool> HashJoinOp::NextImpl(RowBatch* out) {
  if (!built_) DASHDB_RETURN_IF_ERROR(BuildSide());
  for (;;) {
    while (joined_next_ < joined_.size()) {
      RowBatch& joined = joined_[joined_next_++];
      if (joined.num_rows() > 0) {
        *out = std::move(joined);
        return true;
      }
    }
    // The consumer has taken every batch of the previous window.
    DASHDB_ASSIGN_OR_RETURN(bool more, window_->Fill());
    if (!more) return false;
    joined_.assign(window_->morsels().size(), RowBatch());
    joined_next_ = 0;
    DASHDB_RETURN_IF_ERROR(window_->Run(
        joined_.size(), [this](size_t m) { ProbeMorsel(m, &joined_[m]); }));
    int64_t bytes = 0;
    for (const RowBatch& b : joined_) bytes += BatchMemoryBytes(b);
    DASHDB_RETURN_IF_ERROR(window_->Hold(bytes));
  }
}

namespace {

/// The join's (probe row, build row) pairs, one per output row: the first
/// `size` entries of the two lists. Written by index, not push_back, so the
/// match loop carries one capacity check per pair.
struct JoinPairs {
  explicit JoinPairs(size_t capacity)
      : probe_rows(capacity), build_rows(capacity) {}
  void Add(uint32_t probe_row, uint32_t build_row) {
    if (size == probe_rows.size()) {
      probe_rows.resize(2 * size + 16);
      build_rows.resize(2 * size + 16);
    }
    probe_rows[size] = probe_row;
    build_rows[size] = build_row;
    ++size;
  }
  std::vector<uint32_t> probe_rows, build_rows;
  size_t size = 0;
  bool misses = false;  ///< some build_rows entry is kNullRow
};

/// The match phase over a morsel's logical rows [lo, lo + nrows), for
/// either join index: `for_each_match(j, emit)` calls emit(build_row) for
/// every build row matching logical row lo + j, in chain order. Pairs come
/// out in probe order; a LEFT-join miss pairs with kNullRow.
template <typename ForEachMatch>
JoinPairs MatchRows(const RowBatch& in, size_t lo, size_t nrows,
                    JoinType type, const ForEachMatch& for_each_match) {
  JoinPairs pairs(nrows);
  for (size_t j = 0; j < nrows; ++j) {
    const uint32_t r = static_cast<uint32_t>(in.row_at(lo + j));
    const size_t matched_before = pairs.size;
    for_each_match(j, [&](uint32_t brow) { pairs.Add(r, brow); });
    if (type == JoinType::kLeft && pairs.size == matched_before) {
      pairs.Add(r, ColumnVector::kNullRow);
      pairs.misses = true;
    }
  }
  return pairs;
}

}  // namespace

void HashJoinOp::ProbeMorsel(size_t m, RowBatch* out) const {
  const InputWindow::Batch& batch = window_->batch(m);
  const InputWindow::Morsel& morsel = window_->morsels()[m];
  const RowBatch& in = batch.in;
  // Selection-aware: `i` walks the morsel's logical (selected) rows, which
  // index the window's key columns directly; in.row_at(i) maps to the
  // dense row for the gather. The join output is a blow-up point, so
  // qualifying probe rows are gathered here exactly once — never
  // compacted upstream.
  const size_t lo = morsel.begin, nrows = morsel.end - morsel.begin;

  JoinPairs pairs(0);
  if (dense_.range() > 0) {
    // Direct address: the key's offset from the build minimum is its slot.
    const ColumnVector* kc = batch.cols[0];
    const int64_t* keys = kc->ints().data();
    const bool nulls = kc->has_nulls();
    pairs = MatchRows(in, lo, nrows, type_, [&](size_t j, auto&& emit) {
      if (nulls && kc->IsNull(lo + j)) return;
      for (int32_t cur = dense_.Find(keys[lo + j]);
           cur != DenseJoinIndex::kNone; cur = dense_.Next(cur)) {
        emit(dense_.Row(cur));
      }
    });
  } else {
    // Hash every key column in one column-major pass, instead of boxing a
    // std::vector<Value> per probe row. Arrays are indexed by i - lo.
    std::vector<uint64_t> probe_hash(nrows, 0);
    std::vector<uint8_t> probe_null(nrows, 0);
    const ColumnVector* fast_kc = fast_int_ ? batch.cols[0] : nullptr;
    if (fast_int_) {
      for (size_t j = 0; j < nrows; ++j) {
        if (fast_kc->IsNull(lo + j)) {
          probe_null[j] = 1;
        } else {
          probe_hash[j] =
              HashInt64(static_cast<uint64_t>(fast_kc->GetInt(lo + j)));
        }
      }
    } else {
      for (const ColumnVector* kc : batch.cols) {
        for (size_t j = 0; j < nrows; ++j) {
          probe_null[j] |= kc->IsNull(lo + j) ? 1 : 0;
          probe_hash[j] = HashCombine(probe_hash[j], HashCell(*kc, lo + j));
        }
      }
    }
    auto partition = [&](uint64_t h) -> const Partition& {
      return partitions_[(h >> 32) & ((1u << kPartitionBits) - 1)];
    };
    constexpr size_t kPrefetchDist = 8;
    pairs = MatchRows(in, lo, nrows, type_, [&](size_t j, auto&& emit) {
      // Overlap the next rows' filter-word and slot misses with this row's
      // work; all addresses derive from the already-batched hashes.
      if (j + kPrefetchDist < nrows && !probe_null[j + kPrefetchDist]) {
        const uint64_t ph = probe_hash[j + kPrefetchDist];
        partition(ph).bloom.Prefetch(ph);
        partition(ph).table.Prefetch(ph);
      }
      if (probe_null[j]) return;
      const uint64_t h = probe_hash[j];
      const Partition& part = partition(h);
      // Bloom prefilter: most probe misses reject on one or two cache
      // lines of filter words without ever touching the table.
      if (!part.bloom.MayContain(h)) return;
      const uint64_t key =
          fast_int_ ? static_cast<uint64_t>(fast_kc->GetInt(lo + j)) : h;
      for (int32_t cur = part.table.Find(key, h); cur != FlatJoinIndex::kNone;
           cur = part.table.Next(cur)) {
        const uint32_t brow = part.table.Row(cur);
        if (!fast_int_ && !KeysEqual(batch.cols, lo + j, brow)) continue;
        emit(brow);
      }
    });
  }

  // Gather phase: the output, column by column.
  InitBatchFor(output_, out);
  const size_t k = pairs.size;
  const size_t probe_cols = in.columns.size();
  for (size_t c = 0; c < probe_cols; ++c) {
    out->columns[c].Gather(in.columns[c], pairs.probe_rows.data(), k);
  }
  for (size_t c = 0; c < build_data_.columns.size(); ++c) {
    ColumnVector& dst = out->columns[probe_cols + c];
    if (pairs.misses) {
      dst.GatherOrNull(build_data_.columns[c], pairs.build_rows.data(), k);
    } else {
      dst.Gather(build_data_.columns[c], pairs.build_rows.data(), k);
    }
  }
}

// -------------------------------------------------------- NestedLoopJoin --

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr condition, JoinType type,
                                   const ExecContext* ctx)
    : left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      type_(type),
      ctx_(ctx) {
  output_ = left_->output();
  for (const auto& c : right_->output()) output_.push_back(c);
}

Status NestedLoopJoinOp::OpenImpl() {
  built_ = false;
  DASHDB_RETURN_IF_ERROR(left_->Open());
  return right_->Open();
}

Result<bool> NestedLoopJoinOp::NextImpl(RowBatch* out) {
  if (!built_) {
    DASHDB_ASSIGN_OR_RETURN(right_data_, DrainOperator(right_.get()));
    DASHDB_RETURN_IF_ERROR(
        ChargeMemory(BatchMemoryBytes(right_data_), "nested-loop inner"));
    built_ = true;
  }
  RowBatch in;
  const size_t left_cols = left_->output().size();
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
    if (!more) return false;
    InitBatchFor(output_, out);
    for (size_t l = 0; l < in.num_rows(); ++l) {
      bool matched = false;
      for (size_t r = 0; r < right_data_.num_rows(); ++r) {
        bool ok = true;
        if (condition_) {
          // Evaluate condition on the (l, r) pair via a tiny assembled batch.
          RowBatch one;
          InitBatchFor(output_, &one);
          AppendRowFrom(in, l, &one);
          for (size_t c = 0; c < right_data_.columns.size(); ++c) {
            one.columns[left_cols + c].AppendFrom(right_data_.columns[c], r);
          }
          DASHDB_ASSIGN_OR_RETURN(Value v,
                                  condition_->EvaluateRow(one, 0, *ctx_));
          ok = !v.is_null() && v.AsBool();
        }
        if (!ok) continue;
        matched = true;
        AppendRowFrom(in, l, out);
        for (size_t c = 0; c < right_data_.columns.size(); ++c) {
          out->columns[left_cols + c].AppendFrom(right_data_.columns[c], r);
        }
      }
      if (!matched && type_ == JoinType::kLeft) {
        AppendRowFrom(in, l, out);
        for (size_t c = 0; c < right_data_.columns.size(); ++c) {
          out->columns[left_cols + c].AppendNull();
        }
      }
    }
    if (out->num_rows() > 0) return true;
  }
}

// --------------------------------------------------------------- HashAgg --

namespace {
/// Merge shard of a group hash, from its high half: the shard tables
/// bucket on the low bits, which must stay spread within a shard.
size_t PartitionOfHash(uint64_t h, size_t parts) {
  return static_cast<size_t>(((h >> 32) * parts) >> 32);
}
}  // namespace

HashAggOp::HashAggOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                     std::vector<std::string> group_names,
                     std::vector<AggSpec> aggs,
                     std::vector<std::string> agg_names,
                     const ExecContext* ctx)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    output_.push_back({group_names[i], group_exprs_[i]->out_type()});
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    output_.push_back({agg_names[i], aggs_[i].out_type});
  }
  // Window columns: the group keys, then every aggregate argument.
  std::vector<ExprPtr> exprs = group_exprs_;
  auto column_of = [&exprs](const ExprPtr& e) {
    if (!e) return -1;
    exprs.push_back(e);
    return static_cast<int>(exprs.size()) - 1;
  };
  for (const AggSpec& a : aggs_) {
    arg_col_.push_back(column_of(a.arg));
    arg2_col_.push_back(column_of(a.arg2));
  }
  int_key_ = group_exprs_.size() == 1 &&
             IsIntegerBacked(group_exprs_[0]->out_type());
  columnar_ = std::all_of(aggs_.begin(), aggs_.end(), AggColumn::Supports);
  // DISTINCT states dedup per partial and cannot merge across partials.
  if (ctx_->parallel()) lanes_ = static_cast<size_t>(ctx_->dop);
  for (const AggSpec& a : aggs_) {
    if (!AggState::CanMergeParallel(a)) lanes_ = 1;
  }
  window_ = std::make_unique<InputWindow>(this, child_.get(), std::move(exprs),
                                          ctx_, "group-by input window");
}

HashAggOp::~HashAggOp() = default;

Status HashAggOp::OpenImpl() {
  done_ = false;
  materialized_ = false;
  window_->Reset();
  partials_.clear();
  ReleaseMemory(table_bytes_);
  table_bytes_ = 0;
  return child_->Open();
}

std::string HashAggOp::label() const {
  std::string s = "HashAggregate(groups=" + std::to_string(group_exprs_.size()) +
                  ", aggs=" + std::to_string(aggs_.size());
  if (lanes_ > 1) s += ", dop=" + std::to_string(lanes_);
  s += ")";
  return s;
}

std::string HashAggOp::AnalyzeExtra() const {
  std::string s = window_->FanoutExtra("fanouts");
  if (materialized_) {
    s += direct_ids_ ? " ids=direct" : " ids=hash";
    s += columnar_ ? " states=columnar" : " states=boxed";
  }
  return s;
}

int64_t HashAggOp::Partial::MemoryBytes() const {
  size_t bytes = ints.MemoryBytes() + 2 * keys.MemoryBytes() +
                 first.size() * sizeof(uint64_t) +
                 states.size() * sizeof(AggState);
  for (const AggColumn& c : cols) bytes += groups() * c.BytesPerGroup();
  return static_cast<int64_t>(bytes);
}

HashAggOp::Partial HashAggOp::NewPartial() const {
  Partial p;
  if (columnar_) {
    for (const AggSpec& a : aggs_) p.cols.emplace_back(a);
  }
  return p;
}

void HashAggOp::Consume(size_t m, Partial* p) {
  const InputWindow::Batch& b = window_->batch(m);
  const size_t lo = window_->morsels()[m].begin;
  const size_t n = window_->morsels()[m].end - lo;
  const size_t A = aggs_.size();
  auto new_group = [&](size_t j) {
    p->first.push_back(b.first_row + lo + j);
    if (columnar_) {
      for (AggColumn& c : p->cols) c.AddGroup();
    } else {
      for (const AggSpec& a : aggs_) p->states.emplace_back(&a);
    }
  };
  // Phase 1: a group id per row; new groups append in first-seen order.
  p->gids.resize(n);
  uint32_t* gids = p->gids.data();
  bool inserted = false;
  if (int_key_) {
    // Keys read straight off the payload; the NULL test runs only when the
    // key column has NULLs.
    const ColumnVector& kc = *b.cols[0];
    const int64_t* keys = kc.ints().data() + lo;
    const bool nulls = kc.has_nulls();
    for (size_t j = 0; j < n; ++j) {
      gids[j] = nulls && kc.IsNull(lo + j)
                    ? p->ints.FindOrInsertNull(&inserted)
                    : p->ints.FindOrInsert(keys[j], &inserted);
      if (inserted) new_group(j);
    }
  } else if (group_exprs_.empty()) {
    // Global aggregate: one group under the empty key.
    if (p->groups() == 0) {
      p->keys.FindOrInsert(
          reinterpret_cast<const uint8_t*>(p->scratch.data()), 0,
          HashBytesFast(p->scratch.data(), 0), &inserted);
      new_group(0);
    }
    std::fill(gids, gids + n, 0);
  } else {
    // Keys intern as their normalized sort-key bytes (equal keys encode
    // identically); each group keeps its key cells for the output.
    if (p->key_rows.columns.empty()) {
      for (size_t c = 0; c < group_exprs_.size(); ++c) {
        p->key_rows.columns.emplace_back(b.cols[c]->type());
      }
    }
    for (size_t j = 0; j < n; ++j) {
      p->scratch.clear();
      for (size_t c = 0; c < group_exprs_.size(); ++c) {
        AppendNormalizedCell(*b.cols[c], lo + j, false, &p->scratch);
      }
      gids[j] = p->keys.FindOrInsert(
          reinterpret_cast<const uint8_t*>(p->scratch.data()),
          p->scratch.size(),
          HashBytesFast(p->scratch.data(), p->scratch.size()), &inserted);
      if (!inserted) continue;
      new_group(j);
      for (size_t c = 0; c < group_exprs_.size(); ++c) {
        p->key_rows.columns[c].AppendFrom(*b.cols[c], lo + j);
      }
    }
  }
  // Phase 2: each aggregate folds its argument column into the states: a
  // typed loop per state column, else a typed loop over AggStates for a
  // numeric payload, boxed Values otherwise.
  if (columnar_) {
    for (size_t a = 0; a < A; ++a) {
      p->cols[a].Fold(gids, arg_col_[a] < 0 ? nullptr : b.cols[arg_col_[a]],
                      lo, n);
    }
    return;
  }
  for (size_t a = 0; a < A; ++a) {
    AggState* st = p->states.data() + a;
    const AggSpec& spec = aggs_[a];
    if (spec.kind == AggKind::kCountStar) {
      for (size_t j = 0; j < n; ++j) st[gids[j] * A].AddCountStarFast();
      continue;
    }
    const ColumnVector* x = arg_col_[a] < 0 ? nullptr : b.cols[arg_col_[a]];
    const ColumnVector* y = arg2_col_[a] < 0 ? nullptr : b.cols[arg2_col_[a]];
    const bool typed = x != nullptr && y == nullptr && !spec.distinct &&
                       spec.kind != AggKind::kCovarPop &&
                       spec.kind != AggKind::kCovarSamp &&
                       x->type() != TypeId::kVarchar;
    if (typed) {
      AggState::Fold(st, A, gids, *x, lo, n);
      continue;
    }
    const Value none = Value::Null(TypeId::kInt64);
    for (size_t j = 0; j < n; ++j) {
      st[gids[j] * A].Add(x ? x->GetValue(lo + j) : none,
                          y ? y->GetValue(lo + j) : none);
    }
  }
}

void HashAggOp::MergeGroup(Partial* src, uint32_t g, Partial* dst) {
  bool inserted = false;
  uint32_t id;
  if (int_key_) {
    id = src->ints.IsNull(g)
             ? dst->ints.FindOrInsertNull(&inserted)
             : dst->ints.FindOrInsert(src->ints.KeyOf(g), &inserted);
  } else {
    id = dst->keys.FindOrInsert(src->keys.KeyData(g), src->keys.KeyLen(g),
                                src->keys.HashOf(g), &inserted);
  }
  const size_t A = aggs_.size();
  AggState* from = columnar_ ? nullptr : src->states.data() + g * A;
  if (inserted) {
    if (!int_key_) {
      if (dst->key_rows.columns.empty()) {
        for (const ColumnVector& c : src->key_rows.columns) {
          dst->key_rows.columns.emplace_back(c.type());
        }
      }
      AppendRowFrom(src->key_rows, g, &dst->key_rows);
    }
    dst->first.push_back(src->first[g]);
    for (size_t a = 0; a < A; ++a) {
      if (columnar_) {
        dst->cols[a].AppendGroup(src->cols[a], g);
      } else {
        dst->states.push_back(std::move(from[a]));
      }
    }
    return;
  }
  dst->first[id] = std::min(dst->first[id], src->first[g]);
  for (size_t a = 0; a < A; ++a) {
    if (columnar_) {
      dst->cols[a].MergeGroup(src->cols[a], g, id);
    } else {
      dst->states[id * A + a].Merge(from[a]);
    }
  }
}

Status HashAggOp::Merge(std::vector<RowBatch>* outs,
                        std::vector<std::vector<uint64_t>>* firsts) {
  size_t total = 0;
  for (const Partial& p : partials_) total += p.groups();
  // Shard s owns the keys whose hash lands in partition s, so shards build
  // without locks; each partial group is read (its states moved) by one
  // shard. A few groups merge into one shard inline.
  const size_t M = total >= InputWindow::kParallelMinRows ? lanes_ : 1;
  outs->resize(M);
  firsts->resize(M);
  auto merge_shard = [&](size_t s) {
    Partial dst = NewPartial();
    for (Partial& src : partials_) {
      for (uint32_t g = 0; g < src.groups(); ++g) {
        const uint64_t h =
            !int_key_ ? src.keys.HashOf(g)
            : src.ints.IsNull(g)
                ? 0
                : HashInt64(static_cast<uint64_t>(src.ints.KeyOf(g)));
        if (PartitionOfHash(h, M) == s) MergeGroup(&src, g, &dst);
      }
    }
    std::vector<uint32_t> order(dst.groups());
    for (uint32_t g = 0; g < order.size(); ++g) order[g] = g;
    std::sort(order.begin(), order.end(), [&dst](uint32_t a, uint32_t b) {
      return dst.first[a] < dst.first[b];
    });
    InitBatchFor(output_, &(*outs)[s]);
    AppendGroups(dst, order.data(), order.size(), &(*outs)[s]);
    (*firsts)[s].reserve(order.size());
    for (uint32_t g : order) (*firsts)[s].push_back(dst.first[g]);
  };
  if (M == 1) {
    merge_shard(0);
    return Status::OK();
  }
  RunOnPool(ctx_->pool, M, merge_shard, ctx_->dop);
  // The partials are large exactly when the merge fans out; free them on
  // the pool too.
  RunOnPool(
      ctx_->pool, partials_.size(),
      [this](size_t w) { partials_[w] = Partial(); }, ctx_->dop);
  return CheckQueryAlive();
}

void HashAggOp::AppendGroups(const Partial& p, const uint32_t* order,
                             size_t n, RowBatch* out) {
  auto group = [order](size_t k) {
    return order != nullptr ? order[k] : static_cast<uint32_t>(k);
  };
  const size_t G = group_exprs_.size();
  for (size_t c = 0; c < G; ++c) {
    ColumnVector& col = out->columns[c];
    col.Reserve(col.size() + n);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t g = group(k);
      if (!int_key_) {
        col.AppendFrom(p.key_rows.columns[c], g);
      } else if (p.ints.IsNull(g)) {
        col.AppendNull();
      } else {
        col.AppendInt(p.ints.KeyOf(g));
      }
    }
  }
  const size_t A = aggs_.size();
  for (size_t a = 0; a < A; ++a) {
    ColumnVector& col = out->columns[G + a];
    if (columnar_) {
      p.cols[a].Finish(order, n, &col);
      continue;
    }
    for (size_t k = 0; k < n; ++k) {
      col.AppendValue(p.states[group(k) * A + a].Finish());
    }
  }
}

Status HashAggOp::Materialize() {
  partials_.clear();
  for (size_t w = 0; w < lanes_; ++w) partials_.push_back(NewPartial());
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, window_->Fill());
    if (!more) break;
    const size_t n = window_->morsels().size();
    DASHDB_RETURN_IF_ERROR(window_->Run(lanes_, [&](size_t w) {
      for (size_t m = w; m < n; m += lanes_) Consume(m, &partials_[w]);
    }));
    int64_t bytes = 0;
    for (const Partial& p : partials_) bytes += p.MemoryBytes();
    if (bytes > table_bytes_) {
      DASHDB_RETURN_IF_ERROR(
          ChargeMemory(bytes - table_bytes_, "group-by table"));
    } else {
      ReleaseMemory(table_bytes_ - bytes);
    }
    table_bytes_ = bytes;
  }
  direct_ids_ = int_key_;
  for (const Partial& p : partials_) direct_ids_ = direct_ids_ && p.ints.direct();
  InitBatchFor(output_, &result_);
  if (partials_.size() == 1) {
    // One partial is already in first-appearance order.
    AppendGroups(partials_[0], nullptr, partials_[0].groups(), &result_);
  } else {
    std::vector<RowBatch> outs;
    std::vector<std::vector<uint64_t>> firsts;
    DASHDB_RETURN_IF_ERROR(Merge(&outs, &firsts));
    // Shards interleave by first appearance.
    std::vector<size_t> pos(outs.size(), 0);
    for (;;) {
      size_t best = outs.size();
      for (size_t s = 0; s < outs.size(); ++s) {
        if (pos[s] < firsts[s].size() &&
            (best == outs.size() ||
             firsts[s][pos[s]] < firsts[best][pos[best]])) {
          best = s;
        }
      }
      if (best == outs.size()) break;
      for (size_t c = 0; c < result_.columns.size(); ++c) {
        result_.columns[c].AppendFrom(outs[best].columns[c], pos[best]);
      }
      ++pos[best];
    }
  }
  partials_.clear();
  // Global aggregation with no groups must yield one row even on empty input.
  if (group_exprs_.empty() && result_.num_rows() == 0) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      result_.columns[a].AppendValue(AggState(&aggs_[a]).Finish());
    }
  }
  DASHDB_RETURN_IF_ERROR(
      ChargeMemory(BatchMemoryBytes(result_), "group-by result"));
  materialized_ = true;
  return Status::OK();
}

Result<bool> HashAggOp::NextImpl(RowBatch* out) {
  if (!materialized_) DASHDB_RETURN_IF_ERROR(Materialize());
  if (done_) return false;
  *out = std::move(result_);
  done_ = true;
  return out->num_rows() > 0 || !out->columns.empty();
}

// SortOp / TopNOp live in exec/sort.cc (parallel sort subsystem).

// ----------------------------------------------------------------- Limit --

LimitOp::LimitOp(OperatorPtr child, int64_t limit, int64_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {
  output_ = child_->output();
}

Status LimitOp::OpenImpl() {
  skipped_ = 0;
  emitted_ = 0;
  child_pulls_ = 0;
  done_ = limit_ == 0;  // LIMIT 0 never pulls the child at all
  return child_->Open();
}

Result<bool> LimitOp::NextImpl(RowBatch* out) {
  if (done_) return false;
  RowBatch in;
  for (;;) {
    ++child_pulls_;
    DASHDB_ASSIGN_OR_RETURN(bool more, child_->NextSel(&in));
    if (!more) {
      done_ = true;
      return false;
    }
    InitBatchFor(output_, out);
    const size_t lrows = in.logical_rows();
    for (size_t i = 0; i < lrows; ++i) {
      if (skipped_ < offset_) {
        ++skipped_;
        continue;
      }
      if (limit_ >= 0 && emitted_ >= limit_) break;
      AppendRowFrom(in, in.row_at(i), out);
      ++emitted_;
    }
    // Latch completion the moment the limit is met: no later NextImpl may
    // touch the child again (verified by child_pulls() in tests).
    if (limit_ >= 0 && emitted_ >= limit_) {
      done_ = true;
      GlobalExecInstruments().limit_early_stops->Add(1);
    }
    if (out->num_rows() > 0) return true;
    if (done_) return false;
  }
}

std::string LimitOp::AnalyzeExtra() const {
  return " pulls=" + std::to_string(child_pulls_);
}

// ---------------------------------------------------------------- Values --

ValuesOp::ValuesOp(RowBatch batch, std::vector<OutputCol> cols)
    : batch_(std::move(batch)) {
  output_ = std::move(cols);
}

Status ValuesOp::OpenImpl() {
  done_ = false;
  return Status::OK();
}

Result<bool> ValuesOp::NextImpl(RowBatch* out) {
  if (done_) return false;
  *out = batch_;
  done_ = true;
  return true;
}

// -------------------------------------------------------------- UnionAll --

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  output_ = children_.front()->output();
}

Status UnionAllOp::OpenImpl() {
  current_ = 0;
  for (auto& c : children_) DASHDB_RETURN_IF_ERROR(c->Open());
  return Status::OK();
}

Result<bool> UnionAllOp::NextImpl(RowBatch* out) {
  while (current_ < children_.size()) {
    DASHDB_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(out));
    if (more) return true;
    ++current_;
  }
  return false;
}

// ---------------------------------------------------------- Materialized --

MaterializedOp::MaterializedOp(OperatorPtr child, RowBatch data)
    : child_(std::move(child)), data_(std::move(data)) {
  output_ = child_->output();
}

Status MaterializedOp::OpenImpl() {
  // The child was already drained by the assembler; re-opening it would
  // re-execute the relation. Only the emit state resets.
  done_ = false;
  return Status::OK();
}

Result<bool> MaterializedOp::NextImpl(RowBatch* out) {
  if (done_ || data_.num_rows() == 0) return false;
  *out = data_;
  done_ = true;
  return true;
}

// ---------------------------------------------------------- AdaptiveJoin --

AdaptiveJoinOp::AdaptiveJoinOp(std::vector<OperatorPtr> sources,
                               std::vector<AdaptiveJoinEdge> edges,
                               std::vector<double> source_est_rows,
                               const ExecContext* ctx)
    : sources_(std::move(sources)),
      edges_(std::move(edges)),
      source_est_rows_(std::move(source_est_rows)),
      ctx_(ctx) {
  for (const auto& s : sources_) {
    for (const auto& c : s->output()) output_.push_back(c);
  }
}

std::string AdaptiveJoinOp::label() const {
  return "AdaptiveJoin(sources=" + std::to_string(sources_.size()) +
         " edges=" + std::to_string(edges_.size()) + ")";
}

std::vector<const Operator*> AdaptiveJoinOp::children() const {
  if (assembled_) return {chain_.get()};
  std::vector<const Operator*> out;
  for (const auto& s : sources_) out.push_back(s.get());
  return out;
}

std::string AdaptiveJoinOp::AnalyzeExtra() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " replans=%llu blooms=%llu",
                static_cast<unsigned long long>(replans_),
                static_cast<unsigned long long>(blooms_));
  return buf;
}

Status AdaptiveJoinOp::OpenImpl() {
  // Assembly is deferred to the first Next so Open stays cheap (EXPLAIN
  // opens nothing). A re-open after assembly re-opens the built chain;
  // materialized relations replay their captured batches.
  if (assembled_) return chain_->Open();
  return Status::OK();
}

Status AdaptiveJoinOp::Assemble() {
  const int n = static_cast<int>(sources_.size());
  const double kReplanLogThreshold = std::log2(10.0);

  // Per-item output widths and FROM-order offsets, captured before the
  // sources are moved into the chain.
  std::vector<int> item_width(n, 0), from_off(n, 0);
  for (int i = 0, off = 0; i < n; ++i) {
    item_width[i] = static_cast<int>(sources_[i]->output().size());
    from_off[i] = off;
    off += item_width[i];
  }

  std::vector<JoinRelation> rels(n);
  for (int i = 0; i < n; ++i) rels[i].rows = source_est_rows_[i];
  std::vector<JoinGraphEdge> graph;
  graph.reserve(edges_.size());
  for (const auto& e : edges_) {
    graph.push_back({e.left_item, e.right_item, e.left_ndv, e.right_ndv});
  }

  std::vector<int> order = OrderJoins(rels, graph);

  // Materialize every non-driving relation in join order, observing true
  // cardinalities as we go. A >10x mis-estimate with joins still ahead
  // re-plans the remaining suffix using the observed counts.
  std::vector<RowBatch> mat(n);
  const int driver = order[0];
  for (size_t k = 1; k < order.size(); ++k) {
    const int r = order[k];
    DASHDB_ASSIGN_OR_RETURN(mat[r], DrainOperator(sources_[r].get()));
    DASHDB_RETURN_IF_ERROR(
        ChargeMemory(BatchMemoryBytes(mat[r]), "adaptive join materialize"));
    const double observed = static_cast<double>(mat[r].num_rows());
    const double est = std::max(0.0, rels[r].rows);
    rels[r].rows = observed;
    if (k + 1 < order.size()) {
      const double err = std::fabs(std::log2((observed + 1) / (est + 1)));
      if (err > kReplanLogThreshold) {
        std::vector<int> prefix(order.begin(), order.begin() + k + 1);
        order = OrderJoins(rels, graph, prefix);
        ++replans_;
        GlobalExecInstruments().adaptive_replans->Add(1);
      }
    }
  }

  // Semi-join reduction: each materialized relation with an edge straight
  // to the driving relation pushes a Bloom filter of its key column into
  // the driving scan before that scan runs.
  for (const auto& e : edges_) {
    int mat_item = -1, mat_col = -1, drv_col = -1;
    if (e.left_item == driver && e.right_item != driver) {
      mat_item = e.right_item;
      mat_col = e.right_col;
      drv_col = e.left_col;
    } else if (e.right_item == driver && e.left_item != driver) {
      mat_item = e.left_item;
      mat_col = e.left_col;
      drv_col = e.right_col;
    } else {
      continue;
    }
    const RowBatch& b = mat[mat_item];
    if (b.num_rows() == 0) continue;
    if (sources_[driver]->AcceptRuntimeFilter(MakeRuntimeFilter(
            drv_col, b.columns[mat_col],
            sources_[driver]->output()[drv_col].type))) {
      ++blooms_;
    }
  }

  // Assemble the left-deep chain: the driver streams as the probe side;
  // each later relation replays its captured batch into a hash-join build.
  // chain_off[i] = column offset of item i inside the chain output.
  std::vector<int> chain_off(n, -1);
  std::vector<char> in_chain(n, 0);
  OperatorPtr root = std::move(sources_[driver]);
  chain_off[driver] = 0;
  in_chain[driver] = 1;
  int width = static_cast<int>(root->output().size());
  double est_out = source_est_rows_[driver];
  for (size_t k = 1; k < order.size(); ++k) {
    const int r = order[k];
    std::vector<ExprPtr> pks, bks;
    double best_ndv = 0;
    for (const auto& e : edges_) {
      int chain_item = -1, chain_col = -1, new_col = -1;
      double ndv = 0;
      if (e.left_item == r && in_chain[e.right_item]) {
        chain_item = e.right_item;
        chain_col = e.right_col;
        new_col = e.left_col;
        ndv = std::max(e.left_ndv, e.right_ndv);
      } else if (e.right_item == r && in_chain[e.left_item]) {
        chain_item = e.left_item;
        chain_col = e.left_col;
        new_col = e.right_col;
        ndv = std::max(e.left_ndv, e.right_ndv);
      } else {
        continue;
      }
      const auto& probe_col = output_[from_off[chain_item] + chain_col];
      const auto& build_col = output_[from_off[r] + new_col];
      pks.push_back(std::make_unique<ColumnRefExpr>(
          chain_off[chain_item] + chain_col, probe_col.type, probe_col.name));
      bks.push_back(std::make_unique<ColumnRefExpr>(new_col, build_col.type,
                                                    build_col.name));
      best_ndv = std::max(best_ndv, ndv);
    }
    const double build_rows = rels[r].rows;
    auto build = std::make_unique<MaterializedOp>(std::move(sources_[r]),
                                                  std::move(mat[r]));
    const int add_width = static_cast<int>(build->output().size());
    if (pks.empty()) {
      // Disconnected relation: cross product (rare; the order places these
      // last).
      root = std::make_unique<NestedLoopJoinOp>(std::move(root),
                                                std::move(build), nullptr,
                                                JoinType::kCross, ctx_);
      est_out = est_out * std::max(1.0, build_rows);
    } else {
      root = std::make_unique<HashJoinOp>(std::move(root), std::move(build),
                                          std::move(pks), std::move(bks),
                                          JoinType::kInner, ctx_);
      est_out = est_out * std::max(0.0, build_rows) /
                std::max(1.0, best_ndv > 0 ? best_ndv
                                           : std::min(est_out, build_rows));
    }
    root->set_est_rows(est_out);
    chain_off[r] = width;
    in_chain[r] = 1;
    width += add_width;
  }

  // Chain output is in join order; the operator's contract is FROM order.
  // out_perm_[chain position] = FROM position.
  out_perm_.assign(width, 0);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < item_width[i]; ++c) {
      out_perm_[chain_off[i] + c] = from_off[i] + c;
    }
  }

  chain_ = std::move(root);
  // The chain was built at runtime, after AttachQueryContext walked the
  // bound tree — re-attach so its hash builds stay governable. (The moved
  // sources keep their attachment; this covers the new join nodes.)
  AttachQueryContext(chain_.get(), query_ctx());
  assembled_ = true;
  return chain_->Open();
}

Result<bool> AdaptiveJoinOp::NextImpl(RowBatch* out) {
  if (!assembled_) DASHDB_RETURN_IF_ERROR(Assemble());
  RowBatch in;
  DASHDB_ASSIGN_OR_RETURN(bool more, chain_->Next(&in));
  if (!more) return false;
  // Permute chain columns back to FROM order.
  out->columns.clear();
  out->columns.resize(in.columns.size(), ColumnVector(TypeId::kInt64));
  for (size_t c = 0; c < in.columns.size(); ++c) {
    out->columns[out_perm_[c]] = std::move(in.columns[c]);
  }
  return true;
}

}  // namespace dashdb

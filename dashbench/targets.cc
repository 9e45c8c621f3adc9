// The deployed instances the benchmark drives, and the traced pipeline.
//
// The traced pipeline runs a statement through the engine's public calls
// one at a time — the same steps Engine::ExecSelect takes — and records a
// span around each. No tracing lives inside the engine for this.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/hash.h"
#include "core/dashdb.h"
#include "mpp/mpp.h"
#include "server/backend.h"
#include "server/server.h"

namespace dashbench {

using namespace dashdb;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t ResultChecksum(const QueryResult& r) {
  uint64_t h = r.rows.num_rows();
  for (const auto& c : r.columns) h = HashCombine(h, HashString(c.name));
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (const auto& col : r.rows.columns) {
      h = HashCombine(h, HashString(col.GetValue(i).ToString()));
    }
  }
  return h;
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::string Verify(const Stmt& st, const QueryResult& r) {
  switch (st.check) {
    case Stmt::Check::kNone:
      return "";
    case Stmt::Check::kChecksum:
      if (ResultChecksum(r) == st.checksum) return "";
      return "result checksum differs from the oracle";
    case Stmt::Check::kAffected:
      if (r.affected_rows == st.expect) return "";
      return "affected_rows " + std::to_string(r.affected_rows) +
             ", ledger expects " + std::to_string(st.expect);
    case Stmt::Check::kRows:
      if (static_cast<int64_t>(r.rows.num_rows()) == st.expect) return "";
      return std::to_string(r.rows.num_rows()) + " rows, ledger expects " +
             std::to_string(st.expect);
  }
  return "";
}

const char* LayerName(Layer l) {
  static const char* kNames[] = {"statement", "sql.parse",   "sql.bind",
                                 "exec.admission", "exec.drain", "engine.write",
                                 "catalog.ddl", "engine.explain",
                                 "server.mpp_backend", "mpp.execute",
                                 "mpp.shard"};
  return kNames[static_cast<int>(l)];
}

const char* OpFamilyName(OpFamily f) {
  static const char* kNames[] = {"scan", "filter", "project", "join",
                                 "agg",  "sort",   "exchange", "other"};
  return kNames[static_cast<int>(f)];
}

namespace {

OpFamily FamilyOf(const std::string& kind) {
  if (kind == "ColumnScan" || kind == "CountStarScan" || kind == "RowScan" ||
      kind == "RowIndexScan") {
    return OpFamily::kScan;
  }
  if (kind == "Filter") return OpFamily::kFilter;
  if (kind == "Project") return OpFamily::kProject;
  if (kind == "HashJoin" || kind == "HashLeftJoin" || kind == "AdaptiveJoin" ||
      kind == "NestedLoopJoin" || kind == "Materialized") {
    return OpFamily::kJoin;
  }
  if (kind == "HashAggregate") return OpFamily::kAgg;
  if (kind == "Sort" || kind == "TopN" || kind == "Limit") {
    return OpFamily::kSort;
  }
  // A shard span's own time is its bind plus the exchange around its plan.
  if (kind == "Shard") return OpFamily::kExchange;
  return OpFamily::kOther;
}

double SumMemPeakBytes(const Operator* op) {
  double sum = static_cast<double>(op->mem_peak_bytes());
  for (const Operator* c : op->children()) sum += SumMemPeakBytes(c);
  return sum;
}

}  // namespace

double SpanLog::AddOperatorTrace(const Trace& trace) {
  const auto& spans = trace.spans();
  std::vector<double> child_wall(spans.size() + 1, 0.0);
  for (const TraceSpan& s : spans) {
    if (s.parent != Trace::kNoParent) child_wall[s.parent] += s.wall_seconds;
  }
  double shard_roots = 0;
  for (const TraceSpan& s : spans) {
    if (s.name == "MppQuery") continue;  // carries no wall time
    if (s.parent != Trace::kNoParent && spans[s.parent - 1].name == "Shard") {
      shard_roots += s.wall_seconds;
    }
    const double self = std::max(0.0, s.wall_seconds - child_wall[s.id]);
    const OpFamily f = FamilyOf(s.name);
    self_s[static_cast<int>(f)] += self;
    if (f == OpFamily::kScan) scan_rows += static_cast<double>(s.rows);
  }
  return shard_roots;
}

namespace {

Layer LayerOf(StmtClass c) {
  return c == StmtClass::kDdl       ? Layer::kDdl
         : c == StmtClass::kExplain ? Layer::kExplain
                                    : Layer::kWrite;
}

class EngineTarget : public Target {
 public:
  ~EngineTarget() override {
    if (server_) server_->Stop();
  }

  int port() const override { return server_->port(); }

  Result<QueryResult> Execute(int client, const std::string& sql) override {
    return engine()->Execute(sessions_[client].get(), sql);
  }

  Result<QueryResult> ExecuteTraced(int client, const Stmt& st,
                                    SpanLog* log) override;

  Engine* engine() { return db_->engine(); }

 private:
  friend Result<std::unique_ptr<Target>> dashbench::DeploySingleNode(
      int, const std::function<Status(Engine*)>&);

  Result<QueryResult> TracedSelect(Session* s, const std::string& sql,
                                   uint32_t id, SpanLog* log);

  std::unique_ptr<DashDbLocal> db_;
  std::vector<std::shared_ptr<Session>> sessions_;  ///< one per client
  std::unique_ptr<EngineBackend> backend_;
  std::unique_ptr<Server> server_;
};

Result<QueryResult> EngineTarget::ExecuteTraced(int client, const Stmt& st,
                                                SpanLog* log) {
  Session* s = sessions_[client].get();
  const uint32_t id = log->next_stmt++;
  if (st.cls == StmtClass::kRead) return TracedSelect(s, st.sql, id, log);
  // DML, DDL and EXPLAIN: parse once through Prepare, then run the compiled
  // statement, so the parse is not paid twice.
  const auto t0 = Clock::now();
  Result<int> params = engine()->Prepare(s, "dashbench", st.sql);
  const auto t1 = Clock::now();
  if (!params.ok()) return params.status();
  Result<QueryResult> r = engine()->ExecutePrepared(s, "dashbench", {});
  const auto t2 = Clock::now();
  log->Add(id, Layer::kParse, t0, t1);
  log->Add(id, LayerOf(st.cls), t1, t2);
  log->Add(id, Layer::kStatement, t0, t2);
  return r;
}

Result<QueryResult> EngineTarget::TracedSelect(Session* s,
                                               const std::string& sql,
                                               uint32_t id, SpanLog* log) {
  Engine* e = engine();
  // 1. sql: plan-cache lookup, parse on a miss (Engine::ParseCached).
  const auto t0 = Clock::now();
  const uint64_t cat_ver = e->catalog()->version();
  const uint64_t stats_ver = e->stats_version();
  ast::StatementP stmt =
      e->plan_cache().Lookup(sql, s->dialect(), cat_ver, stats_ver);
  if (!stmt) {
    DASHDB_ASSIGN_OR_RETURN(stmt, ParseStatement(sql));
    if (stmt->kind == ast::StmtKind::kSelect) {
      e->plan_cache().Insert(sql, s->dialect(), cat_ver, stats_ver, stmt);
    }
  }
  if (stmt->kind != ast::StmtKind::kSelect || !stmt->select) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  // 2. sql: bind with the options and degree Engine::ExecSelect uses.
  const auto t1 = Clock::now();
  const int dop = e->EffectiveDop(*s);
  ThreadPool* pool = dop > 1 ? e->exec_pool() : nullptr;
  s->exec_ctx().pool = pool;
  s->exec_ctx().dop = dop;
  auto qc = std::make_shared<QueryContext>();
  s->PublishCurrentQuery(qc);
  struct Unpublish {
    Session* s;
    ~Unpublish() { s->PublishCurrentQuery(nullptr); }
  } unpublish{s};
  BindOptions bopts;
  bopts.scan = e->MakeScanOptions();
  bopts.scan.exec_pool = pool;
  bopts.scan.dop = dop;
  bopts.scan.shared_scan = s->shared_scan_enabled();
  Binder binder(e->catalog(), s, bopts);
  DASHDB_ASSIGN_OR_RETURN(OperatorPtr root, binder.BindSelect(*stmt->select));
  // 3. exec: admission, classified by the topmost estimate as the engine
  // does.
  const auto t2 = Clock::now();
  AdmissionTicket ticket;
  if (s->admission_enabled()) {
    const Operator* est_op = root.get();
    while (est_op != nullptr && !est_op->has_est_rows() &&
           est_op->children().size() == 1) {
      est_op = est_op->children()[0];
    }
    const double est = est_op != nullptr && est_op->has_est_rows()
                           ? est_op->est_rows()
                           : -1.0;
    DASHDB_ASSIGN_OR_RETURN(
        ticket, e->admission().Admit(e->admission().Classify(est), qc.get()));
  }
  // 4. exec: attach the governor and drain the plan.
  const auto t3 = Clock::now();
  AttachQueryContext(root.get(), qc.get());
  QueryResult r;
  r.columns = root->output();
  DASHDB_ASSIGN_OR_RETURN(r.rows, DrainOperator(root.get()));
  RecordCardinalityFeedback(root.get());
  r.affected_rows = static_cast<int64_t>(r.rows.num_rows());
  const auto t4 = Clock::now();
  ticket = AdmissionTicket();  // the slot frees when the drain ends
  log->Add(id, Layer::kParse, t0, t1);
  log->Add(id, Layer::kBind, t1, t2);
  log->Add(id, Layer::kAdmission, t2, t3);
  log->Add(id, Layer::kDrain, t3, t4);
  log->Add(id, Layer::kStatement, t0, t4);
  log->drain_s.push_back(SecondsBetween(t3, t4));
  log->mem_peak_mb.push_back(SumMemPeakBytes(root.get()) / (1024.0 * 1024.0));
  Trace trace;
  root->AddTraceSpans(&trace, Trace::kNoParent);
  log->AddOperatorTrace(trace);
  return r;
}

class MppTarget : public Target {
 public:
  ~MppTarget() override {
    if (server_) server_->Stop();
  }

  int port() const override { return server_->port(); }

  Result<QueryResult> Execute(int client, const std::string& sql) override {
    return sessions_[client]->Execute(sql);
  }

  /// Through the client's MppBackend session, so concurrent traced clients
  /// wait on the backend's own statement lock, as wire sessions do. How
  /// long a statement waited is its span minus its solo time.
  Result<QueryResult> ExecuteTraced(int client, const Stmt& st,
                                    SpanLog* log) override {
    const uint32_t id = log->next_stmt++;
    const auto t0 = Clock::now();
    Result<QueryResult> r = sessions_[client]->Execute(st.sql);
    const auto t1 = Clock::now();
    log->Add(id, Layer::kMppBackend, t0, t1);
    log->Add(id, Layer::kStatement, t0, t1);
    log->backend_calls.emplace_back(&st, SecondsBetween(t0, t1));
    return r;
  }

  Result<QueryResult> ExecuteSolo(int client, const Stmt& st,
                                  SpanLog* log) override;

 private:
  friend Result<std::unique_ptr<Target>> dashbench::DeployMpp(
      int, int, int, const std::function<Status(MppDatabase*)>&);

  std::unique_ptr<MppDatabase> db_;
  std::shared_ptr<Session> shard0_session_;  ///< for the bind replay
  std::unique_ptr<MppBackend> backend_;
  std::vector<std::unique_ptr<BackendSession>> sessions_;  ///< one per client
  std::unique_ptr<Server> server_;
};

Result<QueryResult> MppTarget::ExecuteSolo(int client, const Stmt& st,
                                           SpanLog* log) {
  (void)client;
  const uint32_t id = log->next_stmt++;
  // The coordinator's parse and one shard's bind of the same text,
  // replayed from outside: MppDatabase::Execute has no hook between its
  // steps. Nothing else runs during the solo pass, so calling the database
  // directly, past the backend's lock, races with no one.
  const auto t1 = Clock::now();
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseStatement(st.sql));
  const auto t2 = Clock::now();
  if (stmt->kind == ast::StmtKind::kSelect && stmt->select) {
    Engine* shard0 = db_->shard_engine(0);
    BindOptions bopts;
    bopts.scan = shard0->MakeScanOptions();
    Binder binder(shard0->catalog(), shard0_session_.get(), bopts);
    DASHDB_ASSIGN_OR_RETURN(OperatorPtr plan, binder.BindSelect(*stmt->select));
  }
  // EXPLAIN ANALYZE returns the real rows plus the per-shard operator
  // trace.
  const auto t3 = Clock::now();
  DASHDB_ASSIGN_OR_RETURN(MppQueryResult r,
                          db_->Execute("EXPLAIN ANALYZE " + st.sql));
  const auto t4 = Clock::now();
  const double makespan = r.MakespanOn(*db_->topology());
  log->Add(id, Layer::kParse, t1, t2);
  log->Add(id, Layer::kBind, t2, t3);
  log->Add(id, Layer::kMppExecute, t3, t4);
  // Shards run one after another; lay their spans out back to back.
  auto at = t3;
  double sum = 0, max = 0;
  for (double sec : r.shard_seconds) {
    const auto end = at + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(sec));
    log->Add(id, Layer::kShard, at, end);
    at = end;
    sum += sec;
    max = std::max(max, sec);
  }
  log->Add(id, Layer::kStatement, t1, t4);
  if (r.trace) log->drain_s.push_back(log->AddOperatorTrace(*r.trace));
  if (!r.shard_seconds.empty() && sum > 0) {
    log->shard_skew.push_back(max * static_cast<double>(r.shard_seconds.size()) / sum);
  }
  log->mpp_shard_s += sum;
  log->mpp_execute_s += SecondsBetween(t3, t4);
  log->mpp_makespan_s += makespan;
  QueryResult out = std::move(r.result);
  out.message.clear();
  return out;
}

}  // namespace

Result<std::unique_ptr<Target>> DeploySingleNode(
    int clients, const std::function<Status(Engine*)>& load) {
  auto t = std::make_unique<EngineTarget>();
  DASHDB_ASSIGN_OR_RETURN(t->db_, DashDbLocal::Deploy());
  Engine* engine = t->db_->engine();
  DASHDB_RETURN_IF_ERROR(load(engine));
  for (int c = 0; c < clients; ++c) {
    t->sessions_.push_back(engine->CreateSession());
  }
  t->backend_ = std::make_unique<EngineBackend>(engine);
  t->server_ = std::make_unique<Server>(t->backend_.get());
  DASHDB_RETURN_IF_ERROR(t->server_->Start());
  return std::unique_ptr<Target>(std::move(t));
}

Result<std::unique_ptr<Target>> DeployMpp(
    int nodes, int shards_per_node, int clients,
    const std::function<Status(MppDatabase*)>& load) {
  auto t = std::make_unique<MppTarget>();
  // Two cores and 8 GiB per node only shape the modelled makespan.
  t->db_ = std::make_unique<MppDatabase>(nodes, shards_per_node,
                                         /*cores_per_node=*/2, size_t{8} << 30);
  DASHDB_RETURN_IF_ERROR(load(t->db_.get()));
  t->shard0_session_ = t->db_->shard_engine(0)->CreateSession();
  t->backend_ = std::make_unique<MppBackend>(t->db_.get());
  for (int c = 0; c < clients; ++c) {
    t->sessions_.push_back(t->backend_->CreateSession());
  }
  t->server_ = std::make_unique<Server>(t->backend_.get());
  DASHDB_RETURN_IF_ERROR(t->server_->Start());
  return std::unique_ptr<Target>(std::move(t));
}

}  // namespace dashbench

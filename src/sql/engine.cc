#include "sql/engine.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <thread>

#include "common/threadpool.h"

namespace dashdb {

Engine::Engine(EngineConfig config)
    : config_(config),
      pool_(config.buffer_pool_bytes, config.buffer_policy),
      admission_(config.admission) {
  int qp = config.query_parallelism;
  if (qp == 0) {
    qp = static_cast<int>(std::thread::hardware_concurrency());
  }
  query_parallelism_ = std::max(1, qp);
  if (query_parallelism_ > 1) {
    // The issuing thread participates in every ParallelFor, so the pool
    // only needs dop-1 workers to reach the configured degree.
    exec_pool_ = std::make_unique<ThreadPool>(query_parallelism_ - 1);
  }
  // CALL RUNSTATS(): statistics refresh. Plans cached before the refresh
  // recompile on next use (their stats stamp no longer matches).
  RegisterProcedure("RUNSTATS",
                    [](const std::vector<Value>&, Session*,
                       Engine* engine) -> Result<QueryResult> {
                      engine->RefreshStatistics();
                      QueryResult r;
                      r.message = "RUNSTATS: statistics refreshed (epoch " +
                                  std::to_string(engine->stats_version()) + ")";
                      return r;
                    });
}

Engine::~Engine() = default;

int Engine::EffectiveDop(const Session& session) const {
  int dop = session.max_parallelism();
  if (dop <= 0) return query_parallelism_;  // 0 = ANY: the engine degree
  return std::min(dop, query_parallelism_);
}

std::shared_ptr<Session> Engine::CreateSession() {
  return std::make_shared<Session>();
}

ScanOptions Engine::MakeScanOptions() {
  ScanOptions o;
  o.use_synopsis = config_.use_synopsis;
  o.use_swar = config_.use_swar;
  o.operate_on_compressed = config_.operate_on_compressed;
  o.pool = config_.charge_buffer_pool ? &pool_ : nullptr;
  return o;
}

void Engine::RegisterProcedure(const std::string& name, Procedure proc) {
  std::lock_guard<std::mutex> lk(proc_mu_);
  procedures_[NormalizeIdent(name)] = std::move(proc);
}

Result<std::shared_ptr<ColumnTable>> Engine::CreateColumnTable(
    TableSchema schema) {
  auto table = std::make_shared<ColumnTable>(schema, NextTableId());
  table->ConfigureIo(config_.io_model, &io_nanos_, &pool_);
  CatalogEntry entry;
  entry.kind = EntryKind::kBaseTable;
  entry.schema = std::move(schema);
  entry.storage = table;
  DASHDB_RETURN_IF_ERROR(catalog_.CreateEntry(std::move(entry)));
  return table;
}

Result<std::shared_ptr<RowTable>> Engine::CreateRowTable(TableSchema schema) {
  auto table = std::make_shared<RowTable>(schema, NextTableId());
  table->ConfigureIo(config_.io_model, &io_nanos_, &pool_);
  CatalogEntry entry;
  entry.kind = EntryKind::kBaseTable;
  entry.schema = std::move(schema);
  entry.storage = table;
  DASHDB_RETURN_IF_ERROR(catalog_.CreateEntry(std::move(entry)));
  return table;
}

Result<std::shared_ptr<CatalogEntry>> Engine::GetTable(
    const std::string& schema, const std::string& table) {
  return catalog_.Lookup(schema, table);
}

namespace {

/// Whether a bound-and-executed result for this expression is stable across
/// repeated executions against unchanged data. Parameters bind per-EXECUTE,
/// sequences advance per-row, and the clock-reading functions (SYSDATE,
/// CURRENT_DATE, NOW, AGE with implicit now) read session context — none of
/// those may be served from the result cache.
bool IsCacheableExpr(const ast::ExprP& e) {
  if (!e) return true;
  if (e->kind == ast::ExprKind::kParam ||
      e->kind == ast::ExprKind::kSequenceRef) {
    return false;
  }
  // Niladic clock functions parse as either calls or bare column refs
  // (CURRENT_DATE / SYSDATE without parentheses; the binder resolves them
  // to functions only when no column shadows them). Reject the bare-ref
  // spelling conservatively — a real column with that name just loses
  // caching, never correctness.
  if (e->kind == ast::ExprKind::kFuncCall ||
      (e->kind == ast::ExprKind::kColumnRef && e->qualifier.empty())) {
    const std::string f = NormalizeIdent(e->name);
    if (f == "CURRENT_DATE" || f == "SYSDATE" || f == "NOW" || f == "AGE") {
      return false;
    }
  }
  for (const auto& c : e->children) {
    if (!IsCacheableExpr(c)) return false;
  }
  return IsCacheableExpr(e->else_branch);
}

}  // namespace

bool IsResultCacheableSelect(const ast::SelectStmt& sel) {
  for (const auto& cte : sel.ctes) {
    if (cte.query && !IsResultCacheableSelect(*cte.query)) return false;
  }
  for (const auto& item : sel.items) {
    if (!IsCacheableExpr(item.expr)) return false;
  }
  for (const auto& tr : sel.from) {
    if (tr.subquery && !IsResultCacheableSelect(*tr.subquery)) return false;
    if (!IsCacheableExpr(tr.join_condition)) return false;
  }
  if (!IsCacheableExpr(sel.where)) return false;
  for (const auto& g : sel.group_by) {
    if (!IsCacheableExpr(g)) return false;
  }
  if (!IsCacheableExpr(sel.having)) return false;
  for (const auto& o : sel.order_by) {
    if (!IsCacheableExpr(o.expr)) return false;
  }
  if (!IsCacheableExpr(sel.start_with)) return false;
  if (!IsCacheableExpr(sel.connect_by)) return false;
  for (const auto& row : sel.values_rows) {
    for (const auto& v : row) {
      if (!IsCacheableExpr(v)) return false;
    }
  }
  return true;
}

Result<QueryResult> Engine::Execute(Session* session, const std::string& sql) {
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseCached(session, sql));
  // Result cache: plain SELECTs only (EXPLAIN reports plans, not data;
  // scripts and prepared statements bypass Execute). Versions are captured
  // BEFORE the lookup/execution so a write racing this statement can only
  // cause a skipped insert, never a stale hit.
  if (session->result_cache_enabled() &&
      stmt->kind == ast::StmtKind::kSelect && stmt->select &&
      IsResultCacheableSelect(*stmt->select)) {
    const ResultCache::Versions v = CurrentVersions();
    if (std::shared_ptr<const QueryResult> cached = result_cache_.Lookup(
            sql, session->dialect(), session->default_schema(), v)) {
      return *cached;
    }
    ResultCacheIntent intent{&sql, v};
    return ExecuteStmt(session, stmt, &intent);
  }
  return ExecuteStmt(session, stmt);
}

namespace {

/// Cheap pre-parse gate: only statements that can begin a read query touch
/// the plan cache, so DDL/DML/SET traffic neither pollutes the cache nor
/// inflates its miss counter.
bool LooksLikeReadQuery(const std::string& sql) {
  size_t i = sql.find_first_not_of(" \t\r\n(");
  if (i == std::string::npos) return false;
  std::string word;
  while (i < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[i]))) {
    word.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(sql[i]))));
    ++i;
  }
  return word == "SELECT" || word == "WITH" || word == "EXPLAIN" ||
         word == "VALUES";
}

}  // namespace

Result<ast::StatementP> Engine::ParseCached(Session* session,
                                            const std::string& sql) {
  // Only read-only statements are cached: their ASTs are immutable and
  // binding is per-execution, so one parse serves every session. DDL/DML
  // parse fresh (cheap, and their side effects bump the versions that
  // invalidate cached reads anyway).
  if (!LooksLikeReadQuery(sql)) return ParseStatement(sql);
  const uint64_t cat_ver = catalog_.version();
  const uint64_t stats_ver = stats_version();
  if (ast::StatementP cached =
          plan_cache_.Lookup(sql, session->dialect(), cat_ver, stats_ver)) {
    return cached;
  }
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseStatement(sql));
  if (stmt->kind == ast::StmtKind::kSelect ||
      stmt->kind == ast::StmtKind::kExplain) {
    plan_cache_.Insert(sql, session->dialect(), cat_ver, stats_ver, stmt);
  }
  return stmt;
}

Result<QueryResult> Engine::ExecuteScript(Session* session,
                                          const std::string& sql) {
  DASHDB_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  QueryResult last;
  for (size_t i = 0; i < stmts.size(); ++i) {
    auto r = ExecuteStmt(session, stmts[i]);
    if (!r.ok()) {
      // Annotate which statement failed, preserving the code so callers
      // can still classify retryability (Status taxonomy).
      return r.status().WithContext("statement " + std::to_string(i + 1) +
                                    "/" + std::to_string(stmts.size()));
    }
    last = std::move(r).value();
  }
  return last;
}

namespace {

// --- '?' parameter counting (PREPARE reports how many values EXECUTE
// --- must supply). Walks the full AST; param_index is assigned in text
// --- order by the parser, so the count is max index + 1.

void MaxParamIndex(const ast::ExprP& e, int* max_index);

void MaxParamIndex(const ast::SelectP& sel, int* max_index) {
  if (!sel) return;
  for (const auto& cte : sel->ctes) MaxParamIndex(cte.query, max_index);
  for (const auto& item : sel->items) MaxParamIndex(item.expr, max_index);
  for (const auto& tr : sel->from) {
    MaxParamIndex(tr.subquery, max_index);
    MaxParamIndex(tr.join_condition, max_index);
  }
  MaxParamIndex(sel->where, max_index);
  for (const auto& g : sel->group_by) MaxParamIndex(g, max_index);
  MaxParamIndex(sel->having, max_index);
  for (const auto& o : sel->order_by) MaxParamIndex(o.expr, max_index);
  MaxParamIndex(sel->start_with, max_index);
  MaxParamIndex(sel->connect_by, max_index);
  for (const auto& row : sel->values_rows) {
    for (const auto& v : row) MaxParamIndex(v, max_index);
  }
}

void MaxParamIndex(const ast::ExprP& e, int* max_index) {
  if (!e) return;
  if (e->kind == ast::ExprKind::kParam) {
    *max_index = std::max(*max_index, e->param_index);
  }
  for (const auto& c : e->children) MaxParamIndex(c, max_index);
  MaxParamIndex(e->else_branch, max_index);
}

int CountParams(const ast::Statement& st) {
  int max_index = -1;
  MaxParamIndex(st.select, &max_index);
  for (const auto& row : st.insert_rows) {
    for (const auto& v : row) MaxParamIndex(v, &max_index);
  }
  for (const auto& [name, expr] : st.set_clauses) {
    MaxParamIndex(expr, &max_index);
  }
  MaxParamIndex(st.where, &max_index);
  for (const auto& a : st.call_args) MaxParamIndex(a, &max_index);
  return max_index + 1;
}

}  // namespace

Result<int> Engine::Prepare(Session* session, const std::string& name,
                            const std::string& sql) {
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseCached(session, sql));
  PreparedStatement ps;
  ps.stmt = std::move(stmt);
  ps.dialect = session->dialect();
  ps.sql = sql;
  ps.param_count = CountParams(*ps.stmt);
  const int count = ps.param_count;
  session->AddPrepared(name, std::move(ps));
  return count;
}

Result<QueryResult> Engine::ExecutePrepared(Session* session,
                                            const std::string& name,
                                            std::vector<Value> params) {
  DASHDB_ASSIGN_OR_RETURN(PreparedStatement ps, session->GetPrepared(name));
  if (static_cast<int>(params.size()) != ps.param_count) {
    return Status::SemanticError(
        "prepared statement " + name + " takes " +
        std::to_string(ps.param_count) + " parameter(s), " +
        std::to_string(params.size()) + " supplied");
  }
  // Compile under the dialect recorded at PREPARE time (paper II.C.2 —
  // objects remember their dialect), restoring the session's own dialect
  // and parameter state on every exit path.
  const Dialect saved = session->dialect();
  session->set_dialect(ps.dialect);
  session->set_bind_params(std::move(params));
  auto r = ExecuteStmt(session, ps.stmt);
  session->clear_bind_params();
  session->set_dialect(saved);
  return r;
}

Result<QueryResult> Engine::ExecuteStmt(Session* session,
                                        const ast::StatementP& stmt,
                                        const ResultCacheIntent* cache) {
  switch (stmt->kind) {
    case ast::StmtKind::kSelect:
      return ExecSelect(session, *stmt->select, /*explain_only=*/false,
                        /*analyze=*/false, cache);
    case ast::StmtKind::kExplain:
      return ExecSelect(session, *stmt->select, /*explain_only=*/true,
                        stmt->explain_analyze);
    case ast::StmtKind::kInsert:
      return ExecInsert(session, *stmt);
    case ast::StmtKind::kUpdate:
      return ExecUpdate(session, *stmt);
    case ast::StmtKind::kDelete:
      return ExecDelete(session, *stmt);
    case ast::StmtKind::kCreateTable:
      return ExecCreateTable(session, *stmt);
    case ast::StmtKind::kDropTable: {
      std::string schema = stmt->target_schema.empty()
                               ? session->default_schema()
                               : stmt->target_schema;
      auto entry = catalog_.Lookup(schema, stmt->target_table);
      if (!entry.ok()) {
        if (stmt->if_exists) {
          QueryResult r;
          r.message = "DROP: no such table (IF EXISTS)";
          return r;
        }
        return entry.status();
      }
      // Release cached pages for dropped base tables.
      auto col = std::dynamic_pointer_cast<ColumnTable>((*entry)->storage);
      if (col) pool_.EvictTable(col->table_id());
      DASHDB_RETURN_IF_ERROR(catalog_.DropEntry(schema, stmt->target_table));
      QueryResult r;
      r.message = "DROPPED";
      return r;
    }
    case ast::StmtKind::kTruncate: {
      std::string schema = stmt->target_schema.empty()
                               ? session->default_schema()
                               : stmt->target_schema;
      DASHDB_ASSIGN_OR_RETURN(auto entry,
                              catalog_.Lookup(schema, stmt->target_table));
      auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
      auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
      if (col) {
        pool_.EvictTable(col->table_id());
        col->Truncate();
      } else if (row) {
        row->Truncate();
      } else {
        return Status::SemanticError("TRUNCATE target is not a base table");
      }
      BumpDataVersion();
      QueryResult r;
      r.message = "TRUNCATED";
      return r;
    }
    case ast::StmtKind::kCreateView: {
      std::string schema = stmt->target_schema.empty()
                               ? session->default_schema()
                               : stmt->target_schema;
      CatalogEntry entry;
      entry.kind = EntryKind::kView;
      entry.schema = TableSchema(schema, stmt->target_table, {});
      entry.view_sql = stmt->view_sql;
      entry.view_dialect = DialectName(session->dialect());
      DASHDB_RETURN_IF_ERROR(catalog_.CreateEntry(std::move(entry)));
      QueryResult r;
      r.message = "VIEW CREATED";
      return r;
    }
    case ast::StmtKind::kCreateSchema: {
      DASHDB_RETURN_IF_ERROR(catalog_.CreateSchema(stmt->target_table));
      QueryResult r;
      r.message = "SCHEMA CREATED";
      return r;
    }
    case ast::StmtKind::kCreateSequence: {
      DASHDB_RETURN_IF_ERROR(session->CreateSequence(stmt->target_table));
      QueryResult r;
      r.message = "SEQUENCE CREATED";
      return r;
    }
    case ast::StmtKind::kCreateAlias: {
      std::string tgt_schema = stmt->alias_target_schema.empty()
                                   ? session->default_schema()
                                   : stmt->alias_target_schema;
      DASHDB_ASSIGN_OR_RETURN(
          auto target, catalog_.Lookup(tgt_schema, stmt->alias_target_table));
      std::string schema = stmt->target_schema.empty()
                               ? session->default_schema()
                               : stmt->target_schema;
      CatalogEntry entry = *target;  // share storage, new name
      entry.schema = TableSchema(schema, stmt->target_table,
                                 target->schema.columns(),
                                 target->schema.organization());
      DASHDB_RETURN_IF_ERROR(catalog_.CreateEntry(std::move(entry)));
      QueryResult r;
      r.message = "ALIAS CREATED";
      return r;
    }
    case ast::StmtKind::kSet:
      return ExecSet(session, *stmt);
    case ast::StmtKind::kCall: {
      Procedure proc;
      {
        std::lock_guard<std::mutex> lk(proc_mu_);
        auto it = procedures_.find(NormalizeIdent(stmt->call_name));
        if (it == procedures_.end()) {
          return Status::NotFound("procedure " + stmt->call_name);
        }
        proc = it->second;
      }
      Binder binder(&catalog_, session);
      std::vector<Value> args;
      for (const auto& a : stmt->call_args) {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(a, {}));
        RowBatch empty;
        DASHDB_ASSIGN_OR_RETURN(Value v,
                                bound->EvaluateRow(empty, 0,
                                                   session->exec_ctx()));
        args.push_back(std::move(v));
      }
      return proc(args, session, this);
    }
  }
  return Status::Internal("unhandled statement kind");
}

namespace {

/// Un-publishes the session's current-query pointer on scope exit, so a
/// late CANCEL from another thread never touches a finished statement.
struct CurrentQueryScope {
  Session* session;
  ~CurrentQueryScope() { session->PublishCurrentQuery(nullptr); }
};

}  // namespace

std::shared_ptr<QueryContext> Engine::MakeQueryContext(Session* session) {
  // Tests may pre-arm the context (CancelAfterChecks) before the statement
  // runs; otherwise a fresh governor picks up the session's SET knobs.
  std::shared_ptr<QueryContext> qc = session->TakeInjectedQueryContext();
  if (!qc) qc = std::make_shared<QueryContext>();
  if (session->statement_timeout_seconds() > 0) {
    qc->SetTimeout(session->statement_timeout_seconds());
  }
  if (session->mem_budget_bytes() > 0) {
    qc->SetMemBudget(session->mem_budget_bytes());
  }
  session->PublishCurrentQuery(qc);
  return qc;
}

Result<QueryResult> Engine::ExecSelect(Session* session,
                                       const ast::SelectStmt& sel,
                                       bool explain_only, bool analyze,
                                       const ResultCacheIntent* cache) {
  // Arm intra-query parallelism for this statement: the execution context
  // drives the parallel join build / aggregation, the scan options drive
  // the morsel scan. Both stay null/1 on serial engines.
  const int dop = EffectiveDop(*session);
  session->exec_ctx().pool = dop > 1 ? exec_pool_.get() : nullptr;
  session->exec_ctx().dop = dop;
  // The governor outlives the plan (operators return their memory
  // reservations to it on destruction), so it is declared first and the
  // shared_ptr keeps it valid for a concurrent CancelCurrentQuery().
  std::shared_ptr<QueryContext> qc = MakeQueryContext(session);
  CurrentQueryScope unpublish{session};
  BindOptions bopts;
  bopts.scan = MakeScanOptions();
  bopts.scan.exec_pool = dop > 1 ? exec_pool_.get() : nullptr;
  bopts.scan.dop = dop;
  Binder binder(&catalog_, session, bopts);
  DASHDB_ASSIGN_OR_RETURN(OperatorPtr root, binder.BindSelect(sel));
  AttachQueryContext(root.get(), qc.get());
  QueryResult r;
  if (explain_only && !analyze) {
    r.message = root->PlanString();
    return r;
  }
  // Admission happens after bind — classification needs the optimizer's
  // root estimate — and before any operator runs. The RAII ticket spans
  // the drain, so slots free exactly when the statement stops consuming
  // CPU/memory.
  AdmissionTicket ticket;
  if (session->admission_enabled()) {
    // The binder stamps estimates on scans and joins but not on the
    // project/sort/limit wrappers above them, so classification walks down
    // through estimate-less unary operators to the topmost estimate.
    const Operator* est_op = root.get();
    while (est_op != nullptr && !est_op->has_est_rows() &&
           est_op->children().size() == 1) {
      est_op = est_op->children()[0];
    }
    const double est = est_op != nullptr && est_op->has_est_rows()
                           ? est_op->est_rows()
                           : -1.0;
    DASHDB_ASSIGN_OR_RETURN(
        ticket, admission_.Admit(admission_.Classify(est), qc.get()));
  }
  if (explain_only) {
    // EXPLAIN ANALYZE: run the query, discard its rows, and report the plan
    // annotated with the runtime metrics the instrumented operators
    // accumulated. affected_rows carries the result cardinality so callers
    // (differential tests) can check it against the plain query without
    // parsing the report.
    DASHDB_ASSIGN_OR_RETURN(RowBatch result, DrainOperator(root.get()));
    RecordCardinalityFeedback(root.get());
    r.affected_rows = static_cast<int64_t>(result.num_rows());
    r.message = "EXPLAIN ANALYZE (dop=" + std::to_string(dop) +
                ", rows=" + std::to_string(result.num_rows()) + ")\n" +
                root->AnalyzeString();
    auto trace = std::make_shared<Trace>();
    uint32_t q = trace->AddSpan("Query", Trace::kNoParent);
    root->AddTraceSpans(trace.get(), q);
    TraceSpan& qs = trace->span(q);
    qs.rows = result.num_rows();
    qs.wall_seconds = root->metrics().wall_seconds;
    qs.attrs["dop"] = dop;
    session->set_last_trace(std::move(trace));
    return r;
  }
  r.columns = root->output();
  DASHDB_ASSIGN_OR_RETURN(r.rows, DrainOperator(root.get()));
  RecordCardinalityFeedback(root.get());
  r.affected_rows = static_cast<int64_t>(r.rows.num_rows());
  if (cache != nullptr && CurrentVersions() == cache->versions) {
    // The copy the cache retains is charged against this statement's memory
    // budget: a governed query that cannot afford the copy runs to
    // completion but skips caching (kResourceExhausted here never fails the
    // query). The version re-check above means a write that landed during
    // execution skips the insert instead of caching a torn read.
    const int64_t bytes = BatchMemoryBytes(r.rows);
    if (qc->Charge(bytes, "result cache insert").ok()) {
      result_cache_.Insert(*cache->sql, session->dialect(),
                           session->default_schema(), cache->versions,
                           std::make_shared<QueryResult>(r),
                           static_cast<size_t>(bytes));
      qc->Release(bytes);
    }
  }
  return r;
}

namespace {

/// Casts one value to a column's declared type, with NOT NULL checking.
Result<Value> CoerceForColumn(const Value& v, const ColumnDef& col) {
  if (v.is_null()) {
    if (!col.nullable) {
      return Status::SemanticError("NULL not allowed in column " + col.name);
    }
    return Value::Null(col.type);
  }
  return v.CastTo(col.type);
}

}  // namespace

Result<QueryResult> Engine::ExecInsert(Session* session,
                                       const ast::Statement& st) {
  std::string schema =
      st.target_schema.empty() ? session->default_schema() : st.target_schema;
  DASHDB_ASSIGN_OR_RETURN(auto entry,
                          catalog_.Lookup(schema, st.target_table));
  const TableSchema& ts = entry->schema;
  // Column mapping.
  std::vector<int> targets;
  if (st.insert_columns.empty()) {
    for (int c = 0; c < ts.num_columns(); ++c) targets.push_back(c);
  } else {
    for (const auto& name : st.insert_columns) {
      int idx = ts.FindColumn(name);
      if (idx < 0) return Status::SemanticError("unknown column " + name);
      targets.push_back(idx);
    }
  }
  // Source rows.
  RowBatch incoming;
  if (st.select) {
    const int dop = EffectiveDop(*session);
    session->exec_ctx().pool = dop > 1 ? exec_pool_.get() : nullptr;
    session->exec_ctx().dop = dop;
    // INSERT ... SELECT runs a full query pipeline, so it is governed like
    // one (cancellable, deadline-checked, budget-charged).
    std::shared_ptr<QueryContext> qc = MakeQueryContext(session);
    CurrentQueryScope unpublish{session};
    BindOptions bopts;
    bopts.scan = MakeScanOptions();
    bopts.scan.exec_pool = dop > 1 ? exec_pool_.get() : nullptr;
    bopts.scan.dop = dop;
    Binder binder(&catalog_, session, bopts);
    DASHDB_ASSIGN_OR_RETURN(OperatorPtr root, binder.BindSelect(*st.select));
    AttachQueryContext(root.get(), qc.get());
    if (static_cast<int>(root->output().size()) !=
        static_cast<int>(targets.size())) {
      return Status::SemanticError("INSERT column count mismatch");
    }
    DASHDB_ASSIGN_OR_RETURN(incoming, DrainOperator(root.get()));
  } else {
    Binder binder(&catalog_, session);
    for (size_t c = 0; c < targets.size(); ++c) {
      incoming.columns.emplace_back(ts.column(targets[c]).type);
    }
    for (const auto& row : st.insert_rows) {
      if (row.size() != targets.size()) {
        return Status::SemanticError("INSERT row width mismatch");
      }
      for (size_t c = 0; c < row.size(); ++c) {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(row[c], {}));
        RowBatch empty;
        DASHDB_ASSIGN_OR_RETURN(
            Value v, bound->EvaluateRow(empty, 0, session->exec_ctx()));
        DASHDB_ASSIGN_OR_RETURN(v, CoerceForColumn(v, ts.column(targets[c])));
        incoming.columns[c].AppendValue(v);
      }
    }
  }
  // Assemble full-width batch.
  RowBatch full;
  for (int c = 0; c < ts.num_columns(); ++c) {
    full.columns.emplace_back(ts.column(c).type);
  }
  const size_t n = incoming.num_rows();
  for (size_t i = 0; i < n; ++i) {
    std::vector<bool> set(ts.num_columns(), false);
    for (size_t k = 0; k < targets.size(); ++k) {
      Value v = incoming.columns[k].GetValue(i);
      DASHDB_ASSIGN_OR_RETURN(v, CoerceForColumn(v, ts.column(targets[k])));
      full.columns[targets[k]].AppendValue(v);
      set[targets[k]] = true;
    }
    for (int c = 0; c < ts.num_columns(); ++c) {
      if (!set[c]) {
        if (!ts.column(c).nullable) {
          return Status::SemanticError("column " + ts.column(c).name +
                                       " requires a value");
        }
        full.columns[c].AppendNull();
      }
    }
  }
  auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
  auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
  if (col) {
    DASHDB_RETURN_IF_ERROR(col->Append(full));
  } else if (row) {
    DASHDB_RETURN_IF_ERROR(row->Append(full));
  } else {
    return Status::SemanticError("INSERT target is not a base table");
  }
  BumpDataVersion();
  QueryResult r;
  r.affected_rows = static_cast<int64_t>(n);
  r.message = "INSERTED " + std::to_string(n);
  return r;
}

Result<Engine::MatchedRows> Engine::CollectMatches(Session* session,
                                                   const CatalogEntry& entry,
                                                   const ast::ExprP& where) {
  const TableSchema& ts = entry.schema;
  BindOptions bopts;
  bopts.scan = MakeScanOptions();
  Binder binder(&catalog_, session, bopts);
  DASHDB_ASSIGN_OR_RETURN(TablePredicates preds,
                          binder.SplitTablePredicates(ts, where));
  MatchedRows out;
  for (int c = 0; c < ts.num_columns(); ++c) {
    out.rows.columns.emplace_back(ts.column(c).type);
  }
  std::vector<int> proj;
  for (int c = 0; c < ts.num_columns(); ++c) proj.push_back(c);

  auto handle = [&](RowBatch& batch,
                    const std::vector<uint64_t>& ids) -> Status {
    std::vector<uint32_t> sel;
    if (preds.residual) {
      DASHDB_ASSIGN_OR_RETURN(
          sel, EvalFilter(*preds.residual, batch, session->exec_ctx()));
    } else {
      sel.resize(batch.num_rows());
      for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
    }
    for (uint32_t i : sel) {
      out.ids.push_back(ids[i]);
      for (size_t c = 0; c < batch.columns.size(); ++c) {
        out.rows.columns[c].AppendFrom(batch.columns[c], i);
      }
    }
    return Status::OK();
  };

  auto col = std::dynamic_pointer_cast<ColumnTable>(entry.storage);
  auto row = std::dynamic_pointer_cast<RowTable>(entry.storage);
  Status inner_status;
  if (col) {
    DASHDB_RETURN_IF_ERROR(col->Scan(
        preds.pushdown, proj, bopts.scan,
        [&](RowBatch& b, const std::vector<uint64_t>& ids) {
          if (inner_status.ok()) inner_status = handle(b, ids);
        }));
  } else if (row) {
    DASHDB_RETURN_IF_ERROR(row->Scan(
        preds.pushdown, proj,
        [&](RowBatch& b, const std::vector<uint64_t>& ids) {
          if (inner_status.ok()) inner_status = handle(b, ids);
        }));
  } else {
    return Status::SemanticError("DML target is not a base table");
  }
  DASHDB_RETURN_IF_ERROR(inner_status);
  return out;
}

Result<QueryResult> Engine::ExecUpdate(Session* session,
                                       const ast::Statement& st) {
  std::string schema =
      st.target_schema.empty() ? session->default_schema() : st.target_schema;
  DASHDB_ASSIGN_OR_RETURN(auto entry,
                          catalog_.Lookup(schema, st.target_table));
  const TableSchema& ts = entry->schema;
  DASHDB_ASSIGN_OR_RETURN(MatchedRows matched,
                          CollectMatches(session, *entry, st.where));
  // Bind SET expressions over the table scope.
  Binder binder(&catalog_, session);
  std::vector<OutputCol> scope;
  for (int c = 0; c < ts.num_columns(); ++c) {
    scope.push_back({ts.column(c).name, ts.column(c).type});
  }
  std::vector<std::pair<int, ExprPtr>> sets;
  for (const auto& [name, expr] : st.set_clauses) {
    int idx = ts.FindColumn(name);
    if (idx < 0) return Status::SemanticError("unknown column " + name);
    DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(expr, scope));
    sets.emplace_back(idx, std::move(bound));
  }
  auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
  auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
  const size_t n = matched.ids.size();
  if (n == 0) {
    QueryResult r;
    r.message = "UPDATED 0";
    return r;
  }
  // Compute new rows.
  RowBatch updated = matched.rows;
  for (const auto& [idx, expr] : sets) {
    ColumnVector nv(ts.column(idx).type);
    for (size_t i = 0; i < n; ++i) {
      DASHDB_ASSIGN_OR_RETURN(Value v,
                              expr->EvaluateRow(matched.rows, i,
                                                session->exec_ctx()));
      DASHDB_ASSIGN_OR_RETURN(v, CoerceForColumn(v, ts.column(idx)));
      nv.AppendValue(v);
    }
    updated.columns[idx] = std::move(nv);
  }
  if (col) {
    // Column store: UPDATE = delete + re-insert (paper engines do the same;
    // the row-store baseline updates in place below).
    DASHDB_RETURN_IF_ERROR(col->DeleteRows(matched.ids));
    DASHDB_RETURN_IF_ERROR(col->Append(updated));
  } else {
    for (size_t i = 0; i < n; ++i) {
      DASHDB_RETURN_IF_ERROR(row->UpdateRow(matched.ids[i], updated.Row(i)));
    }
  }
  BumpDataVersion();
  QueryResult r;
  r.affected_rows = static_cast<int64_t>(n);
  r.message = "UPDATED " + std::to_string(n);
  return r;
}

Result<QueryResult> Engine::ExecDelete(Session* session,
                                       const ast::Statement& st) {
  std::string schema =
      st.target_schema.empty() ? session->default_schema() : st.target_schema;
  DASHDB_ASSIGN_OR_RETURN(auto entry,
                          catalog_.Lookup(schema, st.target_table));
  DASHDB_ASSIGN_OR_RETURN(MatchedRows matched,
                          CollectMatches(session, *entry, st.where));
  auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
  auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
  if (col) {
    DASHDB_RETURN_IF_ERROR(col->DeleteRows(matched.ids));
  } else {
    DASHDB_RETURN_IF_ERROR(row->DeleteRows(matched.ids));
  }
  BumpDataVersion();
  QueryResult r;
  r.affected_rows = static_cast<int64_t>(matched.ids.size());
  r.message = "DELETED " + std::to_string(matched.ids.size());
  return r;
}

Result<QueryResult> Engine::ExecCreateTable(Session* session,
                                            const ast::Statement& st) {
  std::string schema =
      st.target_schema.empty() ? session->default_schema() : st.target_schema;
  if (st.temporary) schema = "SESSION";
  if (!catalog_.HasSchema(schema)) {
    DASHDB_RETURN_IF_ERROR(catalog_.CreateSchema(schema));
  }
  std::vector<ColumnDef> cols;
  for (const auto& cd : st.columns) {
    ColumnDef col;
    col.name = NormalizeIdent(cd.name);
    DASHDB_ASSIGN_OR_RETURN(col.type, TypeFromName(cd.type_name));
    col.nullable = !cd.not_null;
    col.unique = cd.unique;
    cols.push_back(std::move(col));
  }
  TableOrganization org = st.organize_by_row
                              ? TableOrganization::kRow
                              : config_.default_organization;
  TableSchema ts(schema, NormalizeIdent(st.target_table), cols, org);
  ts.set_temporary(st.temporary);
  if (!st.distribute_by.empty()) {
    int idx = ts.FindColumn(st.distribute_by);
    if (idx < 0) {
      return Status::SemanticError("DISTRIBUTE BY column not found");
    }
    ts.set_distribution_key(idx);
  }
  if (org == TableOrganization::kRow) {
    DASHDB_ASSIGN_OR_RETURN(auto table, CreateRowTable(ts));
    (void)table;
  } else {
    DASHDB_ASSIGN_OR_RETURN(auto table, CreateColumnTable(ts));
    (void)table;
  }
  (void)session;
  QueryResult r;
  r.message = "TABLE CREATED";
  return r;
}

Result<QueryResult> Engine::ExecSet(Session* session,
                                    const ast::Statement& st) {
  QueryResult r;
  std::string name = NormalizeIdent(st.set_name);
  if (name == "SQL_DIALECT" || name == "SQL_COMPAT" || name == "DIALECT") {
    Dialect d;
    if (!DialectFromName(NormalizeIdent(st.set_value), &d)) {
      return Status::InvalidArgument("unknown dialect " + st.set_value);
    }
    session->set_dialect(d);
    r.message = "DIALECT " + std::string(DialectName(d));
    return r;
  }
  if (name == "SCHEMA" || name == "CURRENT_SCHEMA") {
    session->set_default_schema(NormalizeIdent(st.set_value));
    r.message = "SCHEMA " + session->default_schema();
    return r;
  }
  if (name == "DOP" || name == "QUERY_PARALLELISM" ||
      name == "MAX_PARALLELISM" || name == "DEGREE") {
    // DB2-style CURRENT DEGREE: an integer caps the session's intra-query
    // parallelism; ANY (or DEFAULT) restores the engine-configured degree.
    std::string v = NormalizeIdent(st.set_value);
    int dop = 0;
    if (v != "ANY" && v != "DEFAULT") {
      try {
        dop = std::stoi(v);
      } catch (...) {
        return Status::InvalidArgument("invalid degree " + st.set_value);
      }
      if (dop < 1) {
        return Status::InvalidArgument("degree must be >= 1 or ANY");
      }
    }
    session->set_max_parallelism(dop);
    r.message = "DOP " + std::to_string(EffectiveDop(*session));
    return r;
  }
  if (name == "RESULT_CACHE") {
    std::string v = NormalizeIdent(st.set_value);
    if (v == "ON" || v == "TRUE" || v == "1") {
      session->set_result_cache_enabled(true);
    } else if (v == "OFF" || v == "FALSE" || v == "0") {
      session->set_result_cache_enabled(false);
    } else {
      return Status::InvalidArgument("RESULT_CACHE must be ON or OFF");
    }
    r.message = std::string("RESULT_CACHE ") +
                (session->result_cache_enabled() ? "ON" : "OFF");
    return r;
  }
  if (name == "STATEMENT_TIMEOUT" || name == "QUERY_TIMEOUT") {
    // Seconds (fractional allowed); 0 / NONE / DEFAULT disarms.
    std::string v = NormalizeIdent(st.set_value);
    double seconds = 0;
    if (v != "NONE" && v != "DEFAULT") {
      try {
        seconds = std::stod(v);
      } catch (...) {
        return Status::InvalidArgument("invalid timeout " + st.set_value);
      }
      if (seconds < 0) {
        return Status::InvalidArgument("timeout must be >= 0");
      }
    }
    session->set_statement_timeout_seconds(seconds);
    r.message = "STATEMENT_TIMEOUT " + std::to_string(seconds);
    return r;
  }
  if (name == "MEM_BUDGET" || name == "QUERY_MEM_LIMIT") {
    // Bytes; 0 / NONE / DEFAULT means unlimited.
    std::string v = NormalizeIdent(st.set_value);
    int64_t bytes = 0;
    if (v != "NONE" && v != "DEFAULT") {
      try {
        bytes = std::stoll(v);
      } catch (...) {
        return Status::InvalidArgument("invalid budget " + st.set_value);
      }
      if (bytes < 0) {
        return Status::InvalidArgument("budget must be >= 0");
      }
    }
    session->set_mem_budget_bytes(bytes);
    r.message = "MEM_BUDGET " + std::to_string(bytes);
    return r;
  }
  if (name == "ADMISSION") {
    std::string v = NormalizeIdent(st.set_value);
    if (v == "ON" || v == "TRUE" || v == "1") {
      session->set_admission_enabled(true);
    } else if (v == "OFF" || v == "FALSE" || v == "0") {
      session->set_admission_enabled(false);
    } else {
      return Status::InvalidArgument("ADMISSION must be ON or OFF");
    }
    r.message = std::string("ADMISSION ") +
                (session->admission_enabled() ? "ON" : "OFF");
    return r;
  }
  // Unknown session variables are accepted and ignored (compatibility).
  r.message = "SET " + name;
  return r;
}

}  // namespace dashdb

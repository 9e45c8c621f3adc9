// SQL session state: the dialect variable (paper II.C.2 — "a session
// variable is leveraged allowing individual sessions to decide the dialect
// to use when compiling SQL"), default schema, sequences, and the execution
// context handed to expressions.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/dialect.h"
#include "common/query_context.h"
#include "common/trace.h"
#include "exec/expr.h"
#include "sql/ast.h"

namespace dashdb {

/// A statement compiled by PREPARE: the shared parsed AST plus the dialect
/// it was compiled under (paper II.C.2 — objects remember their dialect).
/// EXECUTE re-binds the AST with the call's parameter vector; the AST
/// itself is immutable and may be shared with the engine's plan cache.
struct PreparedStatement {
  ast::StatementP stmt;
  Dialect dialect = Dialect::kAnsi;
  std::string sql;
  int param_count = 0;
};

/// One sequence's state (Oracle seq.NEXTVAL/CURRVAL, DB2 NEXT VALUE FOR).
struct SequenceState {
  int64_t next = 1;
  int64_t current = 0;
  bool has_current = false;
};

class Session {
 public:
  /// Every SET-able setting, in one place so one assignment copies them
  /// all (MPP shard attempts bind on fresh sessions that carry the shard
  /// session's settings).
  struct Settings {
    Dialect dialect = Dialect::kAnsi;
    std::string default_schema = "PUBLIC";
    int max_parallelism = 0;  ///< 0 = ANY
    bool result_cache_enabled = false;
    double statement_timeout_s = 0;
    int64_t mem_budget_bytes = 0;
    bool admission_enabled = true;
  };

  /// Copies every setting of `other`. Per-statement and per-connection
  /// state (current query, prepared statements, sequences, bind
  /// parameters, last trace) stays as it is.
  void CopySettingsFrom(const Session& other) {
    settings_ = other.settings_;
    exec_ctx_.dialect = settings_.dialect;
  }

  Dialect dialect() const { return settings_.dialect; }
  void set_dialect(Dialect d) {
    settings_.dialect = d;
    exec_ctx_.dialect = d;
  }

  const std::string& default_schema() const { return settings_.default_schema; }
  void set_default_schema(std::string s) {
    settings_.default_schema = std::move(s);
  }

  ExecContext& exec_ctx() { return exec_ctx_; }
  const ExecContext& exec_ctx() const { return exec_ctx_; }

  /// Session cap on intra-query parallelism (SET DOP / CURRENT DEGREE).
  /// 0 = ANY: use the engine-configured degree. The engine clamps the
  /// effective degree to [1, engine parallelism].
  int max_parallelism() const { return settings_.max_parallelism; }
  void set_max_parallelism(int dop) { settings_.max_parallelism = dop; }

  /// Span tree recorded by the last EXPLAIN ANALYZE on this session (null
  /// until one runs). Programmatic access for trace-stability tests and
  /// tooling; the rendered form is in the statement's message.
  std::shared_ptr<const Trace> last_trace() const { return last_trace_; }
  void set_last_trace(std::shared_ptr<const Trace> t) {
    last_trace_ = std::move(t);
  }

  /// Sequences are session-scoped in this engine (CURRVAL is per session in
  /// real systems; NEXTVAL sharing across sessions is out of scope).
  Status CreateSequence(const std::string& name) {
    if (sequences_.count(name)) {
      return Status::AlreadyExists("sequence " + name);
    }
    sequences_[name] = SequenceState{};
    return Status::OK();
  }

  Result<int64_t> SequenceNext(const std::string& name) {
    auto it = sequences_.find(name);
    if (it == sequences_.end()) return Status::NotFound("sequence " + name);
    it->second.current = it->second.next++;
    it->second.has_current = true;
    return it->second.current;
  }

  Result<int64_t> SequenceCurrent(const std::string& name) const {
    auto it = sequences_.find(name);
    if (it == sequences_.end()) return Status::NotFound("sequence " + name);
    if (!it->second.has_current) {
      return Status::SemanticError("CURRVAL before NEXTVAL for " + name);
    }
    return it->second.current;
  }

  bool HasSequence(const std::string& name) const {
    return sequences_.count(name) > 0;
  }

  /// Always false, and read by nothing that runs a query. It exists only
  /// because dashbench/targets.cc still compiles
  /// `bopts.scan.shared_scan = s->shared_scan_enabled();`; delete it
  /// together with that line.
  bool shared_scan_enabled() const { return false; }

  /// SET RESULT_CACHE ON|OFF: serve repeated read-only statements from the
  /// engine's versioned result cache (OFF by default; writes invalidate by
  /// version bump, so a hit is never stale).
  bool result_cache_enabled() const { return settings_.result_cache_enabled; }
  void set_result_cache_enabled(bool on) {
    settings_.result_cache_enabled = on;
  }

  // --- query governance (DESIGN.md "Query governance") -------------------

  /// SET STATEMENT_TIMEOUT <seconds>: deadline armed on every subsequent
  /// statement's QueryContext. 0 = none.
  double statement_timeout_seconds() const {
    return settings_.statement_timeout_s;
  }
  void set_statement_timeout_seconds(double s) {
    settings_.statement_timeout_s = s > 0 ? s : 0;
  }

  /// SET MEM_BUDGET <bytes>: per-statement memory reservation cap charged
  /// by materializing operators. 0 = unlimited.
  int64_t mem_budget_bytes() const { return settings_.mem_budget_bytes; }
  void set_mem_budget_bytes(int64_t b) {
    settings_.mem_budget_bytes = b > 0 ? b : 0;
  }

  /// SET ADMISSION ON|OFF: whether this session's SELECTs pass through the
  /// engine's admission controller (ON by default; OFF bypasses queueing).
  bool admission_enabled() const { return settings_.admission_enabled; }
  void set_admission_enabled(bool on) { settings_.admission_enabled = on; }

  /// The governor of the statement currently executing on this session
  /// (null between statements). Published by the engine under a mutex so a
  /// concurrent CANCEL from another thread targets the right statement.
  void PublishCurrentQuery(std::shared_ptr<QueryContext> qc) {
    std::lock_guard<std::mutex> lk(query_mu_);
    current_query_ = std::move(qc);
  }

  /// Cancels the in-flight statement, if any. Returns whether one was
  /// running. Safe from any thread (the CANCEL path of a serving layer).
  bool CancelCurrentQuery() {
    std::lock_guard<std::mutex> lk(query_mu_);
    if (!current_query_) return false;
    current_query_->Cancel();
    return true;
  }

  std::shared_ptr<QueryContext> current_query() const {
    std::lock_guard<std::mutex> lk(query_mu_);
    return current_query_;
  }

  /// Test hook: the next statement executes under this pre-armed context
  /// (one-shot). Lets deterministic tests arm CancelAfterChecks before the
  /// engine creates the per-statement governor.
  void InjectNextQueryContext(std::shared_ptr<QueryContext> qc) {
    pending_query_ = std::move(qc);
  }
  std::shared_ptr<QueryContext> TakeInjectedQueryContext() {
    return std::move(pending_query_);
  }

  // --- prepared statements (serving layer PREPARE/EXECUTE) ---------------

  /// Registers (or replaces) a named prepared statement.
  void AddPrepared(const std::string& name, PreparedStatement ps) {
    prepared_[name] = std::move(ps);
  }

  Result<PreparedStatement> GetPrepared(const std::string& name) const {
    auto it = prepared_.find(name);
    if (it == prepared_.end()) {
      return Status::NotFound("prepared statement " + name);
    }
    return it->second;
  }

  bool RemovePrepared(const std::string& name) {
    return prepared_.erase(name) > 0;
  }

  /// Parameter vector for the statement currently binding ('?' markers).
  /// Set by the engine around ExecutePrepared; one statement binds at a
  /// time per session, so this is plain session state, not shared state.
  void set_bind_params(std::vector<Value> params) {
    bind_params_ = std::move(params);
  }
  void clear_bind_params() { bind_params_.clear(); }

  Result<Value> BindParam(int index) const {
    if (index < 0 || static_cast<size_t>(index) >= bind_params_.size()) {
      return Status::SemanticError(
          "parameter ?" + std::to_string(index + 1) + " not bound (" +
          std::to_string(bind_params_.size()) + " supplied)");
    }
    return bind_params_[static_cast<size_t>(index)];
  }

 private:
  Settings settings_;
  mutable std::mutex query_mu_;
  std::shared_ptr<QueryContext> current_query_;
  std::shared_ptr<QueryContext> pending_query_;
  std::shared_ptr<const Trace> last_trace_;
  ExecContext exec_ctx_;
  std::map<std::string, SequenceState> sequences_;
  std::map<std::string, PreparedStatement> prepared_;
  std::vector<Value> bind_params_;
};

}  // namespace dashdb

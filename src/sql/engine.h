// The single-node SQL engine: parse -> bind -> execute, DDL/DML handling,
// session management, and the stored-procedure registry (the SQL surface
// through which Spark jobs are launched, paper II.D.1). The MPP layer
// (src/mpp) composes one Engine per data shard.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "bufferpool/bufferpool.h"
#include "catalog/catalog.h"
#include "common/query_context.h"
#include "exec/admission.h"
#include "exec/operator.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"
#include "sql/result_cache.h"
#include "sql/session.h"
#include "storage/column_table.h"
#include "storage/io_model.h"
#include "storage/row_table.h"

namespace dashdb {

/// Result of one statement.
struct QueryResult {
  std::vector<OutputCol> columns;  ///< empty for DDL/DML
  RowBatch rows;
  int64_t affected_rows = 0;
  std::string message;             ///< DDL ack / EXPLAIN plan text

  bool has_rows() const { return !columns.empty(); }
};

/// Whether a SELECT's result may be served from the versioned result cache:
/// no '?' parameters, no sequence references, no clock-reading functions
/// (SYSDATE / CURRENT_DATE / NOW / AGE). Shared by the engine and the MPP
/// coordinator cache.
bool IsResultCacheableSelect(const ast::SelectStmt& sel);

/// Engine-wide configuration (set once; the autoconfigurator in src/deploy
/// produces these from detected hardware).
struct EngineConfig {
  size_t buffer_pool_bytes = size_t{256} << 20;
  ReplacementPolicy buffer_policy = ReplacementPolicy::kRandomWeight;
  /// Default organization for CREATE TABLE (the appliance baseline engine
  /// runs with kRow).
  TableOrganization default_organization = TableOrganization::kColumn;
  /// Scan feature toggles (II.B levers; the Test-4 competitor disables
  /// operate_on_compressed + synopsis).
  bool use_synopsis = true;
  bool use_swar = true;
  bool operate_on_compressed = true;
  /// Charge scans to the buffer pool.
  bool charge_buffer_pool = false;
  /// Storage I/O cost model (DESIGN.md substitutions): buffer-pool misses
  /// charge modeled read time, accumulated per engine.
  IoModel io_model;
  /// Intra-query degree of parallelism (paper II.A/II.B.6): the autoconfig
  /// layer sets this to the detected core count. 1 = serial execution
  /// (default, so hand-built engines behave exactly as before); 0 = detect
  /// from std::thread::hardware_concurrency at engine startup. Sessions can
  /// lower the effective degree with SET DOP.
  int query_parallelism = 1;
  /// Admission-control slots/queue for concurrent SELECTs (defaults are
  /// generous: serial callers admit immediately). Sessions opt out with
  /// SET ADMISSION OFF.
  AdmissionConfig admission;
};

class ThreadPool;

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Catalog* catalog() { return &catalog_; }
  BufferPool* buffer_pool() { return &pool_; }
  const EngineConfig& config() const { return config_; }

  /// Resolved intra-query parallelism (>= 1) and the worker pool backing it
  /// (null when the engine runs serial). The pool is engine-owned and shared
  /// by all sessions; ParallelFor's caller participation keeps nested use
  /// deadlock-free.
  int query_parallelism() const { return query_parallelism_; }
  ThreadPool* exec_pool() { return exec_pool_.get(); }

  /// Effective degree for one session: the engine degree, lowered (never
  /// raised) by the session's SET DOP override.
  int EffectiveDop(const Session& session) const;

  std::shared_ptr<Session> CreateSession();

  /// Parses and executes one statement. Single-statement SELECT/EXPLAIN
  /// texts go through the shared plan cache (parse once per normalized
  /// text + dialect; see src/sql/plan_cache.h).
  Result<QueryResult> Execute(Session* session, const std::string& sql);

  /// Executes a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(Session* session, const std::string& sql);

  // --- prepared statements (serving layer PREPARE/EXECUTE) ---------------

  /// Compiles `sql` (which may contain '?' positional parameters) under the
  /// session's current dialect and registers it on the session as `name`.
  /// Returns the number of parameters the statement takes.
  Result<int> Prepare(Session* session, const std::string& name,
                      const std::string& sql);

  /// Executes a statement previously registered by Prepare, binding the
  /// given values to its '?' markers (in text order) and compiling under
  /// the dialect recorded at PREPARE time.
  Result<QueryResult> ExecutePrepared(Session* session, const std::string& name,
                                      std::vector<Value> params);

  /// Stored procedures (CALL name(args)): the integration point used by the
  /// Spark layer's SQL interface.
  using Procedure = std::function<Result<QueryResult>(
      const std::vector<Value>& args, Session* session, Engine* engine)>;
  void RegisterProcedure(const std::string& name, Procedure proc);

  /// Programmatic table management (benches/examples/MPP loaders).
  Result<std::shared_ptr<ColumnTable>> CreateColumnTable(TableSchema schema);
  Result<std::shared_ptr<RowTable>> CreateRowTable(TableSchema schema);
  Result<std::shared_ptr<CatalogEntry>> GetTable(const std::string& schema,
                                                 const std::string& table);

  ScanOptions MakeScanOptions();
  uint64_t NextTableId() { return next_table_id_.fetch_add(1); }

  /// Engine-owned workload manager gating SELECT admission (part of the
  /// Session -> engine-owned-shared-state refactor: sessions hold per-query
  /// knobs, the engine owns the shared slots/queue).
  AdmissionController& admission() { return admission_; }

  /// Shared plan cache (engine-owned, like the admission controller: one
  /// instance serving every session/connection).
  PlanCache& plan_cache() { return plan_cache_; }

  /// Versioned result cache serving repeated read-only statements for
  /// sessions that SET RESULT_CACHE ON (engine-owned, like the plan cache).
  ResultCache& result_cache() { return result_cache_; }

  /// Data version: bumped by every INSERT/UPDATE/DELETE/TRUNCATE so
  /// result-cache entries stamped under the old version go stale. DDL is
  /// covered by catalog_.version(), stats by stats_version().
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }
  void BumpDataVersion() {
    data_version_.fetch_add(1, std::memory_order_release);
  }

  /// The three version stamps a result-cache entry is produced under.
  ResultCache::Versions CurrentVersions() const {
    return ResultCache::Versions{catalog_.version(), stats_version(),
                                 data_version()};
  }

  /// Statistics epoch. Plan-cache entries are stamped with it; RUNSTATS /
  /// RefreshStatistics bumps it so every cached plan recompiles against the
  /// fresh statistics on next use.
  uint64_t stats_version() const {
    return stats_version_.load(std::memory_order_acquire);
  }
  void RefreshStatistics() {
    stats_version_.fetch_add(1, std::memory_order_release);
  }

  /// Modeled storage I/O accumulated since the last call (seconds). Benches
  /// add this to measured CPU time per statement.
  double TakeIoSeconds() {
    return io_nanos_.exchange(0) * 1e-9;
  }

 private:
  /// Caching intent threaded from Execute down to ExecSelect: the original
  /// statement text plus the version stamps captured BEFORE execution. The
  /// insert re-checks the stamps so a write that overlaps the execution
  /// simply skips caching (never caches a torn read).
  struct ResultCacheIntent {
    const std::string* sql;
    ResultCache::Versions versions;
  };

  Result<QueryResult> ExecuteStmt(Session* session,
                                  const ast::StatementP& stmt,
                                  const ResultCacheIntent* cache = nullptr);
  Result<QueryResult> ExecSelect(Session* session, const ast::SelectStmt& sel,
                                 bool explain_only, bool analyze = false,
                                 const ResultCacheIntent* cache = nullptr);
  Result<QueryResult> ExecInsert(Session* session, const ast::Statement& st);
  Result<QueryResult> ExecUpdate(Session* session, const ast::Statement& st);
  Result<QueryResult> ExecDelete(Session* session, const ast::Statement& st);
  Result<QueryResult> ExecCreateTable(Session* session,
                                      const ast::Statement& st);
  Result<QueryResult> ExecSet(Session* session, const ast::Statement& st);

  /// Builds the per-statement governor from the session's SET knobs (or the
  /// test-injected context) and publishes it as the session's current query.
  std::shared_ptr<QueryContext> MakeQueryContext(Session* session);

  /// Parses one statement through the plan cache when cacheable (single
  /// SELECT/EXPLAIN); otherwise parses directly.
  Result<ast::StatementP> ParseCached(Session* session, const std::string& sql);

  /// Collects (row id, full row) pairs matching a WHERE for DML.
  struct MatchedRows {
    std::vector<uint64_t> ids;
    RowBatch rows;  ///< full-width rows in id order
  };
  Result<MatchedRows> CollectMatches(Session* session,
                                     const CatalogEntry& entry,
                                     const ast::ExprP& where);

  EngineConfig config_;
  Catalog catalog_;
  BufferPool pool_;
  int query_parallelism_ = 1;
  std::unique_ptr<ThreadPool> exec_pool_;
  std::atomic<uint64_t> next_table_id_{1};
  AdmissionController admission_;
  PlanCache plan_cache_;
  ResultCache result_cache_;
  std::atomic<uint64_t> stats_version_{1};
  std::atomic<uint64_t> data_version_{1};
  IoSink io_nanos_{0};
  std::map<std::string, Procedure> procedures_;
  std::mutex proc_mu_;
};

}  // namespace dashdb

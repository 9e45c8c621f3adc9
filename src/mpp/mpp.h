// MPP coordinator: hash-distributed tables over per-shard engines, DDL/DML
// broadcast and routing, and two-phase distributed query execution
// (shard-local partials + coordinator merge), mirroring the shared-nothing
// scale-out of paper Figure 2.
//
// A statement's shards run concurrently on a pool the coordinator owns, and
// statements run concurrently with each other: SELECT and EXPLAIN share the
// database, every other statement (and Load/CreateTable) runs alone. Shards
// always remain executable because their file sets live on the shared
// clustered filesystem; node failure only changes WHICH node runs a shard
// (src/mpp/topology.h). MppQueryResult::MakespanOn models the wall-clock a
// cluster of the topology's nodes would take from the measured per-shard
// times; Execute's own wall-clock is what this host measured.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "mpp/topology.h"
#include "sql/engine.h"

namespace dashdb {

/// Per-query resilience policy. Shard plans are deterministic and
/// side-effect-free for SELECT, so a failed or slow attempt can simply be
/// re-executed — on a survivor after reassociation, or speculatively while
/// the straggler is still running — and the merged result stays
/// byte-identical to the fault-free run.
struct FailoverPolicy {
  /// Total attempts per shard task (first attempt included).
  int max_attempts_per_shard = 3;
  /// A SELECT attempt running longer than this is classified kTimeout and
  /// re-executed. Generous default: only injected stalls trip it in tests.
  double shard_timeout_seconds = 60.0;
  /// Straggler handling: a shard attempt still running after this long gets
  /// a speculative re-execution on a fresh session; first result wins.
  /// Negative disables speculation (the default — it costs a thread).
  double straggler_after_seconds = -1.0;
  /// Treat kUnavailable from a shard as the owner node dying: FailNode()
  /// reassociates its shards across survivors before the retry (II.E).
  bool failover_on_unavailable = true;
  /// Bounded exponential backoff between attempts, with deterministic
  /// jitter derived from the fault-injector seed.
  double backoff_base_seconds = 0.0002;
  double backoff_max_seconds = 0.005;
};

/// What fault tolerance did during one Execute (observability for tests,
/// benches, and the failover drill).
struct MppExecStats {
  uint64_t shard_retries = 0;        ///< re-executed shard attempts
  uint64_t failovers = 0;            ///< nodes failed over mid-query
  uint64_t timeouts = 0;             ///< attempts past the timeout budget
  uint64_t speculative_launches = 0; ///< straggler re-executions started
  uint64_t speculative_wins = 0;     ///< ... that beat the primary
};

// --- flow-controlled shard -> coordinator exchange -------------------------
//
// Shard SELECT results no longer materialize in one piece on the producer
// side: the shard plan drains into size-bounded, column-encoded chunks that
// travel through a credit-window channel. The producer blocks (a "stall")
// whenever the full window is in flight, so a slow coordinator backpressures
// the shard instead of letting it buffer an unbounded result. VARCHAR
// columns ride dictionary-coded (distinct strings once + minimal-width
// codes), which is where the wire wins over raw row shipping.

/// One wire unit of the exchange.
struct ExchangeChunk {
  std::string payload;   ///< column-encoded rows (EncodeExchangeBatch)
  size_t raw_bytes = 0;  ///< in-memory bytes this chunk decodes back to
  size_t rows = 0;
};

/// Bounded SPSC channel with credit-based backpressure. Push blocks while
/// `window` chunks are in flight; Close publishes the producer's terminal
/// status; Pop drains remaining chunks after Close before reporting it.
class ExchangeChannel {
 public:
  explicit ExchangeChannel(size_t window = 4)
      : window_(window == 0 ? 1 : window) {}

  /// Blocks until a credit frees up (counted as one stall), then enqueues.
  /// Chunks pushed after CancelConsumer are dropped without blocking.
  void Push(ExchangeChunk chunk);

  /// Producer-side terminal: no more chunks; `status` is the produce result.
  void Close(Status status);

  /// Consumer-side abort: unblocks and discards the producer's remaining
  /// pushes (decode error / cancelled query).
  void CancelConsumer();

  /// Returns true with the next chunk, or false when closed and drained
  /// (then *status receives the producer's terminal status).
  bool Pop(ExchangeChunk* chunk, Status* status);

  uint64_t stalls() const;
  size_t high_water() const;  ///< max chunks ever simultaneously in flight

 private:
  const size_t window_;
  mutable std::mutex mu_;
  std::condition_variable can_push_, can_pop_;
  std::deque<ExchangeChunk> queue_;
  bool closed_ = false;
  bool cancelled_ = false;
  Status status_;
  uint64_t stalls_ = 0;
  size_t high_water_ = 0;
};

/// Encodes rows [begin, end) of a compacted batch into the exchange wire
/// format: per column a type byte, optional null bytes, then 8-byte values
/// (integer-backed types and DOUBLE) or a string dictionary plus 1/2/4-byte
/// codes sized to the dictionary (VARCHAR).
std::string EncodeExchangeBatch(const RowBatch& rows, size_t begin,
                                size_t end);

/// Appends a chunk's rows onto `into` (columns must already exist with the
/// producing plan's output types).
Status DecodeExchangeBatch(const std::string& payload, RowBatch* into);

/// A distributed query's result plus per-shard timing.
struct MppQueryResult {
  QueryResult result;
  std::vector<double> shard_seconds;
  MppExecStats exec;
  /// Per-shard breakdown of `exec` for SELECT paths (empty for DDL/DML);
  /// EXPLAIN ANALYZE renders these as per-shard attempt/retry counters.
  std::vector<MppExecStats> shard_exec;
  /// Span tree for EXPLAIN ANALYZE: MppQuery -> Shard -> operator spans.
  /// Shards run concurrently, but the coordinator adds their spans in shard
  /// order once all have finished, so ids are deterministic and the tree
  /// replays exactly under a fixed fault seed.
  std::shared_ptr<const Trace> trace;

  /// Modeled cluster wall-clock on `topo` (max over nodes of LPT schedule).
  double MakespanOn(const ClusterTopology& topo) const {
    return topo.Makespan(shard_seconds);
  }
};

class MppDatabase {
 public:
  /// `shards_per_node` shards per node ("several factors larger than the
  /// number of servers"), each shard backed by its own engine instance.
  /// A statement runs its shards on min(hardware threads, shards) threads,
  /// the calling thread included.
  MppDatabase(int nodes, int shards_per_node, int cores_per_node,
              size_t ram_per_node, EngineConfig shard_config = {});

  /// The shard -> node map. Statements fail nodes over mid-query, so read
  /// or change it only while no statement runs.
  ClusterTopology* topology() { return &topo_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Engine* shard_engine(int shard) { return shards_[shard].get(); }

  /// Creates a table on every shard. `replicated` tables receive full
  /// copies on every shard (dimension tables, enabling shard-local joins);
  /// otherwise rows hash-distribute on `schema.distribution_key()` (or
  /// round-robin when -1).
  Status CreateTable(const TableSchema& schema, bool replicated = false);

  /// Distributes a batch of rows into the shards.
  Status Load(const std::string& schema, const std::string& table,
              const RowBatch& rows);

  /// Executes a statement across the cluster. Thread-safe: SELECT and
  /// EXPLAIN run concurrently with each other; every other statement runs
  /// alone.
  /// SELECT: runs shard-local plans concurrently and merges (two-phase
  /// aggregation for COUNT/SUM/MIN/MAX/AVG, coordinator-side ORDER
  /// BY/LIMIT). DDL/UPDATE/DELETE: broadcast. INSERT: routed by
  /// distribution key.
  Result<MppQueryResult> Execute(const std::string& sql);

  /// Governed execution: the statement runs under `qctx` (null makes a
  /// fresh ungoverned context). Cancel()/deadline/budget on the root stop
  /// shard-local plans at the next morsel boundary, keep further shards
  /// from being dispatched, and bound the merged-result memory; every shard
  /// attempt runs under this root or a child of it.
  Result<MppQueryResult> Execute(const std::string& sql,
                                 std::shared_ptr<QueryContext> qctx);

  /// Per-shard live row count of a table (balance checks).
  Result<std::vector<size_t>> ShardRowCounts(const std::string& schema,
                                             const std::string& table);

  /// Every table registered via CreateTable: (qualified name, replicated).
  std::vector<std::pair<std::string, bool>> ListDistributedTables() const {
    std::shared_lock<std::shared_mutex> read_lock(mu_);
    std::vector<std::pair<std::string, bool>> out;
    for (const auto& [name, rep] : replicated_) out.emplace_back(name, rep);
    return out;
  }

  /// Resilience knobs; adjust before Execute (not thread-safe mid-query).
  FailoverPolicy& failover_policy() { return fail_policy_; }

 private:
  /// One shard attempt's payload: SELECT paths fill batch/cols, the
  /// broadcast path fills qr. Each attempt owns its payload so concurrent
  /// (speculative) attempts never share output state.
  struct ShardAttemptOut {
    RowBatch batch;
    /// `batch`'s bytes, charged to the statement's budget chunk by chunk as
    /// the shard decodes them, so an over-budget query fails while its
    /// shards still run. Released with the payload.
    MemCharge charge;
    std::vector<OutputCol> cols;
    QueryResult qr;
    /// EXPLAIN ANALYZE payloads (filled when the shard fn runs analyzed):
    /// the annotated shard plan and its operator span tree.
    std::string analyzed_plan;
    std::shared_ptr<Trace> shard_trace;
  };
  struct AttemptResult {
    Status status;
    ShardAttemptOut out;
  };
  /// One shard's outcome in RunShards: the payload, fault-tolerance
  /// counters, and wall time of its successful attempt.
  struct ShardRun {
    ShardAttemptOut out;
    MppExecStats stats;
    double seconds = 0;
  };
  /// A re-executable shard task. Attempts run concurrently — one per shard,
  /// plus a straggler's speculative duplicate — so an attempt that binds
  /// does so on its own session (NewShardSession). `qctx` is the attempt's
  /// governor (the query root, or a child of it under speculation): the fn
  /// attaches it to the shard-local plan so cancellation, deadlines, and
  /// budgets reach every morsel it runs.
  using ShardFn = std::function<Status(int shard, QueryContext* qctx,
                                       ShardAttemptOut* out)>;

  /// A fresh session on `shard` carrying every setting of sessions_[shard].
  std::shared_ptr<Session> NewShardSession(int shard);

  /// A re-executable bind+drain of one shard-local SELECT. Captures the
  /// statement by shared_ptr so re-executions stay valid. Each shard binds
  /// the plan a single node would: dimensions are replicated, so the
  /// shard's own joins build their runtime scan filters locally. With
  /// `analyze` the fn also fills the attempt's analyzed_plan/shard_trace
  /// from the drained plan's operator metrics.
  ShardFn MakeShardSelectFn(std::shared_ptr<ast::SelectStmt> stmt,
                            bool analyze);

  /// Runs `fn` on every shard under the failover policy; returns each
  /// shard's outcome, or the first failure in shard order. Works in rounds
  /// over the pending shards: this thread evaluates the `mpp.shard_exec`
  /// gate in shard order (so fault hits map to shards identically on every
  /// run), the shard bodies run concurrently on pool_, then this thread
  /// decides retries in shard order — failover, one backoff sleep for the
  /// round — and the retried shards form the next round. A body failure
  /// that will not be retried stops the round from dispatching further
  /// shards, and a failed attempt's payload is freed at once. `idempotent`
  /// marks side-effect-free tasks (SELECT); non-idempotent tasks only
  /// retry failures at the gate, before the task ran.
  Result<std::vector<ShardRun>> RunShards(bool idempotent, const ShardFn& fn,
                                          QueryContext* qctx);
  /// First-result-wins speculation: the primary attempt runs async under
  /// its own child QueryContext; if the speculative re-execution finishes
  /// first, the loser is actively cancelled through that context and
  /// joined before returning (it stops at its next morsel boundary), so no
  /// attempt ever outlives the Execute call that launched it.
  Status AttemptWithSpeculation(int shard, const ShardFn& fn,
                                QueryContext* qctx, MppExecStats* stats,
                                ShardAttemptOut* out);

  Result<MppQueryResult> ExecSelect(const ast::SelectStmt& sel,
                                    QueryContext* qctx, bool analyze = false);
  /// Version stamps for the coordinator result cache: shard 0's catalog /
  /// stats / data versions (broadcast DDL, RUNSTATS, and broadcast DML all
  /// reach shard 0) plus the coordinator's own data counter (covers routed
  /// INSERTs and Loads that may skip shard 0 entirely).
  ResultCache::Versions CoordinatorVersions();
  /// Runs `st` (whose text is `sql`) on every shard. DML reports the
  /// cluster's row count: the sum over shards for a distributed table, one
  /// replica's count for a replicated one.
  Result<MppQueryResult> Broadcast(const ast::Statement& st,
                                   const std::string& sql, QueryContext* qctx);
  Result<MppQueryResult> RoutedInsert(const ast::Statement& st,
                                      const std::string& sql,
                                      QueryContext* qctx);
  int RouteRow(const TableSchema& schema, const std::vector<Value>& row);
  bool IsReplicated(const std::string& schema, const std::string& table) const;
  /// A DML statement's target schema: its own, else the session default.
  std::string TargetSchema(const ast::Statement& st) const;

  FailoverPolicy fail_policy_;
  ClusterTopology topo_;
  std::mutex topo_mu_;  ///< guards topo_: statements fail nodes over
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::map<std::string, bool> replicated_;  ///< qualified name -> replicated
  size_t round_robin_ = 0;
  /// Coordinator-level result cache (SET RESULT_CACHE ON): whole merged
  /// MppQueryResults keyed on statement text, stamped with
  /// CoordinatorVersions() so any write anywhere in the cluster invalidates.
  ResultCache result_cache_;
  std::atomic<uint64_t> data_version_{1};
  bool result_cache_enabled_ = false;
  /// SELECT and EXPLAIN hold mu_ shared; every other statement, Load, and
  /// CreateTable hold it exclusively, so shard sessions, replicated_, and
  /// shard data never change under a running query. A writer holds
  /// turnstile_ while it waits and runs, and readers pass through it before
  /// taking mu_, so a stream of readers cannot starve a writer.
  mutable std::shared_mutex mu_;
  std::mutex turnstile_;
  /// Threads that run one statement's shards, the calling thread included.
  int shard_parallelism_ = 1;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dashdb

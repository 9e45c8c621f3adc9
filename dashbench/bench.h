// dashbench: one benchmark for the deployed system. Shared types for the
// workloads, the two kinds of deployed instance (single-node and MPP), and
// the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "sql/engine.h"

namespace dashdb {
class MppDatabase;
}

namespace dashbench {

using dashdb::QueryResult;
using dashdb::Result;
using dashdb::RowBatch;
using dashdb::Status;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64. The benchmark owns its generator, so the inputs for a seed
/// stay the same whatever the engine's own Rng does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  int64_t Int(uint64_t n) { return static_cast<int64_t>(Uniform(n)); }

 private:
  uint64_t state_;
};

/// Linear-interpolated percentile (p in [0, 1]) of a sample; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Order-sensitive checksum of a result: column names, then every cell's
/// text, row by row. Equal checksums mean byte-identical results.
uint64_t ResultChecksum(const QueryResult& r);

/// Process CPU (user + system) and peak resident set, from getrusage.
struct ProcessUsage {
  double cpu_seconds = 0;
  double peak_rss_mb = 0;
};
ProcessUsage ReadProcessUsage();

/// kWrite is INSERT/UPDATE/DELETE; kDdl is CREATE/DROP/TRUNCATE.
enum class StmtClass : uint8_t { kRead, kWrite, kDdl, kExplain };

inline bool IsWrite(StmtClass c) {
  return c == StmtClass::kWrite || c == StmtClass::kDdl;
}

/// One statement a client sends, with what the benchmark expects back.
struct Stmt {
  std::string sql;
  StmtClass cls = StmtClass::kRead;
  enum class Check : uint8_t {
    kNone,      ///< success is all that is checked
    kChecksum,  ///< result checksum equals the oracle's (set at setup)
    kAffected,  ///< affected_rows equals `expect`
    kRows,      ///< row count equals `expect`
  };
  Check check = Check::kNone;
  uint64_t checksum = 0;
  int64_t expect = 0;
};

/// Why a result does not match its expectation; empty when it matches.
std::string Verify(const Stmt& st, const QueryResult& r);

/// One client's statement sequence. Time-windowed workloads cycle through
/// it; fixed-count workloads run it once, the first `warmup` statements
/// unmeasured.
struct Script {
  std::vector<const Stmt*> seq;
  size_t warmup = 0;
};

// --- in-memory trace of the traced run ----------------------------------

/// Layers the traced pipeline records spans for. Each statement gets one
/// kStatement root; the other spans are its children, except that a
/// shard's parent is the statement's kMppExecute.
enum class Layer : uint8_t {
  kStatement,
  kParse,       ///< sql: plan-cache lookup, parse on a miss (Prepare for DML)
  kBind,        ///< sql: Binder::BindSelect
  kAdmission,   ///< exec: AdmissionController::Admit
  kDrain,       ///< exec: AttachQueryContext + DrainOperator
  kWrite,       ///< engine: INSERT/UPDATE/DELETE via ExecutePrepared
  kDdl,         ///< catalog: CREATE/DROP/TRUNCATE via ExecutePrepared
  kExplain,     ///< engine: EXPLAIN via ExecutePrepared
  kMppBackend,  ///< server: MppBackend session Execute (statement lock + run)
  kMppExecute,  ///< mpp: MppDatabase::Execute
  kShard,       ///< mpp: one shard task (MppQueryResult::shard_seconds)
  kCount,
};
const char* LayerName(Layer l);

/// Operator families that self time is summed into.
enum class OpFamily : uint8_t { kScan, kFilter, kProject, kJoin, kAgg, kSort, kExchange, kOther, kCount };
const char* OpFamilyName(OpFamily f);

struct Span {
  uint32_t stmt = 0;    ///< statement id, shared by the statement's spans
  Layer layer = Layer::kStatement;
  double start_s = 0;   ///< since the log's origin
  double dur_s = 0;
};

/// One client's spans plus what the traced statements reported about
/// themselves. Single-threaded: each client owns one.
struct SpanLog {
  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin(origin) {}

  Clock::time_point origin;
  std::vector<Span> spans;
  uint32_t next_stmt = 0;
  double self_s[static_cast<int>(OpFamily::kCount)] = {};
  double scan_rows = 0;                ///< rows out of scan operators
  std::vector<double> mem_peak_mb;     ///< per read statement
  std::vector<double> drain_s;         ///< per read statement
  std::vector<double> shard_skew;      ///< MPP: max shard / mean shard
  double mpp_shard_s = 0, mpp_execute_s = 0, mpp_makespan_s = 0;
  /// MPP: each statement sent through MppBackend, with its kMppBackend span.
  std::vector<std::pair<const Stmt*, double>> backend_calls;

  void Add(uint32_t stmt, Layer l, Clock::time_point a, Clock::time_point b) {
    spans.push_back({stmt, l, SecondsBetween(origin, a), SecondsBetween(a, b)});
  }
  /// Adds each operator's self time (wall minus its children's) from a
  /// plan or MPP trace into self_s; returns the summed wall of the spans
  /// directly under "Shard" spans (the shard-local plan roots).
  double AddOperatorTrace(const dashdb::Trace& trace);
};

// --- the deployed system -------------------------------------------------

/// Rows and seconds spent in table loads during one deployment, plus the
/// stored footprint.
struct LoadStats {
  uint64_t rows = 0;
  double seconds = 0;
  double raw_bytes = 0;
  double compressed_bytes = 0;
};

/// A deployed instance: a wire server for the untraced clients, and
/// in-process entry points for the traced run and the solo pass.
class Target {
 public:
  virtual ~Target() = default;
  virtual int port() const = 0;
  /// The plain in-process statement: Engine::Execute on the client's
  /// session, or the client's own MppBackend session.
  virtual Result<QueryResult> Execute(int client, const std::string& sql) = 0;
  /// The same statement as the traced window runs it, spans into `log`.
  /// Single node: the engine's pipeline step by step. MPP: the client's
  /// MppBackend session, one kMppBackend span.
  virtual Result<QueryResult> ExecuteTraced(int client, const Stmt& st,
                                            SpanLog* log) = 0;
  /// The statement with its layers spelled out, for the solo pass (nothing
  /// else runs). MPP: the coordinator's parse and one shard's bind
  /// replayed, then MppDatabase::Execute of "EXPLAIN ANALYZE <sql>" for the
  /// per-shard times and operator trace.
  virtual Result<QueryResult> ExecuteSolo(int client, const Stmt& st,
                                          SpanLog* log) {
    return ExecuteTraced(client, st, log);
  }
};

/// Boots a single-node instance through DashDbLocal::Deploy() with engine
/// defaults and serves it on an ephemeral loopback port. `load` runs before
/// the server starts.
Result<std::unique_ptr<Target>> DeploySingleNode(
    int clients, const std::function<Status(dashdb::Engine*)>& load);

/// Builds an MPP cluster of `nodes` x `shards_per_node` shard engines with
/// engine defaults and serves it through MppBackend; each of `clients`
/// also gets an in-process MppBackend session.
Result<std::unique_ptr<Target>> DeployMpp(
    int nodes, int shards_per_node, int clients,
    const std::function<Status(dashdb::MppDatabase*)>& load);

// --- workloads ------------------------------------------------------------

struct WorkloadOptions {
  uint64_t seed = 1;
  double seconds = 10;
  /// Data-size factor (1 = full size); the smoke test shrinks it.
  double scale = 1.0;
};

/// Unmeasured warm-up before the measured window: caches fill and lazy
/// set-up finishes first.
inline double WarmupSeconds(double seconds) {
  return seconds * 0.2 < 2.0 ? seconds * 0.2 : 2.0;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  /// Fixed-count scripts (etl_mixed) run once instead of cycling.
  virtual bool fixed_count() const { return false; }
  /// Generates the inputs and fills in the expected results, untimed and
  /// before this process starts any thread. Whatever it deploys to do so
  /// runs in a child process, so peak_rss_mb sees only the deployment.
  virtual Status Prepare() = 0;
  /// Deploys a fresh instance, loads the workload's data, starts serving.
  virtual Result<std::unique_ptr<Target>> Deploy(LoadStats* load) = 0;
  virtual const Script& script(int client) const = 0;
  /// Repeatable reads for the traced run's solo pass (coverage and wire
  /// overhead).
  virtual std::vector<const Stmt*> SoloSample() const = 0;
  /// Checks the state the run left behind; `digest` receives a checksum of
  /// it that must repeat for a given seed.
  virtual Status VerifyFinalState(Target*, std::string* digest) {
    (void)digest;
    return Status::OK();
  }
};

std::unique_ptr<Workload> MakeStarAnalytics(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeDashboardConcurrent(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeEtlMixed(const WorkloadOptions& opts);
std::unique_ptr<Workload> MakeMppRollup(const WorkloadOptions& opts);

}  // namespace dashbench

// Figure 2: MPP shared-nothing scale-out. Fixed total data is distributed
// over 1..8 nodes (4 shards per node). Per-shard execution times are
// measured, and each topology's cluster wall-clock is modelled as its
// makespan (LPT per node). Beside it the bench prints the wall time of
// Execute measured on this host, where every topology's shards share the
// host's hardware threads: the modelled column is what N machines would
// take, the measured column what concurrent shards take on one.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "mpp/mpp.h"

using namespace dashdb;
using namespace dashdb::bench;

namespace {

constexpr size_t kTotalRows = 800000;

struct ScalePoint {
  double modelled_s = 0;  ///< topology makespan over measured shard times
  double measured_s = 0;  ///< Execute wall-clock on this host, best of 3
};

Result<ScalePoint> LoadAndQuery(int nodes) {
  MppDatabase db(nodes, /*shards_per_node=*/4, /*cores_per_node=*/8,
                 size_t{16} << 30);
  TableSchema schema("PUBLIC", "F",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"G", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kDouble, true, 0, false}});
  schema.set_distribution_key(0);
  DASHDB_RETURN_IF_ERROR(db.CreateTable(schema));
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kDouble);
  Rng rng(4);
  for (size_t i = 0; i < kTotalRows; ++i) {
    rows.columns[0].AppendInt(static_cast<int64_t>(i));
    rows.columns[1].AppendInt(static_cast<int64_t>(rng.Uniform(1000)));
    rows.columns[2].AppendDouble(rng.Uniform(10000) / 100.0);
  }
  DASHDB_RETURN_IF_ERROR(db.Load("PUBLIC", "F", rows));
  ScalePoint p;
  p.measured_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    DASHDB_ASSIGN_OR_RETURN(
        MppQueryResult r,
        db.Execute("SELECT G, COUNT(*), SUM(V), AVG(V) FROM F GROUP BY G"));
    p.measured_s = std::min(p.measured_s, sw.ElapsedSeconds());
    // Makespan must be computed against THIS db's topology before it dies.
    p.modelled_s = r.MakespanOn(*db.topology());
  }
  return p;
}

}  // namespace

int main() {
  PrintHeader("Figure 2: MPP shared-nothing scale-out (fixed total data)");
  std::printf("  host hardware threads: %u\n",
              std::thread::hardware_concurrency());
  std::printf("  %5s %8s %16s %14s %10s %16s\n", "nodes", "shards",
              "modeled query s", "speedup vs 1", "efficiency",
              "measured wall s");
  double base = 0;
  for (int nodes : {1, 2, 4, 8}) {
    auto p = LoadAndQuery(nodes);
    if (!p.ok()) {
      std::fprintf(stderr, "failed: %s\n", p.status().ToString().c_str());
      return 1;
    }
    if (nodes == 1) base = p->modelled_s;
    double speedup = base / p->modelled_s;
    std::printf("  %5d %8d %16.4f %13.2fx %9.0f%% %16.4f\n", nodes, nodes * 4,
                p->modelled_s, speedup, 100.0 * speedup / nodes,
                p->measured_s);
  }
  PrintNote("shape: near-linear modelled speedup — each node owns 1/N of the "
            "shards and scans proceed shard-parallel (paper: 'scales to "
            "massive data and compute'); the measured column runs every "
            "topology's shards concurrently on this one host");
  return 0;
}

// Design-choice ablation: each of the paper's architectural levers
// (II.B.2 operating on compressed data, II.B.4 data skipping, II.B.6
// software SIMD, II.B.5 cache policy, II.B.7 join index layout, runtime
// join filters) toggled one at a time on a scan-heavy query, quantifying
// its contribution. Exits nonzero when the join arms or the runtime-filter
// arms disagree on their rows or checksum, or an arm does not build the
// join index or take the filter it is meant to measure.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/datetime.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/operator.h"

using namespace dashdb;
using namespace dashdb::bench;

namespace {

constexpr size_t kRows = 3000000;

/// A join key times an odd constant (wrapping): a bijection, so joins on
/// spread keys match exactly the rows joins on the plain keys do, but the
/// spread keys span far more than 8 values per build row and so always
/// take the hash index.
int64_t Spread(int64_t k) {
  return static_cast<int64_t>(static_cast<uint64_t>(k) *
                              0x9E3779B97F4A7C15ull);
}

std::shared_ptr<ColumnTable> MakeTable() {
  TableSchema schema("PUBLIC", "F",
                     {{"TS", TypeId::kDate, true, 0, false},
                      {"CODE", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false},
                      {"VX", TypeId::kInt64, true, 0, false}});
  auto t = std::make_shared<ColumnTable>(schema, 1);
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kDate);
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  Rng rng(1);
  ZipfGenerator code(256, 1.1, 2);
  const int32_t start = DaysFromCivil(2012, 1, 1);
  for (size_t i = 0; i < kRows; ++i) {
    rows.columns[0].AppendInt(start + static_cast<int32_t>(i * 1500 / kRows));
    rows.columns[1].AppendInt(static_cast<int64_t>(code.Next()));
    const int64_t v = rng.Range(0, 1000000);
    rows.columns[2].AppendInt(v);
    rows.columns[3].AppendInt(Spread(v));
  }
  if (!t->Load(rows).ok()) std::exit(1);
  return t;
}

double TimeScan(const ColumnTable& t, const ScanOptions& opts, int reps) {
  ColumnPredicate date_pred;
  date_pred.column = 0;
  date_pred.int_range.lo = DaysFromCivil(2015, 6, 1);
  ColumnPredicate code_pred;
  code_pred.column = 1;
  code_pred.int_range.lo = 0;
  code_pred.int_range.hi = 3;  // hot codes -> short frequency partitions
  Stopwatch sw;
  size_t total = 0;
  for (int r = 0; r < reps; ++r) {
    (void)t.Scan({date_pred, code_pred}, {2}, opts,
                 [&](RowBatch& b, const std::vector<uint64_t>&) {
                   total += b.num_rows();
                 });
  }
  if (total == 0) std::exit(2);
  return sw.ElapsedSeconds() / reps;
}

}  // namespace

int main() {
  PrintHeader("Ablation: contribution of each architectural lever");
  auto t = MakeTable();
  const int kReps = 5;
  ScanOptions full;
  double base = TimeScan(*t, full, kReps);
  std::printf("  %-44s %10.2f ms  %8s\n", "all levers on (dashDB)",
              base * 1e3, "1.00x");
  struct Case {
    const char* name;
    ScanOptions opts;
  };
  ScanOptions no_syn = full;
  no_syn.use_synopsis = false;
  ScanOptions no_swar = full;
  no_swar.use_swar = false;
  ScanOptions no_comp = full;
  no_comp.operate_on_compressed = false;
  ScanOptions none;
  none.use_synopsis = false;
  none.use_swar = false;
  none.operate_on_compressed = false;
  for (const Case& c : {Case{"- data skipping (II.B.4)", no_syn},
                        Case{"- software SIMD (II.B.6)", no_swar},
                        Case{"- operate on compressed (II.B.2)", no_comp},
                        Case{"- all three (naive column store)", none}}) {
    double s = TimeScan(*t, c.opts, kReps);
    std::printf("  %-44s %10.2f ms  %7.2fx slower\n", c.name, s * 1e3,
                s / base);
  }

  // Join index layouts (II.B.7): the hash index, radix-partitioned into
  // cache-sized tables, over spread keys; and the direct-address index over
  // the plain keys. Both arms join the same rows, so they must agree on the
  // output's row count and checksum.
  int status = 0;
  {
    ExecContext ctx;
    // A build side far larger than L2/L3: 2M rows over 1M keys, each key
    // twice.
    auto dim_schema = TableSchema("PUBLIC", "D",
                                  {{"K", TypeId::kInt64, false, 0, false},
                                   {"KX", TypeId::kInt64, false, 0, false}});
    auto dim = std::make_shared<ColumnTable>(dim_schema, 2);
    RowBatch drows;
    drows.columns.emplace_back(TypeId::kInt64);
    drows.columns.emplace_back(TypeId::kInt64);
    for (int i = 0; i < 2000000; ++i) {
      drows.columns[0].AppendInt(i % 1000000);
      drows.columns[1].AppendInt(Spread(i % 1000000));
    }
    (void)dim->Load(drows);
    struct Arm {
      const char* name;
      int key;  ///< 0: V = K, 1: VX = KX
      const char* index;  ///< the index EXPLAIN ANALYZE must report
      double seconds = 0;
      size_t rows = 0;
      uint64_t checksum = 0;
    };
    Arm arms[] = {
        {"hash join, cache-partitioned (II.B.7)", 1, "index=hash"},
        {"direct-address join index", 0, "index=dense"},
    };
    for (Arm& arm : arms) {
      // Probe V, VX; build K, KX: every arm emits the same four columns.
      auto probe = std::make_unique<ColumnScanOp>(
          t, std::vector<ColumnPredicate>{}, std::vector<int>{2, 3},
          ScanOptions{});
      auto build = std::make_unique<ColumnScanOp>(
          dim, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1},
          ScanOptions{});
      auto key = std::make_shared<ColumnRefExpr>(arm.key, TypeId::kInt64);
      HashJoinOp join(std::move(probe), std::move(build),
                      std::vector<ExprPtr>{key}, std::vector<ExprPtr>{key},
                      JoinType::kInner, &ctx);
      // Rows stream into an order-sensitive checksum instead of being
      // materialized (the join emits ~6M rows); only the join is timed.
      Stopwatch open_sw;
      if (!join.Open().ok()) std::exit(3);
      arm.seconds = open_sw.ElapsedSeconds();
      RowBatch b;
      for (;;) {
        Stopwatch sw;
        auto more = join.Next(&b);
        arm.seconds += sw.ElapsedSeconds();
        if (!more.ok()) std::exit(3);
        if (!*more) break;
        for (size_t i = 0; i < b.num_rows(); ++i) {
          for (const ColumnVector& c : b.columns) {
            arm.checksum = arm.checksum * 1000003u ^
                           static_cast<uint64_t>(c.GetInt(i));
          }
        }
        arm.rows += b.num_rows();
      }
      if (join.AnalyzeString().find(arm.index) == std::string::npos) {
        std::printf("  MISMATCH: %s did not build %s: %s\n", arm.name,
                    arm.index, join.AnalyzeString().c_str());
        status = 4;
      }
    }
    for (const Arm& arm : arms) {
      std::printf("  %-44s %10.2f ms  %7.2fx  rows=%zu checksum=%016llx\n",
                  arm.name, arm.seconds * 1e3, arm.seconds / arms[0].seconds,
                  arm.rows, static_cast<unsigned long long>(arm.checksum));
      if (arm.rows != arms[0].rows || arm.checksum != arms[0].checksum) {
        std::printf("  MISMATCH: %s disagrees with %s\n", arm.name,
                    arms[0].name);
        status = 4;
      }
    }
    PrintNote("finding: the direct-address index skips hashing altogether "
              "(EXPERIMENTS.md)");
  }
  // Runtime join filters: a 1M-row scan of (K, V) semi-joined with the
  // build keys 0..59999 (plus a NULL), with no filter, a Bloom filter and
  // the exact dense key set. K = i % 100000 runs in page-long ascending
  // stretches, so some pages lie inside the keys' range (the dense filter
  // skips them untouched), some straddle it and some miss it. The arms
  // without the exact set re-check each row against it, so all three must
  // agree on the row count and checksum.
  {
    constexpr size_t kScanRows = 1000000;
    auto schema = TableSchema("PUBLIC", "S",
                              {{"K", TypeId::kInt64, true, 0, false},
                               {"V", TypeId::kInt64, true, 0, false}});
    auto fact = std::make_shared<ColumnTable>(schema, 3);
    RowBatch rows;
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kInt64);
    Rng rng(3);
    for (size_t i = 0; i < kScanRows; ++i) {
      rows.columns[0].AppendInt(static_cast<int64_t>(i % 100000));
      rows.columns[1].AppendInt(rng.Range(0, 1000000));
    }
    if (!fact->Load(rows).ok()) std::exit(1);
    ColumnVector keys(TypeId::kInt64);
    keys.AppendNull();
    for (int64_t k = 0; k < 60000; ++k) keys.AppendInt(k);
    const ScanRuntimeFilter dense = MakeRuntimeFilter(0, keys, TypeId::kInt64);
    auto bloom = std::make_shared<BloomPrefilter>();
    bloom->Init(keys.size());
    for (size_t r = 0; r < keys.size(); ++r) {
      if (!keys.IsNull(r)) bloom->Add(HashCell(keys, r));
    }
    struct Arm {
      const char* name;
      std::vector<ScanRuntimeFilter> filters;
      const char* label;  ///< what EXPLAIN ANALYZE must report, or null
      double seconds = 0;
      size_t rows = 0;
      uint64_t checksum = 0;
      std::string analyze{};
    };
    Arm arms[] = {
        {"no runtime filter", {}, nullptr},
        {"Bloom runtime filter", {{0, bloom}}, " filter=bloom"},
        {"dense runtime filter (exact key set)", {dense}, " filter=dense"},
    };
    for (Arm& arm : arms) {
      ColumnScanOp scan(fact, {}, {0, 1}, ScanOptions{});
      for (const ScanRuntimeFilter& f : arm.filters) {
        if (!scan.AcceptRuntimeFilter(f)) std::exit(5);
      }
      if (!scan.Open().ok()) std::exit(5);
      const bool exact = arm.filters.size() == 1 && arm.filters[0].dense;
      RowBatch b;
      for (;;) {
        Stopwatch sw;
        auto more = scan.Next(&b);
        arm.seconds += sw.ElapsedSeconds();
        if (!more.ok()) std::exit(5);
        if (!*more) break;
        for (size_t i = 0; i < b.num_rows(); ++i) {
          if (!exact && !dense.Keeps(b.columns[0], i)) continue;
          arm.checksum = arm.checksum * 1000003u ^
                         static_cast<uint64_t>(b.columns[0].GetInt(i)) ^
                         static_cast<uint64_t>(b.columns[1].GetInt(i)) << 20;
          ++arm.rows;
        }
      }
      arm.analyze = scan.AnalyzeString();
      if (arm.label != nullptr &&
          arm.analyze.find(arm.label) == std::string::npos) {
        std::printf("  MISMATCH: %s did not take%s: %s\n", arm.name, arm.label,
                    arm.analyze.c_str());
        status = 5;
      }
    }
    for (const Arm& arm : arms) {
      std::printf("  %-44s %10.2f ms  %7.2fx  rows=%zu checksum=%016llx\n",
                  arm.name, arm.seconds * 1e3, arm.seconds / arms[0].seconds,
                  arm.rows, static_cast<unsigned long long>(arm.checksum));
      if (arm.rows != arms[0].rows || arm.checksum != arms[0].checksum) {
        std::printf("  MISMATCH: %s disagrees with %s\n", arm.name,
                    arms[0].name);
        status = 5;
      }
    }
    std::printf("  %s\n", arms[2].analyze.c_str());
  }
  PrintNote("each lever contributes independently; the naive configuration "
            "is the Test-4 competitor profile");
  return status;
}

// Morsel-driven parallelism end-to-end: parallel execution must return the
// same rows as serial execution at every degree, over both the TPC-DS mini
// star schema and the customer workload's statement stream, and EXPLAIN
// must report the effective degree. The hash-join probe, hash aggregation
// and Top-N consume bounded input windows; each is driven at DOP 1 and 4
// and must be byte-identical, including when the input is one huge batch.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/threadpool.h"
#include "exec/operator.h"
#include "exec/sort.h"
#include "sql/engine.h"
#include "sort_oracle.h"
#include "workloads/customer_workload.h"
#include "workloads/tpcds_mini.h"

namespace dashdb {
namespace {

using bench::CustomerScale;
using bench::CustomerWorkload;
using bench::LoadTpcds;
using bench::TpcdsQueries;
using bench::TpcdsScale;

EngineConfig ParallelConfig(int qp) {
  EngineConfig cfg;
  cfg.default_organization = TableOrganization::kColumn;
  cfg.query_parallelism = qp;
  return cfg;
}

/// Rows as sorted strings. Doubles print at 6 significant digits: parallel
/// aggregation merges partial sums in a different order than the serial
/// fold, which legally perturbs the last bits of floating-point results.
std::vector<std::string> SortedRows(const QueryResult& r) {
  std::vector<std::string> rows;
  const size_t n = r.rows.num_rows();
  for (size_t i = 0; i < n; ++i) {
    std::string row;
    for (const ColumnVector& cv : r.rows.columns) {
      Value v = cv.GetValue(i);
      if (v.is_null()) {
        row += "<null>";
      } else if (v.type() == TypeId::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v.AsDouble());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Strips a trailing "LIMIT n": under TOP-N, ties at the cutoff make the
/// selected rows legitimately order-dependent, so equality is compared on
/// the full result instead (LimitOp itself is covered by tier-1 tests).
std::string WithoutLimit(const std::string& q) {
  size_t pos = q.rfind(" LIMIT ");
  return pos == std::string::npos ? q : q.substr(0, pos);
}

TEST(ParallelExecTest, TpcdsResultsIdenticalAcrossDegrees) {
  Engine engine(ParallelConfig(8));
  auto session = engine.CreateSession();
  TpcdsScale scale;
  scale.store_sales_rows = 60000;
  ASSERT_TRUE(LoadTpcds(&engine, scale, /*index_keys=*/false).ok());
  for (const auto& q : TpcdsQueries()) {
    const std::string sql = WithoutLimit(q);
    std::vector<std::vector<std::string>> per_dop;
    for (int dop : {1, 2, 8}) {
      auto s = engine.Execute(session.get(),
                              "SET DOP = " + std::to_string(dop));
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      auto r = engine.Execute(session.get(), sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      per_dop.push_back(SortedRows(*r));
    }
    EXPECT_EQ(per_dop[0], per_dop[1]) << "dop 2 diverged: " << sql;
    EXPECT_EQ(per_dop[0], per_dop[2]) << "dop 8 diverged: " << sql;
  }
}

TEST(ParallelExecTest, CustomerWorkloadMatchesSerialEngine) {
  // Two engines run the identical statement stream: one hard-serial, one
  // with an 8-way pool. Every row-returning statement must agree.
  Engine serial(ParallelConfig(1));
  Engine parallel(ParallelConfig(8));
  CustomerScale scale;
  scale.rows_per_table = 12000;
  scale.num_statements = 400;
  CustomerWorkload w1(scale), w2(scale);
  ASSERT_TRUE(w1.Setup(&serial).ok());
  ASSERT_TRUE(w2.Setup(&parallel).ok());
  auto s1 = serial.CreateSession();
  auto s2 = parallel.CreateSession();
  size_t compared = 0;
  for (const auto& stmt : w1.MakeStatements()) {
    auto r1 = serial.Execute(s1.get(), stmt.sql);
    auto r2 = parallel.Execute(s2.get(), stmt.sql);
    ASSERT_EQ(r1.ok(), r2.ok()) << stmt.sql;
    if (!r1.ok()) continue;
    EXPECT_EQ(r1->affected_rows, r2->affected_rows) << stmt.sql;
    if (r1->has_rows()) {
      EXPECT_EQ(SortedRows(*r1), SortedRows(*r2)) << stmt.sql;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelExecTest, ExplainReportsDegreeOfParallelism) {
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  ASSERT_TRUE(engine
                  .Execute(session.get(),
                           "CREATE TABLE T (G INT NOT NULL, K INT, V INT)")
                  .ok());
  ASSERT_TRUE(engine
                  .Execute(session.get(),
                           "CREATE TABLE D (K INT NOT NULL, A INT)")
                  .ok());
  auto plan = engine.Execute(
      session.get(),
      "EXPLAIN SELECT T.G, COUNT(*), SUM(T.V) FROM T, D "
      "WHERE T.K = D.K GROUP BY T.G");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->message.find("ColumnScan(PUBLIC.T preds=0 cols=3 dop=4)"),
            std::string::npos)
      << plan->message;
  EXPECT_NE(plan->message.find("dop=4"), std::string::npos) << plan->message;
  EXPECT_NE(plan->message.find("build-dop=4"), std::string::npos)
      << plan->message;

  // SET DOP = 1 turns the same statement fully serial.
  ASSERT_TRUE(engine.Execute(session.get(), "SET DOP = 1").ok());
  plan = engine.Execute(
      session.get(),
      "EXPLAIN SELECT T.G, COUNT(*), SUM(T.V) FROM T, D "
      "WHERE T.K = D.K GROUP BY T.G");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->message.find("ColumnScan(PUBLIC.T preds=0 cols=3)"),
            std::string::npos)
      << plan->message;
  EXPECT_EQ(plan->message.find("dop="), std::string::npos) << plan->message;

  // SET DOP = ANY restores the engine-configured degree.
  auto set = engine.Execute(session.get(), "SET DOP = ANY");
  ASSERT_TRUE(set.ok());
  EXPECT_NE(set->message.find("4"), std::string::npos) << set->message;
}

TEST(ParallelExecTest, SessionDegreeClampsToEngineDegree) {
  Engine engine(ParallelConfig(2));
  auto session = engine.CreateSession();
  auto r = engine.Execute(session.get(), "SET DOP = 64");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.EffectiveDop(*session), 2);
  r = engine.Execute(session.get(), "SET DOP = 0");
  EXPECT_FALSE(r.ok());
}

TEST(ParallelExecTest, DistinctAggregateStaysSerialButCorrect) {
  // COUNT(DISTINCT ...) cannot merge thread-local partials; the operator
  // must fall back to the serial path and still be right at any degree.
  Engine engine(ParallelConfig(8));
  auto session = engine.CreateSession();
  ASSERT_TRUE(
      engine.Execute(session.get(), "CREATE TABLE U (G INT, V INT)").ok());
  std::string insert = "INSERT INTO U VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i % 5) + ", " + std::to_string(i % 37) +
              ")";
  }
  ASSERT_TRUE(engine.Execute(session.get(), insert).ok());
  auto r = engine.Execute(
      session.get(), "SELECT G, COUNT(DISTINCT V) FROM U GROUP BY G");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.num_rows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r->rows.columns[1].GetInt(i), 37);
  }
}


// ---------------------------------------------------------------------------
// Hash-join probe: DOP 1 vs DOP 4, byte for byte

/// Emits a fixed list of batches in order (each may carry a selection).
class BatchSourceOp : public Operator {
 public:
  BatchSourceOp(std::vector<RowBatch> batches, std::vector<OutputCol> cols)
      : batches_(std::move(batches)) {
    output_ = std::move(cols);
  }
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(RowBatch* out) override {
    if (next_ >= batches_.size()) return false;
    *out = batches_[next_++];
    return true;
  }
  std::string label() const override { return "BatchSource"; }

 private:
  std::vector<RowBatch> batches_;
  size_t next_ = 0;
};

/// Join inputs: K BIGINT (nullable), S VARCHAR (= "s<K>"), K2 BIGINT,
/// P DOUBLE (nullable payload).
const std::vector<OutputCol> kJoinCols = {{"K", TypeId::kInt64},
                                          {"S", TypeId::kVarchar},
                                          {"K2", TypeId::kInt64},
                                          {"P", TypeId::kDouble}};

void AppendJoinRow(RowBatch* b, bool null_key, int64_t k, int64_t k2,
                   int64_t p) {
  if (null_key) {
    b->columns[0].AppendNull();
    b->columns[1].AppendNull();
  } else {
    b->columns[0].AppendInt(k);
    b->columns[1].AppendString("s" + std::to_string(k));
  }
  b->columns[2].AppendInt(k2);
  if (p % 11 == 0) {
    b->columns[3].AppendNull();
  } else {
    b->columns[3].AppendDouble(static_cast<double>(p) * 0.25);
  }
}

RowBatch EmptyJoinBatch() {
  RowBatch b;
  for (const auto& c : kJoinCols) b.columns.emplace_back(c.type);
  return b;
}

/// Build side: keys 0..199, key k repeated (k % 3) + 1 times, so most keys
/// chain several build rows.
std::vector<RowBatch> BuildBatches(bool empty) {
  std::vector<RowBatch> out;
  if (empty) return out;
  RowBatch b = EmptyJoinBatch();
  int64_t row = 0;
  for (int64_t k = 0; k < 200; ++k) {
    for (int64_t d = 0; d <= k % 3; ++d) {
      AppendJoinRow(&b, false, k, k % 7, row++);
      if (b.num_rows() == 128) {
        out.push_back(std::move(b));
        b = EmptyJoinBatch();
      }
    }
  }
  out.push_back(std::move(b));
  return out;
}

/// Probe side: keys in 0..299 (a third miss the build), a NULL key every
/// 17th row, K2 off by one on every 5th row (two-key misses).
std::vector<RowBatch> ProbeBatches(size_t n_batches, size_t rows_per_batch) {
  std::vector<RowBatch> out;
  int64_t row = 0;
  for (size_t b = 0; b < n_batches; ++b) {
    RowBatch batch = EmptyJoinBatch();
    for (size_t i = 0; i < rows_per_batch; ++i, ++row) {
      const int64_t k = (row * 37) % 300;
      const int64_t k2 = row % 5 == 0 ? k % 7 + 1 : k % 7;
      AppendJoinRow(&batch, row % 17 == 0, k, k2, row);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

struct JoinCase {
  std::string name;
  std::vector<int> keys;  ///< key columns, same index on both sides
  JoinType type;
  bool filtered;          ///< probe through a FilterOp (selection vectors)
  bool empty_build;
};

/// Every cell as type, null flag and exact value, row by row.
std::string BatchBytes(const RowBatch& b) {
  std::string s;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    for (const ColumnVector& cv : b.columns) {
      s += std::to_string(static_cast<int>(cv.type()));
      if (cv.IsNull(i)) {
        s += ":null|";
      } else if (cv.type() == TypeId::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof buf, ":%a|", cv.GetDouble(i));
        s += buf;
      } else {
        s += ":" + cv.GetValue(i).ToString() + "|";
      }
    }
    s += '\n';
  }
  return s;
}

/// Output rows a join case must produce, counted by brute force.
size_t ExpectedJoinRows(const JoinCase& jc,
                        const std::vector<RowBatch>& probe,
                        const std::vector<RowBatch>& build) {
  auto key_of = [&](const RowBatch& b, size_t r, std::string* key) {
    for (int c : jc.keys) {
      if (b.columns[c].IsNull(r)) return false;
      *key += b.columns[c].GetValue(r).ToString() + "|";
    }
    return true;
  };
  std::map<std::string, size_t> build_count;
  for (const RowBatch& b : build) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::string key;
      if (key_of(b, r, &key)) ++build_count[key];
    }
  }
  size_t rows = 0;
  for (const RowBatch& b : probe) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      if (jc.filtered && r % 3 == 0) continue;  // the FilterOp's predicate
      std::string key;
      size_t m = 0;
      if (key_of(b, r, &key)) {
        auto it = build_count.find(key);
        if (it != build_count.end()) m = it->second;
      }
      rows += m > 0 ? m : (jc.type == JoinType::kLeft ? 1 : 0);
    }
  }
  return rows;
}

/// Runs one join case at `dop`; returns the output bytes and fills
/// *analyze with the join's EXPLAIN ANALYZE line.
std::string RunJoinCase(const JoinCase& jc,
                        const std::vector<RowBatch>& probe,
                        const std::vector<RowBatch>& build, ThreadPool* pool,
                        int dop, size_t* rows, std::string* analyze) {
  ExecContext ctx;
  ctx.pool = pool;
  ctx.dop = dop;
  // The filtered variant adds POS = dense row index mod 3 and keeps
  // POS <> 0, so the join sees batches carrying a selection vector.
  std::vector<RowBatch> probe_in = probe;
  std::vector<OutputCol> probe_cols = kJoinCols;
  if (jc.filtered) {
    probe_cols.push_back({"POS", TypeId::kInt64});
    for (RowBatch& b : probe_in) {
      ColumnVector pos(TypeId::kInt64);
      for (size_t r = 0; r < b.num_rows(); ++r) {
        pos.AppendInt(static_cast<int64_t>(r % 3));
      }
      b.columns.push_back(std::move(pos));
    }
  }
  OperatorPtr probe_op =
      std::make_unique<BatchSourceOp>(std::move(probe_in), probe_cols);
  if (jc.filtered) {
    auto pred = std::make_shared<CompareExpr>(
        CmpOp::kNe, std::make_shared<ColumnRefExpr>(4, TypeId::kInt64),
        std::make_shared<LiteralExpr>(Value::Int64(0)));
    probe_op = std::make_unique<FilterOp>(std::move(probe_op), pred, &ctx);
  }
  std::vector<ExprPtr> probe_keys, build_keys;
  for (int c : jc.keys) {
    probe_keys.push_back(std::make_shared<ColumnRefExpr>(c, kJoinCols[c].type));
    build_keys.push_back(std::make_shared<ColumnRefExpr>(c, kJoinCols[c].type));
  }
  HashJoinOp join(std::move(probe_op),
                  std::make_unique<BatchSourceOp>(build, kJoinCols),
                  probe_keys, build_keys, jc.type, &ctx);
  auto r = DrainOperator(&join);
  EXPECT_TRUE(r.ok()) << jc.name << ": " << r.status().ToString();
  if (!r.ok()) return std::string();
  *rows = r->num_rows();
  *analyze = join.AnalyzeString();
  return BatchBytes(*r);
}

TEST(ParallelExecTest, HashJoinProbeIdenticalAtDop1AndDop4) {
  ThreadPool pool(4);
  const std::vector<JoinCase> cases = {
      {"int inner, duplicate build keys", {0}, JoinType::kInner, false, false},
      {"int left, misses and NULL keys", {0}, JoinType::kLeft, false, false},
      {"varchar inner", {1}, JoinType::kInner, false, false},
      {"varchar left", {1}, JoinType::kLeft, false, false},
      {"two-key inner", {0, 2}, JoinType::kInner, false, false},
      {"two-key left", {0, 2}, JoinType::kLeft, false, false},
      {"int inner over a filter", {0}, JoinType::kInner, true, false},
      {"varchar left over a filter", {1}, JoinType::kLeft, true, false},
      {"int inner, empty build", {0}, JoinType::kInner, false, true},
      {"two-key left, empty build", {0, 2}, JoinType::kLeft, false, true},
  };
  // 3 x 500 rows stays under the fan-out threshold; 16 x 1024 is above it.
  const struct {
    size_t batches, rows;
    bool fans_out;
  } sizes[] = {{3, 500, false}, {16, 1024, true}};
  for (const auto& size : sizes) {
    const auto probe = ProbeBatches(size.batches, size.rows);
    for (const JoinCase& jc : cases) {
      const auto build = BuildBatches(jc.empty_build);
      const std::string label =
          jc.name + " @ " + std::to_string(size.batches) + "x" +
          std::to_string(size.rows);
      size_t rows1 = 0, rows4 = 0;
      std::string analyze1, analyze4;
      const std::string serial =
          RunJoinCase(jc, probe, build, nullptr, 1, &rows1, &analyze1);
      const std::string parallel =
          RunJoinCase(jc, probe, build, &pool, 4, &rows4, &analyze4);
      EXPECT_EQ(rows1, ExpectedJoinRows(jc, probe, build)) << label;
      EXPECT_EQ(rows1, rows4) << label;
      EXPECT_TRUE(serial == parallel) << label;
      EXPECT_NE(analyze4.find("probe-dop=4"), std::string::npos) << analyze4;
      // The fan-out decision follows the input: large windows go to the
      // pool, small ones run the same kernel inline.
      const bool fanned = analyze4.find("probe-fanouts=0/") ==
                          std::string::npos;
      EXPECT_EQ(fanned, size.fans_out) << label << ": " << analyze4;
    }
  }
}

TEST(ParallelExecTest, HashJoinProbeFansOutOverOneMaterializedBatch) {
  // The adaptive join assembler hands probe sides over as one big batch;
  // the window slices it into morsels so it still probes in parallel.
  ThreadPool pool(4);
  const JoinCase jc{"int left over one batch", {0}, JoinType::kLeft, false,
                    false};
  const auto build = BuildBatches(false);
  RowBatch all = EmptyJoinBatch();
  for (const RowBatch& b : ProbeBatches(5, 4000)) {
    for (size_t c = 0; c < all.columns.size(); ++c) {
      all.columns[c].Append(b.columns[c]);
    }
  }
  std::string bytes[2], analyze[2];
  const int dops[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ExecContext ctx;
    ctx.pool = &pool;
    ctx.dop = dops[i];
    auto probe = std::make_unique<MaterializedOp>(
        std::make_unique<BatchSourceOp>(std::vector<RowBatch>{}, kJoinCols),
        all);
    std::vector<ExprPtr> keys = {
        std::make_shared<ColumnRefExpr>(0, TypeId::kInt64)};
    HashJoinOp join(std::move(probe),
                    std::make_unique<BatchSourceOp>(build, kJoinCols), keys,
                    keys, jc.type, &ctx);
    auto r = DrainOperator(&join);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_rows(), ExpectedJoinRows(jc, {all}, build));
    bytes[i] = BatchBytes(*r);
    analyze[i] = join.AnalyzeString();
  }
  EXPECT_TRUE(bytes[0] == bytes[1]);
  EXPECT_NE(analyze[1].find("probe-fanouts=1/1"), std::string::npos)
      << analyze[1];
}

// ------------------------------------------------ direct-address join index

/// K (the join key), KX (K times an odd constant, wrapping: a bijection, so
/// the same equalities, but spread far past the direct-address range rule)
/// and ROW (the row's position on its side).
const std::vector<OutputCol> kKeyJoinCols = {{"K", TypeId::kInt64},
                                             {"KX", TypeId::kInt64},
                                             {"ROW", TypeId::kInt64}};

using Keys = std::vector<std::optional<int64_t>>;  // nullopt = NULL key

int64_t Spread(int64_t k) {
  return static_cast<int64_t>(static_cast<uint64_t>(k) *
                              0x9E3779B97F4A7C15ull);
}

RowBatch KeyJoinRows(const Keys& keys, size_t begin, size_t end) {
  RowBatch b;
  for (const auto& c : kKeyJoinCols) b.columns.emplace_back(c.type);
  for (size_t i = begin; i < end; ++i) {
    if (keys[i]) {
      b.columns[0].AppendInt(*keys[i]);
      b.columns[1].AppendInt(Spread(*keys[i]));
    } else {
      b.columns[0].AppendNull();
      b.columns[1].AppendNull();
    }
    b.columns[2].AppendInt(static_cast<int64_t>(i));
  }
  return b;
}

std::vector<RowBatch> KeyJoinBatches(const Keys& keys, size_t batch_rows) {
  std::vector<RowBatch> out;
  for (size_t i = 0; i < keys.size(); i += batch_rows) {
    out.push_back(KeyJoinRows(keys, i, std::min(keys.size(), i + batch_rows)));
  }
  return out;
}

/// The join by definition: probe rows in order, each matched by its key's
/// build rows in ascending order; a LEFT-join miss pads the build columns
/// with NULLs.
std::string ReferenceKeyJoin(const Keys& probe, const Keys& build,
                             JoinType type) {
  std::map<int64_t, std::vector<size_t>> rows_of;
  for (size_t b = 0; b < build.size(); ++b) {
    if (build[b]) rows_of[*build[b]].push_back(b);
  }
  const RowBatch probe_rows = KeyJoinRows(probe, 0, probe.size());
  const RowBatch build_rows = KeyJoinRows(build, 0, build.size());
  RowBatch out;
  for (int side = 0; side < 2; ++side) {
    for (const auto& c : kKeyJoinCols) out.columns.emplace_back(c.type);
  }
  // Appends probe row p joined to build row b (kNullRow: NULL padding).
  auto append = [&](size_t p, uint32_t b) {
    for (size_t c = 0; c < 3; ++c) {
      out.columns[c].AppendFrom(probe_rows.columns[c], p);
      if (b == ColumnVector::kNullRow) {
        out.columns[3 + c].AppendNull();
      } else {
        out.columns[3 + c].AppendFrom(build_rows.columns[c], b);
      }
    }
  };
  for (size_t p = 0; p < probe.size(); ++p) {
    auto it = probe[p] ? rows_of.find(*probe[p]) : rows_of.end();
    if (it == rows_of.end()) {
      if (type == JoinType::kLeft) append(p, ColumnVector::kNullRow);
      continue;
    }
    for (size_t b : it->second) append(p, static_cast<uint32_t>(b));
  }
  return BatchBytes(out);
}

/// Joins probe to build on column `key_col` (0 = K, 1 = KX) at `dop`.
std::string RunKeyJoin(const Keys& probe, const Keys& build, int key_col,
                       JoinType type, ThreadPool* pool, int dop,
                       std::string* analyze) {
  ExecContext ctx;
  ctx.pool = pool;
  ctx.dop = dop;
  std::vector<ExprPtr> keys = {
      std::make_shared<ColumnRefExpr>(key_col, TypeId::kInt64)};
  HashJoinOp join(
      std::make_unique<BatchSourceOp>(KeyJoinBatches(probe, 1024),
                                      kKeyJoinCols),
      std::make_unique<BatchSourceOp>(KeyJoinBatches(build, 128),
                                      kKeyJoinCols),
      keys, keys, type, &ctx);
  auto r = DrainOperator(&join);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  *analyze = join.AnalyzeString();
  return r.ok() ? BatchBytes(*r) : std::string();
}

TEST(ParallelExecTest, DenseJoinIndexMatchesHashIndexAtDop1AndDop4) {
  ThreadPool pool(4);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    std::string name;
    Keys build;
    std::vector<int64_t> probe_keys;  ///< cycled over the probe rows
    std::string index;                ///< expected EXPLAIN ANALYZE index
  };
  auto range_keys = [](int64_t lo, int64_t count, int dups) {
    Keys k;
    for (int64_t i = 0; i < count; ++i) {
      for (int d = 0; d <= (i % dups); ++d) k.push_back(lo + i);
    }
    return k;
  };
  std::vector<Case> cases;
  {
    // 100..299, key k repeated k % 3 + 1 times, a NULL every 13th row
    // (sparing the first and last keys).
    Keys b = range_keys(100, 200, 3);
    for (size_t i = 5; i < b.size(); i += 13) b[i] = std::nullopt;
    std::vector<int64_t> p;
    for (int64_t i = 0; i < 400; ++i) p.push_back(i);
    cases.push_back({"duplicates, NULLs, misses either side", b, p,
                     "index=dense range=200"});
  }
  {
    std::vector<int64_t> p;
    for (int64_t i = -1200; i < -700; i += 3) p.push_back(i);
    cases.push_back({"negative keys", range_keys(-1000, 150, 2), p,
                     "index=dense range=150"});
  }
  {
    // Near the int64 limits: small spans there stay dense, and probe keys
    // at the far end of the domain wrap to huge offsets and miss.
    std::vector<int64_t> p = {kMin, kMin + 1, kMax - 1, kMax, 0, -1};
    cases.push_back({"top of the domain", range_keys(kMax - 63, 64, 2), p,
                     "index=dense range=64"});
    cases.push_back({"bottom of the domain", range_keys(kMin, 64, 2), p,
                     "index=dense range=64"});
    // The full span: hi - lo overflows int64, and the range takes the hash
    // index without undefined behaviour.
    cases.push_back({"full span", Keys{kMin, kMax, 0, kMin, -1, kMax}, p,
                     "index=hash"});
  }
  {
    // 100 build rows: keys 0..98 plus one outlier setting the range to
    // exactly 8n (dense) or 8n + 1 (hash).
    Keys at = range_keys(0, 99, 1), over = at;
    at.push_back(799);
    over.push_back(800);
    std::vector<int64_t> p = {0, 50, 98, 99, 799, 800, 801};
    cases.push_back({"range 8n", at, p, "index=dense range=800"});
    cases.push_back({"range 8n+1", over, p, "index=hash"});
  }
  cases.push_back({"empty build", Keys{}, {1, 2, 3}, "index=hash"});
  cases.push_back({"all-NULL build", Keys(50, std::nullopt), {0, 1},
                   "index=hash"});

  for (const Case& c : cases) {
    // 16 x 1024 probe rows, so a DOP 4 window fans out; a NULL every 17th.
    Keys probe;
    for (size_t i = 0; i < 16 * 1024; ++i) {
      if (i % 17 == 0) {
        probe.push_back(std::nullopt);
      } else {
        probe.push_back(c.probe_keys[(i * 7) % c.probe_keys.size()]);
      }
    }
    for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
      const std::string want = ReferenceKeyJoin(probe, c.build, type);
      for (int dop : {1, 4}) {
        const std::string label = c.name +
                                  (type == JoinType::kLeft ? " LEFT" : "") +
                                  " @ dop " + std::to_string(dop);
        std::string analyze_k, analyze_kx;
        const std::string on_k = RunKeyJoin(probe, c.build, 0, type, &pool,
                                            dop, &analyze_k);
        const std::string on_kx = RunKeyJoin(probe, c.build, 1, type, &pool,
                                             dop, &analyze_kx);
        EXPECT_TRUE(on_k == want) << label;
        EXPECT_TRUE(on_kx == on_k) << label;
        EXPECT_NE(analyze_k.find(c.index), std::string::npos)
            << label << ": " << analyze_k;
        EXPECT_NE(analyze_kx.find("index=hash"), std::string::npos)
            << label << ": " << analyze_kx;
      }
    }
  }
}

/// G: K BIGINT (NULL every 13th row), J BIGINT, S VARCHAR (NULL every
/// 17th row), D DOUBLE (inexact decimals), V BIGINT — 50000 rows, so a
/// DOP 4 window holds enough morsels to fan out.
void LoadGroupTable(Engine* engine) {
  TableSchema schema("PUBLIC", "G",
                     {{"K", TypeId::kInt64, true, 0, false},
                      {"J", TypeId::kInt64, false, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false},
                      {"D", TypeId::kDouble, true, 0, false},
                      {"V", TypeId::kInt64, false, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  RowBatch rows;
  for (const auto& c : schema.columns()) rows.columns.emplace_back(c.type);
  for (int64_t i = 0; i < 50000; ++i) {
    const int64_t k = (i * 7919) % 1009;
    if (i % 13 == 0) {
      rows.columns[0].AppendNull();
    } else {
      rows.columns[0].AppendInt(k);
    }
    rows.columns[1].AppendInt(i % 7);
    if (i % 17 == 0) {
      rows.columns[2].AppendNull();
    } else {
      rows.columns[2].AppendString("s" + std::to_string(k % 211));
    }
    rows.columns[3].AppendDouble(static_cast<double>(i % 1000) * 0.1);
    rows.columns[4].AppendInt(i * 31 % 101);
  }
  ASSERT_TRUE(t.value()->Append(rows).ok());
}

/// A result's cells, in result order, doubles bit-exact.
std::string ResultBytes(const QueryResult& r) { return BatchBytes(r.rows); }

TEST(ParallelExecTest, GroupByWithoutOrderByIdenticalAtDop1AndDop4) {
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  LoadGroupTable(&engine);
  const std::string queries[] = {
      // Single integer key with a NULL group.
      "SELECT K, COUNT(*), SUM(V), SUM(D), MIN(S), MAX(D) FROM G GROUP BY K",
      // Multi-column key.
      "SELECT K, J, COUNT(*), AVG(D) FROM G GROUP BY K, J",
      // VARCHAR key with a NULL group.
      "SELECT S, COUNT(*), SUM(V), MIN(K) FROM G GROUP BY S",
      // Expression key and expression arguments.
      "SELECT J * 3 + 1, SUM(V * 2), AVG(D + 1) FROM G GROUP BY J * 3 + 1",
      // DISTINCT aggregates.
      "SELECT J, COUNT(DISTINCT K), SUM(DISTINCT V) FROM G GROUP BY J",
      // Global aggregate.
      "SELECT COUNT(*), SUM(D), AVG(V), MIN(S) FROM G",
  };
  for (const std::string& sql : queries) {
    std::string got[2];
    const int dops[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(engine
                      .Execute(session.get(),
                               "SET DOP = " + std::to_string(dops[i]))
                      .ok());
      auto r = engine.Execute(session.get(), sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      ASSERT_GT(r->rows.num_rows(), 0u) << sql;
      got[i] = ResultBytes(*r);
    }
    EXPECT_TRUE(got[0] == got[1]) << sql;
  }
  // The int-key query aggregates on the pool at DOP 4.
  auto analyzed = engine.Execute(session.get(),
                                 "EXPLAIN ANALYZE SELECT K, SUM(V) FROM G "
                                 "GROUP BY K");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->message.find("HashAggregate(groups=1, aggs=1, dop=4)"),
            std::string::npos)
      << analyzed->message;
  EXPECT_EQ(analyzed->message.find(" fanouts=0/"), std::string::npos)
      << analyzed->message;
}

TEST(ParallelExecTest, NullGroupNeverCollidesWithAnIntegerKey) {
  // -9223372036854775807 is INT64_MIN + 1, a value a sentinel-based NULL
  // group would absorb.
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  ASSERT_TRUE(
      engine.Execute(session.get(), "CREATE TABLE N (K BIGINT, V INT)").ok());
  ASSERT_TRUE(engine
                  .Execute(session.get(),
                           "INSERT INTO N VALUES (NULL, 1), "
                           "(-9223372036854775807, 2), (5, 4)")
                  .ok());
  for (int dop : {1, 4}) {
    ASSERT_TRUE(engine
                    .Execute(session.get(),
                             "SET DOP = " + std::to_string(dop))
                    .ok());
    auto r = engine.Execute(session.get(),
                            "SELECT K, SUM(V) FROM N GROUP BY K");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.num_rows(), 3u) << "dop=" << dop;
    EXPECT_TRUE(r->rows.columns[0].IsNull(0));
    EXPECT_EQ(r->rows.columns[1].GetInt(0), 1);
    EXPECT_EQ(r->rows.columns[0].GetInt(1), INT64_MIN + 1);
    EXPECT_EQ(r->rows.columns[1].GetInt(1), 2);
    EXPECT_EQ(r->rows.columns[0].GetInt(2), 5);
    EXPECT_EQ(r->rows.columns[1].GetInt(2), 4);
  }
  // The same keys over windows that fan out: four partials and a merge.
  ThreadPool pool(4);
  std::vector<RowBatch> batches;
  for (int b = 0; b < 12; ++b) {
    RowBatch batch;
    batch.columns.emplace_back(TypeId::kInt64);
    batch.columns.emplace_back(TypeId::kInt64);
    for (int i = 0; i < 4096; ++i) {
      const int which = (b * 4096 + i) % 3;
      if (which == 0) {
        batch.columns[0].AppendNull();
      } else {
        batch.columns[0].AppendInt(which == 1 ? INT64_MIN + 1 : 5);
      }
      batch.columns[1].AppendInt(1);
    }
    batches.push_back(std::move(batch));
  }
  for (int dop : {1, 4}) {
    ExecContext ctx;
    ctx.pool = &pool;
    ctx.dop = dop;
    std::vector<AggSpec> aggs(1);
    aggs[0].kind = AggKind::kSum;
    aggs[0].arg = std::make_shared<ColumnRefExpr>(1, TypeId::kInt64);
    HashAggOp agg(std::make_unique<BatchSourceOp>(
                      batches, std::vector<OutputCol>{{"K", TypeId::kInt64},
                                                      {"V", TypeId::kInt64}}),
                  {std::make_shared<ColumnRefExpr>(0, TypeId::kInt64)}, {"K"},
                  std::move(aggs), {"N"}, &ctx);
    auto r = DrainOperator(&agg);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 3u) << "dop=" << dop;
    EXPECT_TRUE(r->columns[0].IsNull(0));
    EXPECT_EQ(r->columns[0].GetInt(1), INT64_MIN + 1);
    EXPECT_EQ(r->columns[0].GetInt(2), 5);
    for (size_t g = 0; g < 3; ++g) {
      EXPECT_EQ(r->columns[1].GetInt(g), 12 * 4096 / 3) << "group " << g;
    }
    if (dop == 4) {
      EXPECT_EQ(agg.AnalyzeString().find(" fanouts=0/"), std::string::npos)
          << agg.AnalyzeString();
    }
  }
}

// ---------------------------------------------------------------------------
// Typed GROUP BY: direct-address group ids and columnar states

/// Group-by input: K BIGINT key, I BIGINT and D DOUBLE arguments; any of
/// the three may be NULL.
const std::vector<OutputCol> kAggCols = {{"K", TypeId::kInt64},
                                         {"I", TypeId::kInt64},
                                         {"D", TypeId::kDouble}};

struct AggRow {
  std::optional<int64_t> k, i;
  std::optional<double> d;
};

std::vector<RowBatch> AggBatches(const std::vector<AggRow>& rows,
                                 size_t batch_rows) {
  std::vector<RowBatch> out;
  for (size_t lo = 0; lo < rows.size(); lo += batch_rows) {
    RowBatch b;
    for (const OutputCol& c : kAggCols) b.columns.emplace_back(c.type);
    for (size_t r = lo; r < std::min(rows.size(), lo + batch_rows); ++r) {
      auto put_int = [](ColumnVector* cv, std::optional<int64_t> v) {
        if (v) {
          cv->AppendInt(*v);
        } else {
          cv->AppendNull();
        }
      };
      put_int(&b.columns[0], rows[r].k);
      put_int(&b.columns[1], rows[r].i);
      if (rows[r].d) {
        b.columns[2].AppendDouble(*rows[r].d);
      } else {
        b.columns[2].AppendNull();
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// COUNT(*), then COUNT, SUM, AVG, MIN and MAX of I and of D; plus
/// MEDIAN(I) when `boxed`, which keeps the operator on AggStates.
std::vector<AggSpec> TypedAggs(bool boxed) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{});
  for (int col : {1, 2}) {
    const TypeId t = kAggCols[col].type;
    for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                         AggKind::kMin, AggKind::kMax}) {
      AggSpec a;
      a.kind = kind;
      a.arg = std::make_shared<ColumnRefExpr>(col, t);
      a.out_type = AggResultType(kind, t);
      aggs.push_back(a);
    }
  }
  if (boxed) {
    AggSpec a;
    a.kind = AggKind::kMedian;
    a.arg = std::make_shared<ColumnRefExpr>(1, TypeId::kInt64);
    a.out_type = TypeId::kDouble;
    aggs.push_back(a);
  }
  return aggs;
}

/// The oracle: a std::map from key to group, groups in order of first
/// appearance, each aggregate an AggState fed row by row in stream order.
std::string ReferenceGroupBy(const std::vector<AggRow>& rows,
                             const std::vector<AggSpec>& aggs) {
  std::map<std::optional<int64_t>, size_t> group_of;
  std::vector<std::optional<int64_t>> keys;
  std::vector<std::vector<AggState>> states;
  for (const AggRow& r : rows) {
    auto [it, fresh] = group_of.emplace(r.k, keys.size());
    if (fresh) {
      keys.push_back(r.k);
      states.emplace_back();
      for (const AggSpec& a : aggs) states.back().emplace_back(&a);
    }
    const Value i = r.i ? Value::Int64(*r.i) : Value::Null(TypeId::kInt64);
    const Value d = r.d ? Value::Double(*r.d) : Value::Null(TypeId::kDouble);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const auto* ref = static_cast<const ColumnRefExpr*>(aggs[a].arg.get());
      states[it->second][a].Add(ref != nullptr && ref->index() == 2 ? d : i,
                                Value::Null(TypeId::kInt64));
    }
  }
  RowBatch out;
  out.columns.emplace_back(TypeId::kInt64);
  for (const AggSpec& a : aggs) out.columns.emplace_back(a.out_type);
  for (size_t g = 0; g < keys.size(); ++g) {
    if (keys[g]) {
      out.columns[0].AppendInt(*keys[g]);
    } else {
      out.columns[0].AppendNull();
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out.columns[a + 1].AppendValue(states[g][a].Finish());
    }
  }
  return BatchBytes(out);
}

/// GROUP BY K over `rows`, in batches of `batch_rows`, at `dop`; returns
/// the result bytes and fills *analyze.
std::string RunGroupBy(const std::vector<AggRow>& rows, bool boxed,
                       ThreadPool* pool, int dop, std::string* analyze,
                       size_t batch_rows = 4096) {
  ExecContext ctx;
  ctx.pool = pool;
  ctx.dop = dop;
  std::vector<AggSpec> aggs = TypedAggs(boxed);
  std::vector<std::string> names(aggs.size(), "A");
  HashAggOp agg(std::make_unique<BatchSourceOp>(AggBatches(rows, batch_rows),
                                                kAggCols),
                {std::make_shared<ColumnRefExpr>(0, TypeId::kInt64)}, {"K"},
                std::move(aggs), names, &ctx);
  auto r = DrainOperator(&agg);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  *analyze = agg.AnalyzeString();
  return r.ok() ? BatchBytes(*r) : std::string();
}

/// Arguments for row r: I and D NULL on some rows, D with inexact
/// decimals, -0.0 beside +0.0, and now and then a NaN, so MIN and MAX
/// meet signed-zero ties and NaN in whatever order the partials fold.
AggRow ArgsFor(size_t r, std::optional<int64_t> k) {
  AggRow row;
  row.k = k;
  if (r % 11 != 3) {
    row.i = static_cast<int64_t>(r * 2654435761u % 2000003) - 1000000;
  }
  if (r % 7 != 5) row.d = static_cast<double>(r % 1000) * 0.1 - 40;
  if (r % 400 == 1) row.d = -0.0;
  if (r % 1009 == 2) row.d = std::numeric_limits<double>::quiet_NaN();
  return row;
}

/// The first line where `got` and `want` differ, for a failure message.
std::string FirstDiff(const std::string& got, const std::string& want) {
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const size_t line = got.rfind('\n', at) == std::string::npos
                          ? 0
                          : got.rfind('\n', at) + 1;
  return "\n got: " + got.substr(line, got.find('\n', line) - line) +
         "\nwant: " + want.substr(line, want.find('\n', line) - line);
}

TEST(ParallelExecTest, TypedGroupByMatchesOracleAtDop1AndDop4) {
  ThreadPool pool(4);
  struct Case {
    std::string name;
    std::vector<AggRow> rows;
    const char* ids;  ///< the id path the case is written for
    bool boxed;       ///< with a MEDIAN, so on AggStates
  };
  std::vector<Case> cases;
  {
    // 60000 groups over a compact key range, a NULL key every 101st row.
    Case c{"50k groups", {}, "direct", false};
    for (size_t r = 0; r < 120000; ++r) {
      c.rows.push_back(ArgsFor(
          r, r % 101 == 0 ? std::nullopt
                          : std::optional<int64_t>(r * 7919 % 60000)));
    }
    cases.push_back(c);
    c.name += ", boxed";
    c.boxed = true;
    cases.push_back(std::move(c));
  }
  {
    // Compact for the first window (8 batches at DOP 4, one at DOP 1),
    // sparse after it: the maps convert to hashing mid-stream.
    Case c{"compact then sparse", {}, "hash", false};
    for (size_t r = 0; r < 12 * 4096; ++r) {
      const int64_t k = static_cast<int64_t>(r * 31 % 3000);
      c.rows.push_back(ArgsFor(r, r < 8 * 4096 ? k : k * (int64_t{1} << 40)));
    }
    cases.push_back(std::move(c));
  }
  {
    // 50 groups whose D is only signed zeros and NaN: every MIN is a tie
    // of -0.0 and +0.0, every MAX with a NaN is that NaN.
    Case c{"signed zeros and NaN", {}, "direct", false};
    for (size_t r = 0; r < 12 * 4096; ++r) {
      AggRow row = ArgsFor(r, static_cast<int64_t>(r % 50));
      row.d = r % 3 == 0   ? -0.0
              : r % 997 == 0 ? std::numeric_limits<double>::quiet_NaN()
                             : 0.0;
      c.rows.push_back(row);
    }
    cases.push_back(std::move(c));
  }
  {
    // Negative keys only: still direct.
    Case c{"negative keys", {}, "direct", false};
    for (size_t r = 0; r < 40000; ++r) {
      c.rows.push_back(ArgsFor(r, -1 - static_cast<int64_t>(r * 13 % 5000)));
    }
    cases.push_back(std::move(c));
  }
  {
    // Negative keys plus both int64 extremes: the span is computed without
    // overflow and breaks the rule.
    Case c{"int64 extremes", {}, "hash", false};
    for (size_t r = 0; r < 40000; ++r) {
      const int64_t k = r % 1000 == 1 ? INT64_MIN
                        : r % 1000 == 2 ? INT64_MAX
                                        : static_cast<int64_t>(r % 700) - 350;
      c.rows.push_back(ArgsFor(r, k));
    }
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string want = ReferenceGroupBy(c.rows, TypedAggs(c.boxed));
    for (int dop : {1, 4}) {
      std::string analyze;
      const std::string got = RunGroupBy(c.rows, c.boxed, &pool, dop, &analyze);
      EXPECT_TRUE(got == want) << "dop=" << dop << FirstDiff(got, want);
      EXPECT_NE(analyze.find(std::string(" ids=") + c.ids), std::string::npos)
          << analyze;
      EXPECT_NE(analyze.find(c.boxed ? " states=boxed" : " states=columnar"),
                std::string::npos)
          << analyze;
      if (dop == 4) {
        EXPECT_EQ(analyze.find(" fanouts=0/"), std::string::npos) << analyze;
      }
    }
  }
}

TEST(ParallelExecTest, GrowingWindowsFanOutFewTimesOverALongStream) {
  // A 245-page GROUP BY at DOP 4: scan and aggregate windows of 8, 16, 32
  // and then 64 pages take 6 fan-outs each, where fixed 8-page windows
  // took 31.
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  TableSchema schema("PUBLIC", "LONG", {{"ID", TypeId::kInt64, false, 0, false},
                                        {"V", TypeId::kInt64, true, 0, false}});
  auto table = engine.CreateColumnTable(schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < 244 * static_cast<int64_t>(kPageRows) + 100; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 1009);
  }
  ASSERT_TRUE((*table)->Load(rows).ok());
  ASSERT_EQ((*table)->num_pages(), 245u);
  ASSERT_TRUE(engine.Execute(session.get(), "SET DOP = 4").ok());
  auto r = engine.Execute(
      session.get(), "EXPLAIN ANALYZE SELECT V, COUNT(*) FROM LONG GROUP BY V");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& plan = r->message;
  const size_t agg = plan.find("HashAggregate(");
  ASSERT_NE(agg, std::string::npos) << plan;
  const size_t at = plan.find(" fanouts=", agg);
  ASSERT_LT(at, plan.find('\n', agg)) << plan;
  size_t fanned = 0, windows = 0;
  ASSERT_EQ(std::sscanf(plan.c_str() + at, " fanouts=%zu/%zu", &fanned,
                        &windows),
            2)
      << plan;
  EXPECT_GT(fanned, 0u) << plan;
  EXPECT_LE(windows, 8u) << plan;
}

// ---------------------------------------------------------------------------
// Top-N threshold on the leading key

/// Top-N input: L (the leading key, BIGINT or DOUBLE) and T BIGINT, the
/// row number, so any difference in tie order shows.
std::vector<RowBatch> ThresholdBatches(TypeId lead_type, size_t n) {
  std::vector<RowBatch> out;
  for (size_t lo = 0; lo < n; lo += 4096) {
    RowBatch b;
    b.columns.emplace_back(lead_type);
    b.columns.emplace_back(TypeId::kInt64);
    // Batches 3, 4 and 9 carry a few NULL leading keys — fewer than the
    // limit, so under DESC (NULLs first) a NaN still sits at the heap's
    // boundary; the others, the last ones included (where a second key's
    // ties decide the result), none.
    const size_t batch = lo / 4096;
    const bool nulls = batch == 3 || batch == 4 || batch == 9;
    for (size_t r = lo; r < std::min(n, lo + 4096); ++r) {
      if (nulls && r % 499 == 0) {
        b.columns[0].AppendNull();
      } else if (lead_type == TypeId::kDouble) {
        // Few distinct values, so the boundary holds ties: under ASC the
        // two zeros are the smallest values, under DESC NaN is the
        // largest.
        const size_t m = r % 53;
        b.columns[0].AppendDouble(m == 0   ? std::nan("")
                                  : m == 1 ? -0.0
                                  : m == 2 ? 0.0
                                           : static_cast<double>(m % 9) + 0.5);
      } else {
        b.columns[0].AppendInt(static_cast<int64_t>(r * 7 % 23) - 11);
      }
      b.columns[1].AppendInt(static_cast<int64_t>(r));
    }
    out.push_back(std::move(b));
  }
  return out;
}

TEST(ParallelExecTest, TopNThresholdMatchesTheOracleAtDop1AndDop4) {
  ThreadPool pool(4);
  for (TypeId lead : {TypeId::kInt64, TypeId::kDouble}) {
    const std::vector<OutputCol> cols = {{"L", lead}, {"T", TypeId::kInt64}};
    const auto batches = ThresholdBatches(lead, 40 * 4096);
    RowBatch all;
    for (const OutputCol& c : cols) all.columns.emplace_back(c.type);
    for (const RowBatch& b : batches) {
      for (size_t c = 0; c < all.columns.size(); ++c) {
        all.columns[c].Append(b.columns[c]);
      }
    }
    for (bool desc : {false, true}) {
      for (int64_t offset : {0, 37}) {
        // The leading key alone (ties break on the stream position), and
        // with T DESC as a second key.
        for (bool second : {false, true}) {
          auto keys = [&] {
            std::vector<SortKey> k = {
                {std::make_shared<ColumnRefExpr>(0, lead), desc}};
            if (second) {
              k.push_back(
                  {std::make_shared<ColumnRefExpr>(1, TypeId::kInt64), true});
            }
            return k;
          };
          const std::string want =
              BatchBytes(sort_oracle::Sort(all, keys(), 100, offset));
          for (int dop : {1, 4}) {
            SCOPED_TRACE(std::string(TypeName(lead)) +
                         (desc ? " DESC" : " ASC") +
                         " offset=" + std::to_string(offset) +
                         (second ? " two keys" : " one key") +
                         " dop=" + std::to_string(dop));
            ExecContext ctx;
            ctx.pool = &pool;
            ctx.dop = dop;
            TopNOp topn(std::make_unique<BatchSourceOp>(batches, cols),
                        keys(), 100, offset, &ctx);
            auto r = DrainOperator(&topn);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            const std::string got = BatchBytes(*r);
            EXPECT_TRUE(got == want) << FirstDiff(got, want);
          }
        }
      }
    }
  }
}

/// K2 DESC, S: about 20 rows share each key, and their P payloads differ,
/// so any unstable tie order shows in the bytes.
std::vector<SortKey> TopNKeys() {
  return {{std::make_shared<ColumnRefExpr>(2, TypeId::kInt64), true},
          {std::make_shared<ColumnRefExpr>(1, TypeId::kVarchar), false}};
}

/// Top-N over `batches` at `dop`; returns its rows and fills *analyze.
std::string RunTopN(const std::vector<RowBatch>& batches, ThreadPool* pool,
                    int dop, std::string* analyze) {
  ExecContext ctx;
  ctx.pool = pool;
  ctx.dop = dop;
  TopNOp topn(std::make_unique<BatchSourceOp>(batches, kJoinCols), TopNKeys(),
              40, 7, &ctx);
  auto r = DrainOperator(&topn);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  *analyze = topn.AnalyzeString();
  return r.ok() ? BatchBytes(*r) : std::string();
}

TEST(ParallelExecTest, TopNFansOutOverPageBatchesAndOneHugeBatch) {
  ThreadPool pool(4);
  const auto pages = ProbeBatches(12, 4096);
  RowBatch huge = EmptyJoinBatch();
  for (const RowBatch& b : pages) {
    for (size_t c = 0; c < huge.columns.size(); ++c) {
      huge.columns[c].Append(b.columns[c]);
    }
  }
  // The oracle: stable full sort, then rows [7, 47).
  const std::string expected =
      BatchBytes(sort_oracle::Sort(huge, TopNKeys(), 40, 7));
  for (const auto& input : {pages, std::vector<RowBatch>{huge}}) {
    for (int dop : {1, 4}) {
      // The plan above kTopNMaxCapacity over the same input: full sort,
      // then LimitOp.
      ExecContext ctx;
      ctx.pool = &pool;
      ctx.dop = dop;
      LimitOp limit(std::make_unique<SortOp>(
                        std::make_unique<BatchSourceOp>(input, kJoinCols),
                        TopNKeys(), &ctx),
                    40, 7);
      auto full = DrainOperator(&limit);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_TRUE(BatchBytes(*full) == expected)
          << "sort+limit " << input.size() << " batches, dop=" << dop;
      std::string analyze;
      EXPECT_TRUE(RunTopN(input, &pool, dop, &analyze) == expected)
          << input.size() << " batches, dop=" << dop;
      if (dop == 4) {
        EXPECT_NE(analyze.find("heaps=4"), std::string::npos) << analyze;
        EXPECT_EQ(analyze.find(" fanouts=0/"), std::string::npos) << analyze;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Column scans: runtime Bloom filters before decode, helper CPU

/// D DOUBLE (NULL every 29th row), A BIGINT (i % 50), K BIGINT (NULL every
/// 13th row; every row of page 2 holds `miss_key`), S VARCHAR ("s" + i %
/// 300): five loaded pages plus `tail` rows in the uncompressed tail.
std::shared_ptr<ColumnTable> MakeScanTable(int64_t miss_key, int64_t tail) {
  TableSchema schema("PUBLIC", "SCANNED",
                     {{"D", TypeId::kDouble, true, 0, false},
                      {"A", TypeId::kInt64, true, 0, false},
                      {"K", TypeId::kInt64, true, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false}});
  auto table = std::make_shared<ColumnTable>(schema, 900);
  auto rows = [&](int64_t begin, int64_t end) {
    RowBatch b;
    for (const auto& c : schema.columns()) b.columns.emplace_back(c.type);
    for (int64_t i = begin; i < end; ++i) {
      if (i % 29 == 0) {
        b.columns[0].AppendNull();
      } else {
        b.columns[0].AppendDouble(static_cast<double>(i) * 0.5);
      }
      b.columns[1].AppendInt(i % 50);
      const bool page2 = i / static_cast<int64_t>(kPageRows) == 2;
      if (page2) {
        b.columns[2].AppendInt(miss_key);
      } else if (i % 13 == 0) {
        b.columns[2].AppendNull();
      } else {
        b.columns[2].AppendInt(i % 2000);
      }
      b.columns[3].AppendString("s" + std::to_string(i % 300));
    }
    return b;
  };
  const int64_t loaded = 5 * static_cast<int64_t>(kPageRows);
  EXPECT_TRUE(table->Load(rows(0, loaded)).ok());
  EXPECT_TRUE(table->Append(rows(loaded, loaded + tail)).ok());
  return table;
}

/// Drains a scan of every column at `dop` over `pool` with the given
/// runtime filters installed; *stats receives its ScanStats.
std::string RunFilteredScan(std::shared_ptr<const ColumnTable> table,
                            const std::vector<ColumnPredicate>& preds,
                            const std::vector<ScanRuntimeFilter>& filters,
                            ThreadPool* pool, int dop, std::string* analyze,
                            ScanStats* stats = nullptr) {
  ScanOptions opts;
  opts.exec_pool = pool;
  opts.dop = dop;
  std::vector<int> projection(table->schema().num_columns());
  std::iota(projection.begin(), projection.end(), 0);
  ColumnScanOp op(table, preds, projection, opts);
  for (const ScanRuntimeFilter& f : filters) {
    EXPECT_TRUE(op.AcceptRuntimeFilter(f));
  }
  auto r = DrainOperator(&op);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (analyze != nullptr) *analyze = op.AnalyzeString();
  if (stats != nullptr) *stats = op.stats();
  return r.ok() ? BatchBytes(*r) : std::string();
}

TEST(ParallelExecTest, RuntimeFilteredScanIdenticalAtDop1AndDop4) {
  ThreadPool pool(4);
  // K filter: even keys below 1000. S filter: "s0".."s199". Both filter
  // keys sit behind other projected columns.
  auto k_bloom = std::make_shared<BloomPrefilter>();
  k_bloom->Init(500);
  for (int64_t k = 0; k < 1000; k += 2) {
    k_bloom->Add(HashInt64(static_cast<uint64_t>(k)));
  }
  auto s_bloom = std::make_shared<BloomPrefilter>();
  s_bloom->Init(200);
  for (int i = 0; i < 200; ++i) s_bloom->Add(HashString("s" + std::to_string(i)));
  int64_t miss_key = 1000001;
  while (k_bloom->MayContain(HashInt64(static_cast<uint64_t>(miss_key)))) {
    ++miss_key;
  }
  auto table = MakeScanTable(miss_key, 700);
  ColumnPredicate a_le_40;
  a_le_40.column = 1;
  a_le_40.int_range.hi = 40;
  const std::vector<ColumnPredicate> preds = {a_le_40};

  // The oracle: the unfiltered scan, then every row's cell hashes checked
  // against the filters, as the scan did before filters moved into pages.
  ColumnScanOp plain(table, preds, {0, 1, 2, 3}, ScanOptions{});
  auto all = DrainOperator(&plain);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  std::vector<uint32_t> keep;
  size_t page2_kept = 0, null_keys = 0;
  for (size_t r = 0; r < all->num_rows(); ++r) {
    null_keys += all->columns[2].IsNull(r);
    if (k_bloom->MayContain(HashCell(all->columns[2], r)) &&
        s_bloom->MayContain(HashCell(all->columns[3], r))) {
      keep.push_back(static_cast<uint32_t>(r));
      page2_kept += all->columns[2].GetInt(r) == miss_key;
    }
  }
  ASSERT_GT(null_keys, 0u);
  ASSERT_EQ(page2_kept, 0u) << "page 2 must be dropped entirely";
  RowBatch want;
  for (const ColumnVector& c : all->columns) {
    want.columns.emplace_back(c.type());
    want.columns.back().Gather(c, keep.data(), keep.size());
  }
  const size_t dropped = all->num_rows() - keep.size();
  ASSERT_GT(dropped, 0u);

  Counter* dropped_counter =
      MetricRegistry::Global().GetCounter("exec.bloom_rows_dropped");
  for (int dop : {1, 4}) {
    const uint64_t c0 = dropped_counter->value();
    std::string analyze;
    const std::string got = RunFilteredScan(
        table, preds, {{2, k_bloom}, {3, s_bloom}}, &pool, dop, &analyze);
    EXPECT_TRUE(got == BatchBytes(want)) << "dop " << dop;
    EXPECT_NE(analyze.find("blooms=2 bloom-dropped=" + std::to_string(dropped)),
              std::string::npos)
        << analyze;
    EXPECT_EQ(dropped_counter->value() - c0, dropped) << "dop " << dop;
  }
}

/// K BIGINT, V BIGINT (i % 50) and K2 BIGINT (i % 97, NULL every 31st
/// row) over six loaded pages and 700 tail rows. Each page holds one shape
/// of K, against the filter ranges of the test below:
///  0: i % 1000, no NULL (inside [-500, 1499]: the no-op skip);
///  1: i % 1000, a NULL every 13th row (inside, but with NULLs);
///  2: i % 3000 - 1000 (straddles both ends of [-500, 1499]);
///  3: -(i % 700) - 1 (negative, straddles the low end);
///  4: INT64_MAX - i % 5000 and INT64_MIN + i % 5000, alternating;
///  5: 5000 + i (outside every range).
/// Tail row i takes the shape of page i % 6.
std::shared_ptr<ColumnTable> MakeKeyShapeTable() {
  TableSchema schema("PUBLIC", "KEYSHAPES",
                     {{"K", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false},
                      {"K2", TypeId::kInt64, true, 0, false}});
  auto table = std::make_shared<ColumnTable>(schema, 901);
  constexpr int64_t kPages = 6;
  const int64_t page_rows = static_cast<int64_t>(kPageRows);
  auto rows = [&](int64_t begin, int64_t end) {
    RowBatch b;
    for (const auto& c : schema.columns()) b.columns.emplace_back(c.type);
    for (int64_t i = begin; i < end; ++i) {
      const int64_t shape = i < kPages * page_rows ? i / page_rows : i % 6;
      const int64_t m = i % 5000;
      switch (shape) {
        case 0: b.columns[0].AppendInt(i % 1000); break;
        case 1:
          if (i % 13 == 0) {
            b.columns[0].AppendNull();
          } else {
            b.columns[0].AppendInt(i % 1000);
          }
          break;
        case 2: b.columns[0].AppendInt(i % 3000 - 1000); break;
        case 3: b.columns[0].AppendInt(-(i % 700) - 1); break;
        case 4:
          b.columns[0].AppendInt(i % 2 == 0
                                     ? std::numeric_limits<int64_t>::max() - m
                                     : std::numeric_limits<int64_t>::min() + m);
          break;
        default: b.columns[0].AppendInt(5000 + i); break;
      }
      b.columns[1].AppendInt(i % 50);
      if (i % 31 == 0) {
        b.columns[2].AppendNull();
      } else {
        b.columns[2].AppendInt(i % 97);
      }
    }
    return b;
  };
  EXPECT_TRUE(table->Load(rows(0, kPages * page_rows)).ok());
  EXPECT_TRUE(
      table->Append(rows(kPages * page_rows, kPages * page_rows + 700)).ok());
  EXPECT_EQ(table->num_pages(), static_cast<size_t>(kPages));
  return table;
}

TEST(ParallelExecTest, RuntimeFiltersMatchExactSemiJoinAtDop1AndDop4) {
  ThreadPool pool(4);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto table = MakeKeyShapeTable();
  // Build keys in [lo, lo + count) stepping by `step`, plus one NULL.
  auto keys = [](int64_t lo, int64_t count, int64_t step) {
    ColumnVector k(TypeId::kInt64);
    k.AppendNull();
    for (int64_t i = 0; i < count; i += step) k.AppendInt(lo + i);
    return k;
  };
  struct Filter {
    int col;
    ColumnVector keys;
  };
  struct Case {
    std::string name;
    std::vector<Filter> filters;
    const char* kind;      ///< what MakeRuntimeFilter builds for each
    size_t filter_skips;   ///< pages the key synopsis lets skip the filter
  };
  std::vector<Case> cases;
  cases.push_back({"full range", {{0, keys(-500, 2000, 1)}}, "dense", 1});
  cases.push_back({"sparse range", {{0, keys(-500, 2000, 3)}}, "dense", 0});
  cases.push_back({"top of the domain", {{0, keys(kMax - 3000, 3001, 1)}},
                   "dense", 0});
  cases.push_back({"bottom of the domain", {{0, keys(kMin, 3001, 3)}},
                   "dense", 0});
  cases.push_back({"two filters",
                   {{0, keys(-500, 2000, 1)}, {2, keys(0, 97, 3)}},
                   "dense",
                   1});
  {
    // Keys 2^40 apart fail DenseJoinIndex::RangeFor: the Bloom filter.
    ColumnVector k(TypeId::kInt64);
    for (int64_t i = -5; i <= 5; ++i) k.AppendInt(i * (int64_t{1} << 40));
    k.AppendNull();
    cases.push_back({"sparse keys", {{0, std::move(k)}}, "bloom", 0});
  }
  ColumnPredicate v_le_40;
  v_le_40.column = 1;
  v_le_40.int_range.hi = 40;
  const std::vector<ColumnPredicate> preds = {v_le_40};
  ColumnScanOp plain(table, preds, {0, 1, 2}, ScanOptions{});
  auto all = DrainOperator(&plain);
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::set<int64_t>> sets;
    std::vector<ScanRuntimeFilter> exact, bloom;
    for (const Filter& f : c.filters) {
      std::set<int64_t>& set = sets.emplace_back();
      auto b = std::make_shared<BloomPrefilter>();
      b->Init(f.keys.size());
      for (size_t r = 0; r < f.keys.size(); ++r) {
        if (f.keys.IsNull(r)) continue;
        set.insert(f.keys.GetInt(r));
        b->Add(HashCell(f.keys, r));
      }
      exact.push_back(MakeRuntimeFilter(f.col, f.keys, TypeId::kInt64));
      ASSERT_STREQ(exact.back().kind(), c.kind);
      bloom.push_back({f.col, b});
    }
    // The semi-join with exact key sets: a row stays when every filter
    // column holds a non-NULL key of its set.
    auto semi_join = [&](const RowBatch& in) {
      std::vector<uint32_t> keep;
      for (size_t r = 0; r < in.num_rows(); ++r) {
        bool ok = true;
        for (size_t i = 0; i < c.filters.size(); ++i) {
          const ColumnVector& k = in.columns[c.filters[i].col];
          ok = ok && !k.IsNull(r) && sets[i].count(k.GetInt(r)) > 0;
        }
        if (ok) keep.push_back(static_cast<uint32_t>(r));
      }
      RowBatch out;
      for (const ColumnVector& col : in.columns) {
        out.columns.emplace_back(col.type());
        out.columns.back().Gather(col, keep.data(), keep.size());
      }
      return out;
    };
    const RowBatch want = semi_join(*all);
    const std::string want_bytes = BatchBytes(want);
    const size_t misses = all->num_rows() - want.num_rows();
    ASSERT_GT(want.num_rows(), 0u);
    ASSERT_GT(misses, 0u);
    for (int dop : {1, 4}) {
      SCOPED_TRACE("dop " + std::to_string(dop));
      // The filter MakeRuntimeFilter picked drops exactly the misses.
      std::string analyze;
      ScanStats stats;
      const std::string got =
          RunFilteredScan(table, preds, exact, &pool, dop, &analyze, &stats);
      if (std::string(c.kind) == "dense") {
        EXPECT_TRUE(got == want_bytes) << FirstDiff(got, want_bytes);
        EXPECT_EQ(stats.bloom_dropped, misses);
        EXPECT_EQ(stats.filter_skips, c.filter_skips);
        EXPECT_NE(analyze.find(" bloom-dropped=" + std::to_string(misses) +
                               " filter=dense"),
                  std::string::npos)
            << analyze;
      }
      // A Bloom filter over the same keys, and no filter: the exact
      // semi-join over their output is the same bytes.
      std::vector<ScanRuntimeFilter> none;
      for (const auto* filters : {&exact, &bloom, &none}) {
        ScanOptions opts;
        opts.exec_pool = &pool;
        opts.dop = dop;
        ColumnScanOp op(table, preds, {0, 1, 2}, opts);
        for (const ScanRuntimeFilter& f : *filters) {
          ASSERT_TRUE(op.AcceptRuntimeFilter(f));
        }
        auto r = DrainOperator(&op);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        const std::string semi = BatchBytes(semi_join(*r));
        EXPECT_TRUE(semi == want_bytes) << FirstDiff(semi, want_bytes);
      }
    }
  }
}

/// 64 full pages plus a partial one of (ID, V), ID ascending from 0.
std::shared_ptr<ColumnTable> MakeManyPageTable(Engine* engine) {
  TableSchema schema("PUBLIC", "MANY", {{"ID", TypeId::kInt64, false, 0, false},
                                        {"V", TypeId::kInt64, true, 0, false}});
  auto table = engine->CreateColumnTable(schema);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < 64 * static_cast<int64_t>(kPageRows) + 100; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i * 7 % 1009);
  }
  EXPECT_TRUE((*table)->Load(rows).ok());
  EXPECT_EQ((*table)->num_pages(), 65u);
  return *table;
}

TEST(ParallelExecTest, LimitStopsTheScanAfterOneWindow) {
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  auto table = MakeManyPageTable(&engine);
  Counter* morsels = MetricRegistry::Global().GetCounter("exec.morsels");
  std::string bytes[2];
  for (int dop : {1, 4}) {
    ASSERT_TRUE(
        engine.Execute(session.get(), "SET DOP = " + std::to_string(dop)).ok());
    const uint64_t m0 = morsels->value();
    auto r = engine.Execute(session.get(), "SELECT * FROM MANY LIMIT 10");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.num_rows(), 10u);
    EXPECT_LE(morsels->value() - m0, 2u * dop) << "dop " << dop;
    bytes[dop > 1] = BatchBytes(r->rows);
  }
  EXPECT_TRUE(bytes[0] == bytes[1]);

  // The same plan built directly: the scan probed at most one window.
  ThreadPool pool(4);
  ScanOptions opts;
  opts.exec_pool = &pool;
  opts.dop = 4;
  auto scan = std::make_unique<ColumnScanOp>(
      table, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1}, opts);
  const ColumnScanOp* raw = scan.get();
  LimitOp limit(std::move(scan), 10, 0);
  auto r = DrainOperator(&limit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 10u);
  EXPECT_GT(raw->stats().pages_visited, 0u);
  EXPECT_LE(raw->stats().pages_visited + raw->stats().pages_skipped, 8u);
}

TEST(ParallelExecTest, SkippedPagesIdenticalAtDop1AndDop4) {
  Engine engine(ParallelConfig(4));
  auto table = MakeManyPageTable(&engine);
  // IDs inside pages 10..13: the synopsis skips the other 61 pages.
  ColumnPredicate id_range;
  id_range.column = 0;
  id_range.int_range.lo = 10 * static_cast<int64_t>(kPageRows) + 100;
  id_range.int_range.hi = 13 * static_cast<int64_t>(kPageRows) + 5;
  ThreadPool pool(4);
  Counter* morsels = MetricRegistry::Global().GetCounter("exec.morsels");
  std::string bytes[2];
  ScanStats stats[2];
  uint64_t dispatched[2];
  for (int dop : {1, 4}) {
    const uint64_t m0 = morsels->value();
    const int i = dop > 1;
    bytes[i] = RunFilteredScan(table, {id_range}, {}, &pool, dop, nullptr,
                               &stats[i]);
    dispatched[i] = morsels->value() - m0;
  }
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]);
  EXPECT_EQ(stats[0].pages_visited, 4u);
  EXPECT_EQ(stats[0].pages_skipped, 61u);
  for (const ScanStats& s : stats) {
    EXPECT_EQ(s.pages_visited, stats[0].pages_visited);
    EXPECT_EQ(s.pages_skipped, stats[0].pages_skipped);
    EXPECT_EQ(s.strides_skipped, stats[0].strides_skipped);
    EXPECT_EQ(s.rows_matched, stats[0].rows_matched);
  }
  // Only the pages the synopsis kept became pool tasks.
  EXPECT_EQ(dispatched[1], stats[1].pages_visited);
  EXPECT_EQ(dispatched[0], dispatched[1]);
}

/// Runs `tasks` pool tasks at DOP `tasks` from OpenImpl, through the same
/// RunOnPool that scan morsels, join build partitions and input-window
/// tasks use. Each task waits until every task is held by its own thread,
/// then burns `burn` seconds of its thread's CPU. Emits no rows.
class PoolBurnOp : public Operator {
 public:
  PoolBurnOp(ThreadPool* pool, int tasks, double burn)
      : pool_(pool), tasks_(tasks), burn_(burn) {}
  Status OpenImpl() override {
    std::atomic<int> arrived{0};
    RunOnPool(
        pool_, static_cast<size_t>(tasks_),
        [&](size_t) {
          arrived.fetch_add(1);
          while (arrived.load() < tasks_) std::this_thread::yield();
          const double start = ThreadCpuSeconds();
          while (ThreadCpuSeconds() - start < burn_) {
          }
        },
        tasks_);
    return Status::OK();
  }
  Result<bool> NextImpl(RowBatch*) override { return false; }
  std::string label() const override { return "PoolBurn"; }

 private:
  ThreadPool* pool_;
  int tasks_;
  double burn_;
};

TEST(ParallelExecTest, PoolTaskCpuCountsTowardTheOwningOperator) {
  ThreadPool pool(3);
  constexpr double kBurn = 0.02;
  PoolBurnOp op(&pool, 4, kBurn);
  const double own0 = ThreadCpuSeconds();
  ASSERT_TRUE(op.Open().ok());
  const double own = ThreadCpuSeconds() - own0;
  // The barrier puts three of the four tasks on pool helpers, off this
  // thread's clock; the operator's CPU must carry their burn on top of
  // everything this thread spent (less a millisecond for the wrapper's
  // own bookkeeping outside its clock reads).
  EXPECT_GE(own, kBurn);
  EXPECT_GE(op.metrics().cpu_seconds - own, 3 * kBurn - 0.001)
      << "operator " << op.metrics().cpu_seconds << " s, calling thread "
      << own << " s";
}

TEST(ParallelExecTest, PushedPredicateColumnsAreNotProjected) {
  // A column read only by a predicate pushed whole into the scan is
  // evaluated on the page codes and never decoded into the projection.
  Engine engine(ParallelConfig(4));
  auto session = engine.CreateSession();
  TableSchema schema("PUBLIC", "FACTS",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"DATE_ID", TypeId::kInt64, true, 0, false},
                      {"AMT", TypeId::kDouble, true, 0, false},
                      {"QTY", TypeId::kInt64, true, 0, false}});
  auto table = engine.CreateColumnTable(schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  RowBatch rows;
  for (const auto& c : schema.columns()) rows.columns.emplace_back(c.type);
  for (int64_t i = 0; i < 5 * static_cast<int64_t>(kPageRows) + 300; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i * 7 % 1500);
    rows.columns[2].AppendDouble(static_cast<double>(i * 31 % 1000) * 0.25);
    if (i % 17 == 0) {
      rows.columns[3].AppendNull();
    } else {
      rows.columns[3].AppendInt(i % 10);
    }
  }
  ASSERT_TRUE((*table)->Load(rows).ok());
  ASSERT_TRUE(engine
                  .Execute(session.get(),
                           "CREATE TABLE DIMS (K INT NOT NULL, A INT)")
                  .ok());
  ASSERT_TRUE(engine
                  .Execute(session.get(),
                           "INSERT INTO DIMS VALUES (1, 5), (2, 1), (3, 7), "
                           "(4, NULL)")
                  .ok());
  struct Case {
    std::string select, from, rest;  ///< the query is select FROM from rest
    std::string scan;                ///< the FACTS scan label at DOP 1
  };
  const std::vector<Case> cases = {
      {"SELECT ID, AMT", "FACTS", "WHERE DATE_ID < 400 "
       "ORDER BY AMT DESC, ID LIMIT 100", "preds=1 cols=2"},
      {"SELECT COUNT(*) AS N, SUM(AMT) AS S", "FACTS", "WHERE QTY > 5",
       "preds=1 cols=1"},
      {"SELECT QTY, COUNT(*) AS N", "FACTS",
       "WHERE DATE_ID >= 1000 GROUP BY QTY ORDER BY QTY", "preds=1 cols=1"},
      // Read by the select list too.
      {"SELECT ID, DATE_ID", "FACTS", "WHERE DATE_ID < 10 ORDER BY ID",
       "preds=1 cols=2"},
      // Not pushable: a residual reads the column.
      {"SELECT ID", "FACTS", "WHERE DATE_ID + 1 < 10 ORDER BY ID",
       "preds=0 cols=2"},
      // A join: the join conjunct reads QTY, the pushed one DATE_ID does
      // not reach the projection.
      {"SELECT f.ID, d.A", "FACTS f, DIMS d",
       "WHERE f.QTY = d.K AND f.DATE_ID < 300 ORDER BY f.ID, d.A",
       "preds=1 cols=2"},
      // An outer join keeps the pushed conjunct on the null-extended side
      // as a residual too, so its column stays projected.
      {"SELECT f.ID, d.A", "FACTS f LEFT JOIN DIMS d ON f.QTY = d.K",
       "WHERE f.DATE_ID < 300 AND d.A > 2 ORDER BY f.ID",
       "preds=1 cols=2"},
  };
  for (const Case& c : cases) {
    const std::string sql = c.select + " FROM " + c.from + " " + c.rest;
    SCOPED_TRACE(sql);
    // The oracle reads FACTS through a derived table, which projects every
    // column.
    std::string from = c.from;
    from.replace(from.find("FACTS"), 5, "(SELECT * FROM FACTS)");
    if (from.find(" f") == std::string::npos) from += " FACTS";
    std::string want;
    for (int dop : {1, 4}) {
      ASSERT_TRUE(engine
                      .Execute(session.get(),
                               "SET DOP = " + std::to_string(dop))
                      .ok());
      auto plan = engine.Execute(session.get(), "EXPLAIN " + sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const std::string label =
          "ColumnScan(PUBLIC.FACTS " + c.scan + (dop > 1 ? " dop=4)" : ")");
      EXPECT_NE(plan->message.find(label), std::string::npos)
          << "dop " << dop << "\n" << plan->message;
      auto got = engine.Execute(session.get(), sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto wide = engine.Execute(session.get(),
                                 c.select + " FROM " + from + " " + c.rest);
      ASSERT_TRUE(wide.ok()) << wide.status().ToString();
      ASSERT_GT(got->rows.num_rows(), 0u);
      const std::string bytes = BatchBytes(got->rows);
      EXPECT_TRUE(bytes == BatchBytes(wide->rows)) << "dop " << dop;
      if (dop == 1) want = bytes;
      EXPECT_TRUE(bytes == want) << "dop " << dop << FirstDiff(bytes, want);
    }
  }
}

}  // namespace
}  // namespace dashdb

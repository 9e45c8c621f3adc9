// Parallel sort & Top-N subsystem (ctest -L sort). Covers the normalized
// memcmp-able key encoding against the Value::Compare oracle (NULLs,
// -0.0/NaN canonicalization, empty and embedded-NUL strings, DESC
// complements), byte-identity of the morsel run-sort + k-way merge and of
// the bounded-heap Top-N against the reference stable_sort in
// sort_oracle.h, LIMIT early termination, cancellation storms through a
// governed sort, and the MPP ORDER BY/LIMIT pushdown with the coordinator
// stream merge (SELECT * keys, aggregate ORDER BY against a single node).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/rng.h"
#include "common/sort_key.h"
#include "common/threadpool.h"
#include "exec/operator.h"
#include "exec/sort.h"
#include "mpp/mpp.h"
#include "sql/engine.h"
#include "corpus_util.h"
#include "sort_oracle.h"

namespace dashdb {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->value();
}

int Sgn(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

/// Encodes one cell through the public normalized-key entry point.
std::string Enc(const ColumnVector& cv, size_t row, bool desc = false) {
  std::string out;
  AppendNormalizedCell(cv, row, desc, &out);
  return out;
}

int CompareEnc(const std::string& a, const std::string& b) {
  int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  if (c != 0) return Sgn(c);
  return a.size() < b.size() ? -1 : (a.size() == b.size() ? 0 : 1);
}

/// Canonical string form of a drained batch (row order significant).
std::string BatchKey(const RowBatch& b) {
  std::ostringstream os;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    for (size_t c = 0; c < b.columns.size(); ++c) {
      os << b.columns[c].GetValue(i).ToString() << '|';
    }
    os << '\n';
  }
  return os.str();
}

/// Canonical string form of a single-node result.
std::string RowsKey(const QueryResult& r) {
  std::ostringstream os;
  for (const auto& c : r.columns) os << c.name << '|';
  os << '\n';
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (size_t c = 0; c < r.rows.columns.size(); ++c) {
      os << r.rows.columns[c].GetValue(i).ToString() << '|';
    }
    os << '\n';
  }
  return os.str();
}

// ------------------------------------------------- key encoding property --

TEST(SortKeyTest, Int64EncodingMatchesValueCompare) {
  ColumnVector cv(TypeId::kInt64);
  cv.AppendInt(std::numeric_limits<int64_t>::min());
  cv.AppendInt(std::numeric_limits<int64_t>::min() + 1);
  cv.AppendInt(-1);
  cv.AppendInt(0);
  cv.AppendInt(1);
  cv.AppendInt(std::numeric_limits<int64_t>::max());
  cv.AppendNull();
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    if (rng.Bernoulli(0.1)) {
      cv.AppendNull();
    } else {
      cv.AppendInt(static_cast<int64_t>(rng.Next()));
    }
  }
  for (size_t i = 0; i < cv.size(); ++i) {
    for (size_t j = 0; j < cv.size(); ++j) {
      const int want = cv.GetValue(i).Compare(cv.GetValue(j));
      EXPECT_EQ(Sgn(CompareEnc(Enc(cv, i), Enc(cv, j))), Sgn(want))
          << "rows " << i << "," << j;
    }
  }
}

TEST(SortKeyTest, DoubleEncodingMatchesValueCompare) {
  ColumnVector cv(TypeId::kDouble);
  cv.AppendDouble(-std::numeric_limits<double>::infinity());
  cv.AppendDouble(-1e308);
  cv.AppendDouble(-1.5);
  cv.AppendDouble(-std::numeric_limits<double>::denorm_min());
  cv.AppendDouble(-0.0);
  cv.AppendDouble(0.0);
  cv.AppendDouble(std::numeric_limits<double>::denorm_min());
  cv.AppendDouble(1.5);
  cv.AppendDouble(1e308);
  cv.AppendDouble(std::numeric_limits<double>::infinity());
  cv.AppendNull();
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    cv.AppendDouble((rng.NextDouble() - 0.5) * std::pow(10.0, rng.Range(-20, 20)));
  }
  for (size_t i = 0; i < cv.size(); ++i) {
    for (size_t j = 0; j < cv.size(); ++j) {
      const int want = cv.GetValue(i).Compare(cv.GetValue(j));
      EXPECT_EQ(Sgn(CompareEnc(Enc(cv, i), Enc(cv, j))), Sgn(want))
          << "rows " << i << "," << j;
    }
  }
}

TEST(SortKeyTest, DoubleCanonicalization) {
  // -0.0 and +0.0 encode identically (Value::Compare calls them equal, so
  // byte-equality is required for the memcmp comparator to agree).
  ColumnVector cv(TypeId::kDouble);
  cv.AppendDouble(0.0);
  cv.AppendDouble(-0.0);
  EXPECT_EQ(Enc(cv, 0), Enc(cv, 1));

  // All NaN payloads collapse to one canonical encoding that sorts above
  // +inf and below NULL. (Value::Compare is not a total order on NaN, so
  // the encoding defines the order; it only has to be self-consistent.)
  ColumnVector nans(TypeId::kDouble);
  nans.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  nans.AppendDouble(-std::numeric_limits<double>::quiet_NaN());
  nans.AppendDouble(std::nan("0x5412"));
  nans.AppendDouble(std::numeric_limits<double>::infinity());
  nans.AppendNull();
  EXPECT_EQ(Enc(nans, 0), Enc(nans, 1));
  EXPECT_EQ(Enc(nans, 0), Enc(nans, 2));
  EXPECT_GT(CompareEnc(Enc(nans, 0), Enc(nans, 3)), 0);  // NaN > +inf
  EXPECT_LT(CompareEnc(Enc(nans, 0), Enc(nans, 4)), 0);  // NaN < NULL
}

TEST(SortKeyTest, VarcharEncodingMatchesValueCompare) {
  ColumnVector cv(TypeId::kVarchar);
  cv.AppendString("");
  cv.AppendString("a");
  cv.AppendString("ab");
  cv.AppendString("b");
  cv.AppendString(std::string("\0", 1));
  cv.AppendString(std::string("a\0", 2));
  cv.AppendString(std::string("a\0b", 3));
  cv.AppendString(std::string("a\0\0", 3));
  cv.AppendString("s1");
  cv.AppendString("s10");
  cv.AppendString("s2");
  cv.AppendNull();
  Rng rng(13);
  const char alphabet[] = {'\0', 'a', 'b', 0x7f};
  for (int i = 0; i < 80; ++i) {
    std::string s;
    const int len = static_cast<int>(rng.Uniform(6));
    for (int k = 0; k < len; ++k) s.push_back(alphabet[rng.Uniform(4)]);
    cv.AppendString(std::move(s));
  }
  for (size_t i = 0; i < cv.size(); ++i) {
    for (size_t j = 0; j < cv.size(); ++j) {
      const int want = cv.GetValue(i).Compare(cv.GetValue(j));
      EXPECT_EQ(Sgn(CompareEnc(Enc(cv, i), Enc(cv, j))), Sgn(want))
          << "rows " << i << "," << j;
    }
  }
}

TEST(SortKeyTest, DescComplementReversesOrderAndNullsGoFirst) {
  ColumnVector cv(TypeId::kInt64);
  cv.AppendInt(-5);
  cv.AppendInt(0);
  cv.AppendInt(7);
  cv.AppendNull();
  Rng rng(14);
  for (int i = 0; i < 60; ++i) cv.AppendInt(rng.Range(-1000, 1000));
  for (size_t i = 0; i < cv.size(); ++i) {
    for (size_t j = 0; j < cv.size(); ++j) {
      const int asc = CompareEnc(Enc(cv, i), Enc(cv, j));
      const int desc = CompareEnc(Enc(cv, i, true), Enc(cv, j, true));
      EXPECT_EQ(Sgn(desc), -Sgn(asc)) << "rows " << i << "," << j;
    }
  }
  // NULL sorts high ascending, therefore first descending — matching the
  // comparator in sort_oracle.h, which flips the whole three-way result
  // under DESC.
  EXPECT_GT(CompareEnc(Enc(cv, 3), Enc(cv, 2)), 0);
  EXPECT_LT(CompareEnc(Enc(cv, 3, true), Enc(cv, 2, true)), 0);
}

TEST(SortKeyTest, CompositeKeysKeepColumnBoundaries) {
  // Embedded NULs and prefixes must not leak across key-column boundaries:
  // ("a", "b") vs ("a\0b", "") would collide under naive concatenation.
  ColumnVector c1(TypeId::kVarchar), c2(TypeId::kVarchar);
  auto add = [&](const std::string& a, const std::string& b) {
    c1.AppendString(a);
    c2.AppendString(b);
  };
  add("a", "b");
  add(std::string("a\0b", 3), "");
  add("a", "");
  add("", "a");
  add("", "");
  add(std::string("a\0", 2), "b");
  std::vector<const ColumnVector*> cols{&c1, &c2};
  std::vector<bool> desc{false, false};
  NormalizedKeyColumn keys;
  keys.Build(cols, desc, 0, c1.size());
  for (size_t i = 0; i < c1.size(); ++i) {
    for (size_t j = 0; j < c1.size(); ++j) {
      int want = c1.GetValue(i).Compare(c1.GetValue(j));
      if (want == 0) want = c2.GetValue(i).Compare(c2.GetValue(j));
      EXPECT_EQ(Sgn(keys.Compare(i, keys, j)), Sgn(want))
          << "rows " << i << "," << j;
    }
  }
}

TEST(SortKeyTest, MixedKeyColumnMatchesSerialComparator) {
  // Random three-key rows (int DESC, varchar ASC, double ASC) with NULLs:
  // the composite encoding must agree with the lexicographic typed
  // comparator sort_oracle.h uses.
  ColumnVector ki(TypeId::kInt64), ks(TypeId::kVarchar), kd(TypeId::kDouble);
  Rng rng(15);
  const size_t n = 250;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) ki.AppendNull(); else ki.AppendInt(rng.Range(0, 9));
    if (rng.Bernoulli(0.1)) ks.AppendNull();
    else ks.AppendString("s" + std::to_string(rng.Uniform(4)));
    if (rng.Bernoulli(0.1)) kd.AppendNull();
    else kd.AppendDouble(static_cast<double>(rng.Range(-3, 3)) / 2.0);
  }
  std::vector<const ColumnVector*> cols{&ki, &ks, &kd};
  std::vector<bool> desc{true, false, false};
  NormalizedKeyColumn keys;
  keys.Build(cols, desc, 0, n);
  for (size_t i = 0; i < n; i += 3) {
    for (size_t j = 0; j < n; j += 3) {
      int want = 0;
      for (size_t k = 0; k < cols.size() && want == 0; ++k) {
        want = cols[k]->GetValue(i).Compare(cols[k]->GetValue(j));
        if (desc[k]) want = -want;
      }
      EXPECT_EQ(Sgn(keys.Compare(i, keys, j)), Sgn(want))
          << "rows " << i << "," << j;
    }
  }
}

// ------------------------------------------------------- operator level --

ExprPtr Col(int i, TypeId t) { return std::make_shared<ColumnRefExpr>(i, t); }

/// Ties-heavy mixed batch: K (int64, few distinct), D (double), STR
/// (varchar, small alphabet), PAY (int64 row id — makes every row unique
/// so byte-identity checks detect any stability violation).
RowBatch MakeMixedBatch(size_t n, uint64_t seed) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kDouble);
  b.columns.emplace_back(TypeId::kVarchar);
  b.columns.emplace_back(TypeId::kInt64);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.05)) b.columns[0].AppendNull();
    else b.columns[0].AppendInt(rng.Range(0, 49));
    if (rng.Bernoulli(0.05)) b.columns[1].AppendNull();
    else b.columns[1].AppendDouble(static_cast<double>(rng.Range(-40, 40)) / 4.0);
    if (rng.Bernoulli(0.05)) b.columns[2].AppendNull();
    else b.columns[2].AppendString("k" + std::to_string(rng.Uniform(7)));
    b.columns[3].AppendInt(static_cast<int64_t>(i));
  }
  return b;
}

std::vector<OutputCol> MixedCols() {
  return {{"K", TypeId::kInt64},
          {"D", TypeId::kDouble},
          {"STR", TypeId::kVarchar},
          {"PAY", TypeId::kInt64}};
}

std::vector<SortKey> MixedKeys(int variant) {
  std::vector<SortKey> keys;
  switch (variant) {
    case 0:
      keys.push_back({Col(0, TypeId::kInt64), false});
      break;
    case 1:
      keys.push_back({Col(0, TypeId::kInt64), true});
      keys.push_back({Col(2, TypeId::kVarchar), false});
      break;
    default:
      keys.push_back({Col(2, TypeId::kVarchar), true});
      keys.push_back({Col(1, TypeId::kDouble), false});
      keys.push_back({Col(0, TypeId::kInt64), false});
      break;
  }
  return keys;
}

TEST(SortOpTest, ParallelSortMatchesSerialStableOracle) {
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{20000}}) {
    RowBatch data = MakeMixedBatch(n, 21 + n);
    for (int variant = 0; variant < 3; ++variant) {
      const std::string want =
          BatchKey(sort_oracle::Sort(data, MixedKeys(variant)));
      for (int dop : {1, 4}) {
        ExecContext ctx;
        ctx.pool = &pool;
        ctx.dop = dop;
        const uint64_t runs_before = CounterValue("exec.sort_runs");
        auto sort = std::make_unique<SortOp>(
            std::make_unique<ValuesOp>(data, MixedCols()), MixedKeys(variant),
            &ctx);
        auto got = DrainOperator(sort.get());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(BatchKey(*got), want)
            << "n=" << n << " variant=" << variant << " dop=" << dop;
        if (n >= 20000 && dop == 4) {
          // Large inputs must take the multi-run path, not degrade to one
          // run.
          EXPECT_GT(CounterValue("exec.sort_runs"), runs_before + 1);
        }
      }
    }
  }
}

TEST(TopNOpTest, MatchesSortPlusLimitOracle) {
  ThreadPool pool(4);
  for (size_t n : {size_t{100}, size_t{20000}}) {
    RowBatch data = MakeMixedBatch(n, 31 + n);
    for (int variant = 0; variant < 3; ++variant) {
      for (int64_t limit : {int64_t{0}, int64_t{1}, int64_t{17}, int64_t{1000}}) {
        for (int64_t offset : {int64_t{0}, int64_t{3}, int64_t{50}}) {
          const std::string want = BatchKey(
              sort_oracle::Sort(data, MixedKeys(variant), limit, offset));
          ExecContext par_ctx;
          par_ctx.pool = &pool;
          par_ctx.dop = 4;
          auto topn = std::make_unique<TopNOp>(
              std::make_unique<ValuesOp>(data, MixedCols()),
              MixedKeys(variant), limit, offset, &par_ctx);
          auto got = DrainOperator(topn.get());
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(BatchKey(*got), want)
              << "n=" << n << " variant=" << variant << " limit=" << limit
              << " offset=" << offset;
          // The plan above kTopNMaxCapacity: full sort, then LimitOp.
          LimitOp sort_limit(
              std::make_unique<SortOp>(
                  std::make_unique<ValuesOp>(data, MixedCols()),
                  MixedKeys(variant), &par_ctx),
              limit, offset);
          auto full = DrainOperator(&sort_limit);
          ASSERT_TRUE(full.ok()) << full.status().ToString();
          EXPECT_EQ(BatchKey(*full), want)
              << "sort+limit n=" << n << " variant=" << variant
              << " limit=" << limit << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SortPlanTest, PlanOrderByPicksTopNOnlyUnderCapacity) {
  ExecContext ctx;
  auto plan = [&](int n_keys, int64_t limit, int64_t offset) {
    std::vector<SortKey> keys;
    for (int k = 0; k < n_keys; ++k) keys.push_back({Col(0, TypeId::kInt64)});
    OperatorPtr root =
        PlanOrderBy(std::make_unique<ValuesOp>(RowBatch{}, MixedCols()),
                    std::move(keys), limit, offset, &ctx);
    std::string labels;
    for (const Operator* op = root.get(); op != nullptr;
         op = op->children().empty() ? nullptr : op->children().front()) {
      labels += op->label().substr(0, op->label().find('(')) + " ";
    }
    return labels;
  };
  EXPECT_EQ(plan(1, 10, 5), "TopN Values ");
  EXPECT_EQ(plan(1, kTopNMaxCapacity, 0), "TopN Values ");
  EXPECT_EQ(plan(1, kTopNMaxCapacity, 1), "Limit Sort Values ");
  EXPECT_EQ(plan(1, -1, 0), "Sort Values ");
  EXPECT_EQ(plan(1, -1, 3), "Limit Sort Values ");
  EXPECT_EQ(plan(0, 10, 0), "Limit Values ");
  EXPECT_EQ(plan(0, -1, 0), "Values ");
}

/// Emits `batches` batches of `rows` sequential rows and counts pulls, so
/// tests can observe whether a consumer stopped early.
class ChunkedOp : public Operator {
 public:
  ChunkedOp(int batches, int rows)
      : batches_(batches), rows_(rows) {
    output_.push_back({"ID", TypeId::kInt64});
    output_.push_back({"V", TypeId::kInt64});
  }
  std::string label() const override { return "Chunked()"; }
  int pulls() const { return pulls_; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    pulls_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(RowBatch* out) override {
    ++pulls_;
    if (next_ >= batches_) return false;
    out->columns.clear();
    out->selection.reset();
    out->columns.emplace_back(TypeId::kInt64);
    out->columns.emplace_back(TypeId::kInt64);
    for (int i = 0; i < rows_; ++i) {
      const int64_t id = static_cast<int64_t>(next_) * rows_ + i;
      out->columns[0].AppendInt(id);
      out->columns[1].AppendInt(id * 31 % 101);
    }
    ++next_;
    return true;
  }

 private:
  int batches_;
  int rows_;
  int next_ = 0;
  int pulls_ = 0;
};

TEST(LimitOpTest, StopsPullingChildOnceSatisfied) {
  ExecContext ctx;
  auto chunked = std::make_unique<ChunkedOp>(100, 10);
  ChunkedOp* child = chunked.get();
  const uint64_t stops_before = CounterValue("exec.limit_early_stops");
  auto lim = std::make_unique<LimitOp>(std::move(chunked), 25, 0);
  auto r = DrainOperator(lim.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 25u);
  // 25 rows span 3 of the 100 child batches; the limit must not drain the
  // other 97.
  EXPECT_EQ(child->pulls(), 3);
  EXPECT_EQ(lim->child_pulls(), 3u);
  EXPECT_GT(CounterValue("exec.limit_early_stops"), stops_before);
}

TEST(LimitOpTest, LimitZeroNeverPullsChild) {
  ExecContext ctx;
  auto chunked = std::make_unique<ChunkedOp>(10, 10);
  ChunkedOp* child = chunked.get();
  auto lim = std::make_unique<LimitOp>(std::move(chunked), 0, 0);
  auto r = DrainOperator(lim.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(child->pulls(), 0);
}

TEST(LimitOpTest, OffsetCrossesBatches) {
  ExecContext ctx;
  auto lim = std::make_unique<LimitOp>(std::make_unique<ChunkedOp>(10, 10),
                                       5, 17);
  auto r = DrainOperator(lim.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r->columns[0].GetInt(i), static_cast<int64_t>(17 + i));
  }
}

TEST(TopNOpTest, LimitZeroNeverPullsChild) {
  ExecContext ctx;
  auto chunked = std::make_unique<ChunkedOp>(10, 10);
  ChunkedOp* child = chunked.get();
  std::vector<SortKey> keys;
  keys.push_back({Col(1, TypeId::kInt64), false});
  auto topn = std::make_unique<TopNOp>(std::move(chunked), std::move(keys),
                                       0, 0, &ctx);
  auto r = DrainOperator(topn.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(child->pulls(), 0);
}

// --------------------------------------------------------- engine level --

EngineConfig ParallelConfig() {
  EngineConfig cfg;
  cfg.query_parallelism = 8;
  return cfg;
}

/// Loads an ID/GRP/V/S column table with `n` rows (ties on GRP/V/S).
void LoadRows(Engine* engine, const std::string& name, int64_t n) {
  TableSchema schema("PUBLIC", name,
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kVarchar);
  for (int64_t i = 0; i < n; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 101);
    rows.columns[3].AppendString("s" + std::to_string(i % 13));
  }
  ASSERT_TRUE(t.value()->Append(rows).ok());
}

void Set(Engine& e, Session* s, const std::string& stmt) {
  auto r = e.Execute(s, stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
}

/// One ORDER BY query and how to check it: the oracle drains `unsorted`
/// (the visible columns, then any key the query does not return) at DOP 1
/// and sorts it with tests/sort_oracle.h.
struct OrderCase {
  const char* head;      ///< the query up to its ORDER BY
  const char* unsorted;  ///< the oracle's input
  size_t visible;        ///< leading `unsorted` columns the query returns
  const char* order_by;
  std::vector<sort_oracle::Key> keys;  ///< over `unsorted`'s columns
  int64_t limit;                       ///< < 0: none
  int64_t offset;
};

std::string WithLimit(const OrderCase& c, int64_t limit) {
  std::string sql = std::string(c.head) + " " + c.order_by;
  if (limit >= 0) sql += " LIMIT " + std::to_string(limit);
  if (c.offset > 0) sql += " OFFSET " + std::to_string(c.offset);
  return sql;
}

/// The oracle's answer to `c` with `limit`, as RowsKey renders it.
std::string OracleKey(const QueryResult& unsorted, const OrderCase& c,
                      int64_t limit) {
  QueryResult want = unsorted;
  want.rows = sort_oracle::Sort(unsorted.rows, c.keys, limit, c.offset);
  want.rows.columns.resize(c.visible);
  want.columns.resize(c.visible);
  return RowsKey(want);
}

TEST(SortEngineTest, AllStrategiesByteIdentical) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 20000);
  const std::vector<OrderCase> cases = {
      {"SELECT ID, V FROM S", "SELECT ID, V FROM S", 2, "ORDER BY V DESC, ID",
       {{1, true}, {0, false}}, -1, 0},
      {"SELECT S, GRP, ID FROM S", "SELECT S, GRP, ID FROM S", 3,
       "ORDER BY S, GRP DESC, ID", {{0, false}, {1, true}, {2, false}}, -1, 0},
      {"SELECT ID, GRP, V FROM S", "SELECT ID, GRP, V FROM S", 3,
       "ORDER BY GRP, V DESC", {{1, false}, {2, true}}, 37, 11},
      {"SELECT ID FROM S", "SELECT ID, V FROM S", 1, "ORDER BY V, ID",
       {{1, false}, {0, false}}, 100, 0},
      {"SELECT ID, V FROM S WHERE GRP < 40", "SELECT ID, V FROM S WHERE GRP < 40",
       2, "ORDER BY V", {{1, false}}, 60, 0},
  };
  // A LIMIT above kTopNMaxCapacity takes the full sort + LimitOp plan.
  const int64_t big = kTopNMaxCapacity + 1;
  for (const OrderCase& c : cases) {
    Set(engine, session.get(), "SET DOP = 1");
    auto unsorted = engine.Execute(session.get(), c.unsorted);
    ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
    for (int64_t limit : {c.limit, big}) {
      const std::string sql = WithLimit(c, limit);
      const std::string want = OracleKey(*unsorted, c, limit);
      for (int dop : {1, 4}) {
        Set(engine, session.get(), "SET DOP = " + std::to_string(dop));
        auto r = engine.Execute(session.get(), sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        EXPECT_EQ(RowsKey(*r), want) << sql << " dop=" << dop;
        auto plan = engine.Execute(session.get(), "EXPLAIN " + sql);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        const bool topn = limit >= 0 && limit + c.offset <= kTopNMaxCapacity;
        EXPECT_EQ(plan->message.find("TopN(") != std::string::npos, topn)
            << plan->message;
        EXPECT_EQ(plan->message.find("Sort(") != std::string::npos, !topn)
            << plan->message;
      }
    }
  }
}

TEST(SortEngineTest, ExplainShowsStrategyAndMetricsAccumulate) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 20000);
  Set(engine, session.get(), "SET DOP = 4");

  // ORDER BY + LIMIT fuses into the bounded-heap Top-N.
  const uint64_t fused_before = CounterValue("exec.topn_fused");
  auto topn = engine.Execute(
      session.get(), "EXPLAIN ANALYZE SELECT ID FROM S ORDER BY V, ID LIMIT 5");
  ASSERT_TRUE(topn.ok()) << topn.status().ToString();
  EXPECT_NE(topn->message.find("TopN("), std::string::npos) << topn->message;
  EXPECT_NE(topn->message.find("strategy=topn"), std::string::npos)
      << topn->message;
  EXPECT_GT(CounterValue("exec.topn_fused"), fused_before);

  // Full sort reports the run/merge strategy and row counters.
  const uint64_t rows_before = CounterValue("exec.sort_rows");
  auto full = engine.Execute(
      session.get(), "EXPLAIN ANALYZE SELECT ID, V FROM S ORDER BY V, ID");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_NE(full->message.find("strategy=full"), std::string::npos)
      << full->message;
  EXPECT_NE(full->message.find("runs="), std::string::npos) << full->message;
  EXPECT_GE(CounterValue("exec.sort_rows"), rows_before + 20000);

  // Unknown SET names (retired knobs among them) are accepted and change
  // no plan.
  Set(engine, session.get(), "SET RETIRED_SORT_KNOB = SERIAL");
  auto still = engine.Execute(
      session.get(), "EXPLAIN ANALYZE SELECT ID, V FROM S ORDER BY V, ID");
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_NE(still->message.find("strategy=full"), std::string::npos)
      << still->message;

  // A LIMIT above kTopNMaxCapacity keeps the full sort, and the LimitOp
  // above it reports its child pulls.
  auto lim = engine.Execute(
      session.get(), "EXPLAIN ANALYZE SELECT ID FROM S ORDER BY V, ID LIMIT " +
                         std::to_string(kTopNMaxCapacity + 1));
  ASSERT_TRUE(lim.ok()) << lim.status().ToString();
  EXPECT_NE(lim->message.find("pulls="), std::string::npos) << lim->message;
  EXPECT_NE(lim->message.find("strategy=full"), std::string::npos)
      << lim->message;
}

TEST(SortEngineTest, CancellationStormMidSortAndMerge) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 20000);
  const std::string queries[] = {
      "SELECT ID, V FROM S ORDER BY V, ID",
      "SELECT ID FROM S ORDER BY V DESC, ID LIMIT 50",
  };
  for (const std::string& sql : queries) {
    for (int dop : {1, 4}) {
      Set(engine, session.get(), "SET DOP = " + std::to_string(dop));
      auto baseline = engine.Execute(session.get(), sql);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      const std::string want = RowsKey(*baseline);
      // Count the governor checks of one governed run, then sweep the trip
      // point across them so every abort site fires deterministically.
      auto probe = std::make_shared<QueryContext>();
      session->InjectNextQueryContext(probe);
      auto counted = engine.Execute(session.get(), sql);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      const uint64_t total = probe->checks();
      ASSERT_GT(total, 0u) << sql;
      const uint64_t stride = std::max<uint64_t>(1, total / 40);
      uint64_t cancelled_runs = 0;
      for (uint64_t n = 1; n <= total; n += stride) {
        auto qc = std::make_shared<QueryContext>();
        qc->CancelAfterChecks(n);
        session->InjectNextQueryContext(qc);
        auto r = engine.Execute(session.get(), sql);
        if (r.ok()) {
          EXPECT_EQ(RowsKey(*r), want) << sql << " n=" << n;
        } else {
          EXPECT_TRUE(r.status().IsCancelled())
              << sql << " n=" << n << ": " << r.status().ToString();
          ++cancelled_runs;
        }
      }
      EXPECT_GT(cancelled_runs, 0u) << sql << " dop=" << dop;
      // Engine healthy after the storm: rerun is byte-identical.
      auto after = engine.Execute(session.get(), sql);
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(RowsKey(*after), want);
    }
  }
}

// ------------------------------------------------------------ MPP level --

TEST(SortMppTest, OrderByPushdownMergesPresortedShardStreams) {
  auto db = corpus::MakeLoadedDb(1);
  const uint64_t streams_before = CounterValue("mpp.merge_streams");
  auto r = db->Execute("SELECT ID, V FROM T ORDER BY V, ID LIMIT 31");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 4 nodes x 2 shards: the coordinator merged 8 pre-sorted streams
  // instead of re-sorting the gathered rows.
  EXPECT_EQ(CounterValue("mpp.merge_streams"), streams_before + 8);
  ASSERT_EQ(r->result.rows.num_rows(), 31u);
  // Oracle: the generator formula V = ID * 31 % 101 over ID in [0, 400).
  std::vector<std::pair<int64_t, int64_t>> oracle;
  for (int64_t id = 0; id < 400; ++id) oracle.emplace_back(id * 31 % 101, id);
  std::sort(oracle.begin(), oracle.end());
  for (size_t i = 0; i < 31; ++i) {
    EXPECT_EQ(r->result.rows.columns[0].GetInt(i), oracle[i].second) << i;
    EXPECT_EQ(r->result.rows.columns[1].GetInt(i), oracle[i].first) << i;
  }

  // The shard-local plans in EXPLAIN ANALYZE show the pushed-down Top-N.
  auto analyzed =
      db->Execute("EXPLAIN ANALYZE SELECT ID, V FROM T ORDER BY V, ID LIMIT 31");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->result.message.find("TopN("), std::string::npos)
      << analyzed->result.message;
  EXPECT_NE(analyzed->result.message.find("strategy=topn"), std::string::npos)
      << analyzed->result.message;
  EXPECT_EQ(corpus::ResultKey(analyzed->result), corpus::ResultKey(r->result));
}

TEST(SortMppTest, OrderByOffsetBeyondShardRows) {
  auto db = corpus::MakeLoadedDb(1);
  auto tail = db->Execute("SELECT ID FROM T ORDER BY ID LIMIT 10 OFFSET 395");
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  ASSERT_EQ(tail->result.rows.num_rows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(tail->result.rows.columns[0].GetInt(i),
              static_cast<int64_t>(395 + i));
  }
  auto past = db->Execute("SELECT ID FROM T ORDER BY ID LIMIT 10 OFFSET 1000");
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  EXPECT_EQ(past->result.rows.num_rows(), 0u);
}

TEST(SortMppTest, OrderBySelectListExpressionIsPushedDown) {
  auto db = corpus::MakeLoadedDb(1);
  // Pre-PR this shape was rejected ("MPP ORDER BY supports output columns
  // / ordinals"); now any select-list expression is a valid sort key.
  auto r = db->Execute(
      "SELECT ID, V + CAT FROM T WHERE V >= 10 ORDER BY V + CAT DESC, ID "
      "LIMIT 12");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.rows.num_rows(), 12u);
  for (size_t i = 1; i < 12; ++i) {
    EXPECT_GE(r->result.rows.columns[1].GetInt(i - 1),
              r->result.rows.columns[1].GetInt(i));
  }
}

TEST(SortMppTest, OrderByForeignExpressionReportsTypedError) {
  auto db = corpus::MakeLoadedDb(1);
  auto r = db->Execute("SELECT ID, V FROM T ORDER BY V * GRP");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("select-list expressions"),
            std::string::npos)
      << r.status().ToString();
}

TEST(SortMppTest, ShardTopNAndFullSortMatchOracle) {
  auto db = corpus::MakeLoadedDb(1);
  auto unsorted = db->Execute("SELECT ID, V, S FROM T");
  ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
  const char* head = "SELECT ID, V, S FROM T";
  const std::vector<OrderCase> cases = {
      {head, head, 3, "ORDER BY V DESC, ID", {{1, true}, {0, false}}, 31, 0},
      // Ties on S: the shard sorts must be stable and the merge must break
      // ties on the shard index.
      {head, head, 3, "ORDER BY S", {{2, false}}, 31, 5},
  };
  // Shard-local Top-N, and (above kTopNMaxCapacity) shard-local full sort
  // + LimitOp, must both merge to the oracle's answer.
  const int64_t big = kTopNMaxCapacity + 1;
  for (const OrderCase& c : cases) {
    for (int64_t limit : {c.limit, big}) {
      const std::string sql = WithLimit(c, limit);
      auto got = db->Execute(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(RowsKey(got->result), OracleKey(unsorted->result, c, limit))
          << sql;
      auto analyzed = db->Execute("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      const std::string& plan = analyzed->result.message;
      if (limit == big) {
        EXPECT_NE(plan.find("Sort("), std::string::npos) << plan;
        EXPECT_NE(plan.find("Limit("), std::string::npos) << plan;
        EXPECT_EQ(plan.find("TopN("), std::string::npos) << plan;
      } else {
        EXPECT_NE(plan.find("TopN("), std::string::npos) << plan;
      }
    }
  }
}

/// A single-node engine holding one table, to byte-compare MPP results
/// against.
std::unique_ptr<Engine> SingleNode(const TableSchema& schema,
                                   const RowBatch& rows) {
  auto engine = std::make_unique<Engine>(ParallelConfig());
  auto t = engine->CreateColumnTable(schema);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  if (t.ok()) {
    EXPECT_TRUE(t.value()->Append(rows).ok());
  }
  return engine;
}

TEST(SortMppTest, StarOrderByMergesShardStreams) {
  auto db = corpus::MakeLoadedDb(4);
  auto single = SingleNode(corpus::FactSchema(), corpus::FactRows());
  auto session = single->CreateSession();
  const char* all = "SELECT * FROM T";
  const char* grp2 = "SELECT * FROM T WHERE GRP = 2";
  const std::vector<OrderCase> cases = {
      {all, all, 5, "ORDER BY S DESC, ID", {{4, true}, {0, false}}, 25, 0},
      {all, all, 5, "ORDER BY V, ID", {{3, false}, {0, false}}, 30, 7},
      {all, all, 5, "ORDER BY 5, 4 DESC, 1",
       {{4, false}, {3, true}, {0, false}}, -1, 390},
      {grp2, grp2, 5, "ORDER BY T.CAT DESC, ID", {{2, true}, {0, false}}, 10,
       3},
      // Ties on S: checked against the oracle over the MPP scan order only,
      // since a single node breaks them in its own scan order.
      {all, all, 5, "ORDER BY S", {{4, false}}, 40, 0},
  };
  const int64_t big = kTopNMaxCapacity + 1;
  for (const OrderCase& c : cases) {
    auto unsorted = db->Execute(c.unsorted);
    ASSERT_TRUE(unsorted.ok()) << unsorted.status().ToString();
    bool total = false;  // ID, column 0, is unique
    for (const auto& k : c.keys) total = total || k.col == 0;
    for (int64_t limit : {c.limit, big}) {
      const std::string sql = WithLimit(c, limit);
      const uint64_t streams_before = CounterValue("mpp.merge_streams");
      auto got = db->Execute(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(CounterValue("mpp.merge_streams"),
                streams_before + static_cast<uint64_t>(db->num_shards()))
          << sql;
      EXPECT_EQ(RowsKey(got->result), OracleKey(unsorted->result, c, limit))
          << sql;
      if (total) {
        auto want = single->Execute(session.get(), sql);
        ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
        EXPECT_EQ(RowsKey(got->result), RowsKey(*want)) << sql;
      }
    }
  }
  // Keys that are not output columns keep their typed error: an expression
  // (rejected before the shards run) and a column the star does not expand.
  for (const char* sql :
       {"SELECT * FROM T ORDER BY V * GRP",
        "SELECT t.* FROM T t JOIN D d ON t.GRP = d.GRP ORDER BY A, ID"}) {
    auto r = db->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented) << sql;
    EXPECT_NE(r.status().ToString().find("select-list expressions"),
              std::string::npos)
        << r.status().ToString();
  }
}

/// G: ID, K (NULL every 9th row, else ID % 6), S (NULL every 11th row,
/// else "g" + ID % 5) and D, a double whose per-K values make MAX land on
/// -0.0 (K 0 and 5) and +0.0 (K 1), every K 2 aggregate NaN, and every sum
/// exact in any order.
TableSchema GroupSchema() {
  return TableSchema("PUBLIC", "G",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"K", TypeId::kInt64, true, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false},
                      {"D", TypeId::kDouble, true, 0, false}});
}

RowBatch GroupRows() {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kVarchar);
  b.columns.emplace_back(TypeId::kDouble);
  for (int64_t i = 0; i < 240; ++i) {
    b.columns[0].AppendInt(i);
    const bool null_k = i % 9 == 0;
    if (null_k) {
      b.columns[1].AppendNull();
    } else {
      b.columns[1].AppendInt(i % 6);
    }
    if (i % 11 == 0) {
      b.columns[2].AppendNull();
    } else {
      b.columns[2].AppendString("g" + std::to_string(i % 5));
    }
    ColumnVector& d = b.columns[3];
    const bool alt = (i / 6) % 2 == 1;  // alternates within each K group
    switch (null_k ? -1 : i % 6) {
      case -1:
        if (alt) d.AppendDouble(0.75); else d.AppendNull();
        break;
      case 0:
        d.AppendDouble(alt ? -0.0 : -0.5);
        break;
      case 1:
        d.AppendDouble(alt ? 0.0 : -0.5);
        break;
      case 2:
        d.AppendDouble(std::numeric_limits<double>::quiet_NaN());
        break;
      case 3:
        d.AppendDouble(1.5);
        break;
      case 4:
        d.AppendDouble(0.25 * static_cast<double>(i % 4));
        break;
      default:
        if (alt) d.AppendNull(); else d.AppendDouble(-0.0);
        break;
    }
  }
  return b;
}

TEST(SortMppTest, AggregateOrderByMatchesSingleNode) {
  EngineConfig cfg;
  cfg.query_parallelism = 4;
  MppDatabase db(4, 2, 8, size_t{8} << 30, cfg);
  TableSchema schema = GroupSchema();
  schema.set_distribution_key(0);
  ASSERT_TRUE(db.CreateTable(schema).ok());
  ASSERT_TRUE(db.Load("PUBLIC", "G", GroupRows()).ok());
  auto single = SingleNode(GroupSchema(), GroupRows());
  auto session = single->CreateSession();
  const std::string big = std::to_string(kTopNMaxCapacity + 1);
  const std::string queries[] = {
      // -0.0 ties +0.0 (the K key breaks it), NaN sorts above every number.
      "SELECT K, MAX(D) AS MX, COUNT(*) FROM G GROUP BY K ORDER BY MX DESC, K",
      "SELECT K, MAX(D) AS MX, COUNT(*) FROM G GROUP BY K ORDER BY 2, K",
      "SELECT K, SUM(D) AS SD FROM G GROUP BY K ORDER BY SD, K",
      "SELECT K, SUM(D) AS SD FROM G GROUP BY K ORDER BY SD DESC, K LIMIT 4",
      // NULL group keys: last ascending, first descending.
      "SELECT K, COUNT(*) FROM G GROUP BY K ORDER BY K",
      "SELECT K, COUNT(*) FROM G GROUP BY K ORDER BY K DESC",
      "SELECT K, COUNT(*) FROM G GROUP BY K ORDER BY K LIMIT 3 OFFSET 2",
      // String keys.
      "SELECT S, COUNT(*), MIN(ID) FROM G GROUP BY S ORDER BY S DESC",
      "SELECT S, K, COUNT(*) FROM G GROUP BY S, K ORDER BY S, K DESC "
      "LIMIT 10 OFFSET 4",
      // Full sort + LimitOp at the coordinator.
      "SELECT S, COUNT(*) FROM G GROUP BY S ORDER BY 2 DESC, S LIMIT " + big,
      "SELECT S, K, COUNT(*) FROM G GROUP BY S, K ORDER BY 3, 1, 2 LIMIT " +
          big + " OFFSET 5",
      // LIMIT / OFFSET without ORDER BY over one global group.
      "SELECT COUNT(*), SUM(D), MIN(ID) FROM G LIMIT 1",
      "SELECT COUNT(*) FROM G LIMIT 0",
      "SELECT COUNT(*) FROM G LIMIT 5 OFFSET 1",
  };
  for (const std::string& sql : queries) {
    auto got = db.Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    auto want = single->Execute(session.get(), sql);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    EXPECT_EQ(RowsKey(got->result), RowsKey(*want)) << sql;
  }
  // LIMIT without ORDER BY over many groups: which groups is unspecified,
  // but it is that many of them.
  auto every = db.Execute("SELECT K, COUNT(*) FROM G GROUP BY K");
  auto some = db.Execute("SELECT K, COUNT(*) FROM G GROUP BY K LIMIT 3");
  ASSERT_TRUE(every.ok() && some.ok());
  ASSERT_EQ(some->result.rows.num_rows(), 3u);
  const std::string all_rows = RowsKey(every->result);
  for (size_t i = 0; i < 3; ++i) {
    const RowBatch& rows = some->result.rows;
    const std::string row = "\n" + rows.columns[0].GetValue(i).ToString() +
                            "|" + rows.columns[1].GetValue(i).ToString() +
                            "|\n";
    EXPECT_NE(all_rows.find(row), std::string::npos) << row;
  }
}

}  // namespace
}  // namespace dashdb

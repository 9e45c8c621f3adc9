// Shared differential-test corpus: the loaded 4-node MPP cluster, the
// query corpus, and the canonical result serialization. Used by the
// in-process differential suite (differential_test.cc) and the wire-
// protocol differential suite (wire_differential_test.cc), which must both
// hold the engine to the same byte-identical standard.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mpp/mpp.h"

namespace dashdb {
namespace corpus {

/// Canonical string form of a result (columns + every row, in order).
inline std::string ResultKey(const QueryResult& r) {
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

/// Fact table T: ID, GRP (ID % 7), CAT (ID % 5), V (ID * 31 % 101), S.
inline TableSchema FactSchema() {
  return TableSchema("PUBLIC", "T",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"CAT", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false}});
}

/// T's 400 rows.
inline RowBatch FactRows() {
  RowBatch t;
  for (int i = 0; i < 4; ++i) t.columns.emplace_back(TypeId::kInt64);
  t.columns.emplace_back(TypeId::kVarchar);
  for (int i = 0; i < 400; ++i) {
    t.columns[0].AppendInt(i);
    t.columns[1].AppendInt(i % 7);
    t.columns[2].AppendInt(i % 5);
    t.columns[3].AppendInt(i * 31 % 101);
    t.columns[4].AppendString("s" + std::to_string(i % 13));
  }
  return t;
}

/// 4-node cluster, 2 shards/node; every shard engine runs at `dop`.
/// Fact table T hash-distributes on ID; dims D and C are replicated so
/// joins stay shard-local (collocated star join). H is a high-cardinality
/// replicated dim (one row per fact ID); E is a snowflake outrigger off D.
inline std::unique_ptr<MppDatabase> MakeLoadedDb(int dop) {
  EngineConfig cfg;
  cfg.query_parallelism = dop;
  auto db = std::make_unique<MppDatabase>(4, 2, 8, size_t{8} << 30, cfg);

  TableSchema fact = FactSchema();
  fact.set_distribution_key(0);
  EXPECT_TRUE(db->CreateTable(fact).ok());

  TableSchema dim_d("PUBLIC", "D",
                    {{"GRP", TypeId::kInt64, false, 0, false},
                     {"A", TypeId::kInt64, true, 0, false}});
  EXPECT_TRUE(db->CreateTable(dim_d, /*replicated=*/true).ok());
  TableSchema dim_c("PUBLIC", "C",
                    {{"CAT", TypeId::kInt64, false, 0, false},
                     {"B", TypeId::kInt64, true, 0, false}});
  EXPECT_TRUE(db->CreateTable(dim_c, /*replicated=*/true).ok());

  TableSchema dim_h("PUBLIC", "H",
                    {{"ID", TypeId::kInt64, false, 0, false},
                     {"W", TypeId::kInt64, true, 0, false}});
  EXPECT_TRUE(db->CreateTable(dim_h, /*replicated=*/true).ok());

  TableSchema dim_e("PUBLIC", "E",
                    {{"A", TypeId::kInt64, false, 0, false},
                     {"Z", TypeId::kInt64, true, 0, false}});
  EXPECT_TRUE(db->CreateTable(dim_e, /*replicated=*/true).ok());

  EXPECT_TRUE(db->Load("PUBLIC", "T", FactRows()).ok());

  RowBatch d;
  d.columns.emplace_back(TypeId::kInt64);
  d.columns.emplace_back(TypeId::kInt64);
  for (int g = 0; g < 7; ++g) {
    d.columns[0].AppendInt(g);
    d.columns[1].AppendInt(g / 2);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "D", d).ok());

  RowBatch c;
  c.columns.emplace_back(TypeId::kInt64);
  c.columns.emplace_back(TypeId::kInt64);
  for (int k = 0; k < 5; ++k) {
    c.columns[0].AppendInt(k);
    c.columns[1].AppendInt(k % 2);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "C", c).ok());

  RowBatch h;
  h.columns.emplace_back(TypeId::kInt64);
  h.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 400; ++i) {
    h.columns[0].AppendInt(i);
    h.columns[1].AppendInt(i * 17 % 89);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "H", h).ok());

  RowBatch e;
  e.columns.emplace_back(TypeId::kInt64);
  e.columns.emplace_back(TypeId::kInt64);
  for (int a = 0; a < 4; ++a) {
    e.columns[0].AppendInt(a);
    e.columns[1].AppendInt(a % 2);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "E", e).ok());
  return db;
}

inline constexpr const char* kCorpus[] = {
    "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM T",
    "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP ORDER BY GRP",
    "SELECT COUNT(*) FROM T WHERE V >= 50",
    "SELECT ID, V FROM T WHERE GRP = 3 ORDER BY ID LIMIT 20",
    "SELECT d.A, COUNT(*), SUM(t.V) FROM T t JOIN D d ON t.GRP = d.GRP "
    "GROUP BY d.A ORDER BY d.A",
    "SELECT d.A, COUNT(*), SUM(t.V) FROM T t JOIN D d ON t.GRP = d.GRP "
    "JOIN C c ON t.CAT = c.CAT WHERE c.B = 1 GROUP BY d.A ORDER BY d.A",
    // High-cardinality join: every probe row hits a distinct build key.
    "SELECT COUNT(*), SUM(h.W), MIN(h.W), MAX(h.W) FROM T t "
    "JOIN H h ON t.ID = h.ID WHERE t.V < 60",
    // Multi-column and string group keys (arena-backed serialized keys).
    "SELECT GRP, CAT, COUNT(*), SUM(V) FROM T GROUP BY GRP, CAT "
    "ORDER BY GRP, CAT",
    "SELECT S, COUNT(*), MIN(V), MAX(V) FROM T GROUP BY S ORDER BY S",
    "SELECT S, GRP, COUNT(*) FROM T GROUP BY S, GRP ORDER BY S, GRP",
    // Bare COUNT(*) with one sargable predicate: the CountStarScan fast
    // path on every shard, merged by the coordinator.
    "SELECT COUNT(*) FROM T WHERE V <= 50",
    "SELECT COUNT(*) FROM T WHERE GRP = 4",
    // Expression-heavy shapes through the vectorized engine: CASE arms,
    // LIKE prefix, mixed-type arithmetic, and residual (non-sargable)
    // predicates that run as dictionary-code filters mid-query.
    "SELECT ID, CASE WHEN V >= 67 THEN 'hi' WHEN V >= 34 THEN 'mid' "
    "ELSE 'lo' END FROM T WHERE GRP = 1 ORDER BY ID LIMIT 30",
    "SELECT S, COUNT(*) FROM T WHERE S LIKE 's1%' GROUP BY S ORDER BY S",
    "SELECT GRP, SUM(CASE WHEN CAT = 2 THEN V ELSE 0 END), "
    "SUM(V / 2.0 + CAT * 3) FROM T GROUP BY GRP ORDER BY GRP",
    "SELECT ID, V * 31 - CAT FROM T WHERE GRP = 2 OR CAT = 4 "
    "ORDER BY ID LIMIT 25",
    "SELECT COUNT(*), SUM(V) FROM T WHERE V % 7 = 0 AND S LIKE 's%'",
    "SELECT ID, CONCAT(S, CONCAT('x', CAT)) FROM T "
    "WHERE S = 's3' AND V + CAT >= 40 ORDER BY ID LIMIT 15",
    // Multi-join shapes for the cost-based optimizer (comma syntax takes
    // the >= 3-way cost path on every shard).
    "SELECT COUNT(*), SUM(t.V), SUM(h.W) FROM T t, D d, C c, H h "
    "WHERE t.GRP = d.GRP AND t.CAT = c.CAT AND t.ID = h.ID AND c.B = 1",
    // Snowflake: the E outrigger is reachable only through D.
    "SELECT e.Z, COUNT(*), SUM(t.V) FROM T t, D d, E e "
    "WHERE t.GRP = d.GRP AND d.A = e.A AND e.Z = 1 GROUP BY e.Z ORDER BY e.Z",
    // Cyclic join graph: the d-c edge closes a cycle over the fact.
    "SELECT COUNT(*), SUM(t.V) FROM T t, D d, C c "
    "WHERE t.GRP = d.GRP AND t.CAT = c.CAT AND d.A = c.B",
    // Distributed fact against a filtered replicated dim: each shard's
    // join puts an exact dense key set on its fact scan.
    "SELECT COUNT(*), SUM(t.V) FROM T t, H h "
    "WHERE t.ID = h.ID AND h.W <= 40",
    // ORDER BY/LIMIT/OFFSET shapes for the pushed-down parallel sort: the
    // coordinator must merge pre-sorted shard streams byte-identically to
    // a global re-sort, at DOP 1/4 and under node-kill replay.
    "SELECT ID, V, S FROM T ORDER BY V DESC, ID LIMIT 31",
    "SELECT ID, V FROM T ORDER BY V, ID LIMIT 40 OFFSET 25",
    "SELECT S, V, ID FROM T ORDER BY S, V DESC, ID",
    "SELECT ID, V + CAT FROM T WHERE V >= 10 ORDER BY V + CAT, ID LIMIT 12",
    // Non-unique sort key: ties resolved by the stable shard-order
    // tie-break, which must equal concatenation + stable global sort.
    "SELECT GRP, ID FROM T ORDER BY GRP LIMIT 50",
    // Dimension-first join: FROM order drives from the filtered H, so the
    // shard's join builds on its whole T partition and no filter reaches
    // the T scan (the plan a single node runs).
    "SELECT COUNT(*), SUM(t.V) FROM H h JOIN T t ON t.ID = h.ID "
    "WHERE h.W <= 40",
};
inline constexpr size_t kCorpusSize = sizeof(kCorpus) / sizeof(kCorpus[0]);

}  // namespace corpus
}  // namespace dashdb

// Flat hash structures (src/common/flat_hash.h) — seeded property tests
// against the std::unordered_* oracles they replaced in the executor, plus
// the SQL-level COUNT(*) fast path that rides the same PR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/hash.h"
#include "sql/engine.h"

namespace dashdb {
namespace {

// -------------------------------------------------------- FlatJoinIndex --

std::vector<uint32_t> CollectRows(const FlatJoinIndex& idx, uint64_t key,
                                  uint64_t hash) {
  std::vector<uint32_t> rows;
  for (int32_t cur = idx.Find(key, hash); cur != FlatJoinIndex::kNone;
       cur = idx.Next(cur)) {
    rows.push_back(idx.Row(cur));
  }
  return rows;
}

TEST(FlatJoinIndexTest, MatchesMultimapOracleWithDuplicates) {
  std::mt19937_64 rng(42);
  // Small key domain forces long duplicate chains.
  constexpr size_t kRows = 20000;
  constexpr int64_t kDomain = 997;
  FlatJoinIndex idx;
  std::unordered_multimap<int64_t, uint32_t> oracle;
  for (uint32_t r = 0; r < kRows; ++r) {
    int64_t k = static_cast<int64_t>(rng() % kDomain) - kDomain / 2;
    idx.Insert(static_cast<uint64_t>(k), HashInt64(static_cast<uint64_t>(k)),
               r);
    oracle.emplace(k, r);
  }
  EXPECT_EQ(idx.rows(), kRows);
  for (int64_t k = -kDomain; k <= kDomain; ++k) {
    std::vector<uint32_t> got = CollectRows(
        idx, static_cast<uint64_t>(k), HashInt64(static_cast<uint64_t>(k)));
    std::vector<uint32_t> want;
    auto [b, e] = oracle.equal_range(k);
    for (auto it = b; it != e; ++it) want.push_back(it->second);
    // The flat index guarantees ascending insertion (build-row) order;
    // the multimap guarantees only the multiset.
    std::vector<uint32_t> sorted_got = got;
    std::sort(sorted_got.begin(), sorted_got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sorted_got, want) << "key " << k;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()))
        << "chain must preserve insertion order for key " << k;
  }
}

TEST(FlatJoinIndexTest, GrowthPreservesChainsAndReserveHolds) {
  // Unreserved: many growth steps; reserved: none after Reserve.
  for (bool reserve : {false, true}) {
    std::mt19937_64 rng(7);
    constexpr size_t kRows = 50000;
    FlatJoinIndex idx;
    if (reserve) idx.Reserve(kRows);
    const size_t cap_before = idx.capacity();
    std::unordered_multimap<uint64_t, uint32_t> oracle;
    std::vector<uint64_t> keys;
    for (uint32_t r = 0; r < kRows; ++r) {
      uint64_t k = rng() % 30000;  // mix of unique and duplicate keys
      idx.Insert(k, HashInt64(k), r);
      oracle.emplace(k, r);
      keys.push_back(k);
    }
    if (reserve) {
      EXPECT_EQ(idx.capacity(), cap_before) << "Reserve must pre-size fully";
    }
    for (size_t i = 0; i < 500; ++i) {
      uint64_t k = keys[rng() % keys.size()];
      EXPECT_EQ(CollectRows(idx, k, HashInt64(k)).size(), oracle.count(k));
    }
    // Absent keys stay absent.
    for (size_t i = 0; i < 500; ++i) {
      uint64_t k = 30000 + rng() % 100000;
      EXPECT_EQ(idx.Find(k, HashInt64(k)), FlatJoinIndex::kNone);
    }
  }
}

TEST(FlatJoinIndexTest, ByteSizeCoversSlotsAndChains) {
  FlatJoinIndex idx;
  EXPECT_EQ(idx.ByteSize(), 0u);
  for (uint32_t r = 0; r < 1000; ++r) {
    idx.Insert(r % 600, HashInt64(r % 600), r);
  }
  // 28 bytes per slot (key, first row, link, hash, tail) at most 7/8 full,
  // plus 8 bytes per chained duplicate.
  EXPECT_GE(idx.ByteSize(), idx.capacity() * 28 + 400 * 8);
  EXPECT_GE(idx.ByteSize(), idx.size() * 32);
}

// -------------------------------------------------------- DenseJoinIndex --

TEST(DenseJoinIndexTest, RangeRule) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // At most 8 key slots per build row.
  EXPECT_EQ(DenseJoinIndex::RangeFor(0, 799, 100), 800u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(0, 800, 100), 0u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(-10, -10, 1), 1u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(kMax - 7, kMax, 1), 8u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(kMin, kMin + 7, 1), 8u);
  // Spans that overflow int64, or reach 2^31 slots, never qualify.
  EXPECT_EQ(DenseJoinIndex::RangeFor(kMin, kMax, size_t{1} << 40), 0u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(-1, kMax, size_t{1} << 40), 0u);
  EXPECT_EQ(DenseJoinIndex::RangeFor(0, (int64_t{1} << 31) - 2,
                                     size_t{1} << 40),
            (uint64_t{1} << 31) - 1);
  EXPECT_EQ(DenseJoinIndex::RangeFor(0, (int64_t{1} << 31) - 1,
                                     size_t{1} << 40),
            0u);
  // No keys (hi < lo) never qualifies.
  EXPECT_EQ(DenseJoinIndex::RangeFor(kMax, kMin, 10), 0u);
}

TEST(DenseJoinIndexTest, MatchesFlatJoinIndexChainForChain) {
  std::mt19937_64 rng(11);
  constexpr size_t kRows = 20000;
  constexpr int64_t kLo = -5000;
  constexpr int64_t kDomain = 9000;  // duplicates and absent keys
  std::vector<int64_t> keys(kRows);
  for (auto& k : keys) k = kLo + static_cast<int64_t>(rng() % kDomain);
  const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
  const uint64_t range = DenseJoinIndex::RangeFor(*lo, *hi, kRows);
  ASSERT_EQ(range, static_cast<uint64_t>(*hi - *lo + 1));
  DenseJoinIndex dense;
  dense.Init(*lo, range, kRows);
  EXPECT_EQ(dense.ByteSize(), (range + kRows) * sizeof(int32_t));
  for (size_t r = kRows; r-- > 0;) {
    dense.PushFront(keys[r], static_cast<uint32_t>(r));
  }
  FlatJoinIndex flat;
  for (uint32_t r = 0; r < kRows; ++r) {
    flat.Insert(static_cast<uint64_t>(keys[r]),
                HashInt64(static_cast<uint64_t>(keys[r])), r);
  }
  // Every key in and around the domain, plus the int64 extremes: the same
  // rows in the same (ascending) order, or absent from both.
  std::vector<int64_t> probes = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int64_t k = kLo - 10; k < kLo + kDomain + 10; ++k) probes.push_back(k);
  for (int64_t k : probes) {
    std::vector<uint32_t> got;
    for (int32_t cur = dense.Find(k); cur != DenseJoinIndex::kNone;
         cur = dense.Next(cur)) {
      got.push_back(dense.Row(cur));
    }
    EXPECT_EQ(got, CollectRows(flat, static_cast<uint64_t>(k),
                               HashInt64(static_cast<uint64_t>(k))))
        << "key " << k;
  }
}

// -------------------------------------------------------- BloomPrefilter --

TEST(BloomPrefilterTest, NoFalseNegativesAndUsefulRejection) {
  std::mt19937_64 rng(123);
  constexpr size_t kKeys = 10000;
  BloomPrefilter bloom;
  bloom.Init(kKeys);
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < kKeys; ++i) {
    uint64_t h = HashInt64(rng());
    bloom.Add(h);
    hashes.push_back(h);
  }
  for (uint64_t h : hashes) {
    EXPECT_TRUE(bloom.MayContain(h)) << "Bloom filters never false-negative";
  }
  size_t false_pos = 0;
  constexpr size_t kProbes = 20000;
  for (size_t i = 0; i < kProbes; ++i) {
    if (bloom.MayContain(HashInt64(rng() + 0x9E3779B97F4A7C15ull))) {
      ++false_pos;
    }
  }
  // ~8 bits/key with 2 probe bits lands well under 30% in practice.
  EXPECT_LT(false_pos, kProbes * 3 / 10)
      << "prefilter must reject most absent keys";
}

TEST(BloomPrefilterTest, EmptyFilterIsDisabled) {
  BloomPrefilter bloom;
  bloom.Init(0);
  EXPECT_TRUE(bloom.MayContain(0x12345));
  EXPECT_EQ(bloom.ByteSize(), 0u);
}

// --------------------------------------------------------- FlatKeyIndex --

TEST(FlatKeyIndexTest, MatchesMapOracleAcrossGrowth) {
  std::mt19937_64 rng(2024);
  FlatKeyIndex idx;
  std::unordered_map<std::string, uint32_t> oracle;
  std::vector<std::string> inserted;  // in first-seen order
  for (size_t i = 0; i < 30000; ++i) {
    // Variable-length keys with embedded NULs and duplicates.
    size_t len = rng() % 24;
    std::string key;
    for (size_t j = 0; j < len; ++j) {
      key.push_back(static_cast<char>(rng() % 7));  // tiny alphabet -> dups
    }
    uint64_t h = HashBytes(key.data(), key.size());
    bool inserted_flag = false;
    uint32_t id = idx.FindOrInsert(
        reinterpret_cast<const uint8_t*>(key.data()), key.size(), h,
        &inserted_flag);
    auto [it, fresh] = oracle.emplace(key, static_cast<uint32_t>(
                                               oracle.size()));
    EXPECT_EQ(inserted_flag, fresh);
    EXPECT_EQ(id, it->second) << "ids must be dense first-seen order";
    if (fresh) inserted.push_back(key);
  }
  ASSERT_EQ(idx.size(), oracle.size());
  // Dense side round-trips every key in insertion order.
  for (uint32_t id = 0; id < idx.size(); ++id) {
    std::string key(reinterpret_cast<const char*>(idx.KeyData(id)),
                    idx.KeyLen(id));
    EXPECT_EQ(key, inserted[id]);
    EXPECT_EQ(idx.HashOf(id), HashBytes(key.data(), key.size()));
  }
  // Find: present and absent.
  for (const auto& [key, id] : oracle) {
    uint64_t h = HashBytes(key.data(), key.size());
    EXPECT_EQ(idx.Find(reinterpret_cast<const uint8_t*>(key.data()),
                       key.size(), h),
              static_cast<int64_t>(id));
  }
  std::string absent = "definitely-not-in-the-tiny-alphabet";
  EXPECT_EQ(idx.Find(reinterpret_cast<const uint8_t*>(absent.data()),
                     absent.size(), HashBytes(absent.data(), absent.size())),
            -1);
}

TEST(FlatKeyIndexTest, ZeroLengthKeys) {
  // A global aggregate keys every row on zero bytes, so the arena can stay
  // empty; lookups must never hand its null data() to memcmp.
  FlatKeyIndex idx;
  const uint64_t h = HashBytes("", 0);
  bool inserted = false;
  EXPECT_EQ(idx.FindOrInsert(nullptr, 0, h, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(idx.FindOrInsert(nullptr, 0, h, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(idx.Find(nullptr, 0, h), 0);
  EXPECT_EQ(idx.KeyLen(0), 0u);
  // A one-byte key on the same hash is a different group.
  const uint8_t one = 7;
  EXPECT_EQ(idx.FindOrInsert(&one, 1, h, &inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(idx.Find(nullptr, 0, h), 0);
  EXPECT_EQ(idx.Find(&one, 1, h), 1);
}

// ----------------------------------------------------------- FlatIntMap --

TEST(FlatIntMapTest, MatchesMapOracleIncludingSentinels) {
  std::mt19937_64 rng(99);
  FlatIntMap idx;
  std::unordered_map<int64_t, uint32_t> oracle;
  // Extreme values behave like any other key.
  std::vector<int64_t> specials = {0, -1, INT64_MIN, INT64_MAX,
                                   INT64_MIN + 1};
  for (size_t i = 0; i < 40000; ++i) {
    int64_t k;
    if (i % 100 < 5) {
      k = specials[rng() % specials.size()];
    } else {
      k = static_cast<int64_t>(rng() % 20000) - 10000;
    }
    bool inserted = false;
    uint32_t id = idx.FindOrInsert(k, &inserted);
    auto [it, fresh] =
        oracle.emplace(k, static_cast<uint32_t>(oracle.size()));
    EXPECT_EQ(inserted, fresh);
    EXPECT_EQ(id, it->second);
    EXPECT_EQ(idx.KeyOf(id), k);
  }
  EXPECT_EQ(idx.size(), oracle.size());
}

/// Inserts `keys` into `idx` and checks every id against an insertion-order
/// oracle (dense, first-seen order) and KeyOf.
void InsertAndCheck(FlatIntMap* idx, std::map<int64_t, uint32_t>* oracle,
                    const std::vector<int64_t>& keys) {
  for (int64_t k : keys) {
    bool inserted = false;
    const uint32_t id = idx->FindOrInsert(k, &inserted);
    auto [it, fresh] = oracle->emplace(k, static_cast<uint32_t>(idx->size()) -
                                              (inserted ? 1 : 0));
    EXPECT_EQ(inserted, fresh) << k;
    EXPECT_EQ(id, it->second) << k;
    EXPECT_EQ(idx->KeyOf(id), k);
  }
  // Every key seen so far still finds its id.
  for (const auto& [k, id] : *oracle) {
    bool inserted = true;
    EXPECT_EQ(idx->FindOrInsert(k, &inserted), id) << k;
    EXPECT_FALSE(inserted) << k;
  }
}

TEST(FlatIntMapTest, DirectIdsStayDenseThroughRebaseAndConversion) {
  FlatIntMap idx;
  std::map<int64_t, uint32_t> oracle;
  std::vector<int64_t> keys;
  for (int64_t k = 1000; k < 1100; ++k) keys.push_back(k);
  InsertAndCheck(&idx, &oracle, keys);
  EXPECT_TRUE(idx.direct());
  // Downward and upward re-bases, within a span of 2^16.
  InsertAndCheck(&idx, &oracle, {999, 500, -20000, 1100, 45000, 45535});
  EXPECT_TRUE(idx.direct());
  // A span of exactly 2^16 is direct; one more converts, keeping every id.
  InsertAndCheck(&idx, &oracle, {45536, 7});
  EXPECT_TRUE(idx.direct());
  InsertAndCheck(&idx, &oracle, {45537, 8});
  EXPECT_FALSE(idx.direct());
  EXPECT_EQ(idx.size(), oracle.size());
}

TEST(FlatIntMapTest, DirectSpanGrowsWithTheGroupCount) {
  // 20000 keys 7 apart span 139993 > 2^16, but never more than 8 per group.
  FlatIntMap idx;
  std::map<int64_t, uint32_t> oracle;
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 20000; ++k) keys.push_back(-7 * k);
  InsertAndCheck(&idx, &oracle, keys);
  EXPECT_TRUE(idx.direct());
  EXPECT_GE(FlatIntMap::MaxDirectSpan(20000), uint64_t{139993});
}

TEST(FlatIntMapTest, DirectSpanAtTheInt64Extremes) {
  {
    // Down to INT64_MIN: the directory clamps to the domain.
    FlatIntMap idx;
    std::map<int64_t, uint32_t> oracle;
    InsertAndCheck(&idx, &oracle, {INT64_MIN + 3, INT64_MIN + 1, INT64_MIN});
    EXPECT_TRUE(idx.direct());
    // The widest span there is: no overflow, a conversion.
    InsertAndCheck(&idx, &oracle, {INT64_MAX});
    EXPECT_FALSE(idx.direct());
  }
  {
    FlatIntMap idx;
    std::map<int64_t, uint32_t> oracle;
    InsertAndCheck(&idx, &oracle, {INT64_MAX - 5, INT64_MAX, INT64_MAX - 65536});
    EXPECT_TRUE(idx.direct());
    InsertAndCheck(&idx, &oracle, {INT64_MAX - 65537});
    EXPECT_FALSE(idx.direct());
  }
}

TEST(FlatIntMapTest, NullIdSurvivesRebaseAndConversion) {
  FlatIntMap idx;
  std::map<int64_t, uint32_t> oracle;
  bool inserted = false;
  InsertAndCheck(&idx, &oracle, {0, 1});
  const uint32_t null_id = idx.FindOrInsertNull(&inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(null_id, 2u);
  // Ids after the NULL one skip it.
  bool fresh = false;
  EXPECT_EQ(idx.FindOrInsert(-100, &fresh), 3u);
  EXPECT_TRUE(fresh);
  oracle.emplace(-100, 3u);
  EXPECT_TRUE(idx.direct());
  EXPECT_EQ(idx.FindOrInsert(int64_t{1} << 40, &fresh), 4u);
  oracle.emplace(int64_t{1} << 40, 4u);
  EXPECT_FALSE(idx.direct());
  EXPECT_EQ(idx.FindOrInsertNull(&inserted), null_id);
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(idx.IsNull(null_id));
  for (const auto& [k, id] : oracle) {
    EXPECT_FALSE(idx.IsNull(id)) << k;
    EXPECT_EQ(idx.KeyOf(id), k);
    EXPECT_EQ(idx.FindOrInsert(k, &fresh), id) << k;
  }
}

TEST(FlatIntMapTest, NullKeyLivesOutsideTheIntDomain) {
  FlatIntMap idx;
  bool inserted = false;
  const uint32_t a = idx.FindOrInsert(INT64_MIN + 1, &inserted);
  EXPECT_TRUE(inserted);
  const uint32_t null_id = idx.FindOrInsertNull(&inserted);
  EXPECT_TRUE(inserted);
  EXPECT_NE(null_id, a);
  EXPECT_TRUE(idx.IsNull(null_id));
  EXPECT_FALSE(idx.IsNull(a));
  // Every int64, the old sentinel and 0 (the NULL id's placeholder key)
  // included, stays distinct from the NULL key.
  for (int64_t k : {INT64_MIN, INT64_MIN + 1, int64_t{0}, INT64_MAX}) {
    const uint32_t id = idx.FindOrInsert(k, &inserted);
    EXPECT_FALSE(idx.IsNull(id)) << k;
    EXPECT_EQ(idx.KeyOf(id), k);
  }
  EXPECT_EQ(idx.FindOrInsertNull(&inserted), null_id);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(idx.size(), 5u);  // 4 distinct ints + NULL
}

// --------------------------------------------- COUNT(*) fast path (SQL) --

class CountStarFastPathTest : public ::testing::Test {
 protected:
  CountStarFastPathTest()
      : engine_(EngineConfig{}), session_(engine_.CreateSession()) {
    TableSchema s("PUBLIC", "CNT",
                  {{"ID", TypeId::kInt64, false, 0, false},
                   {"V", TypeId::kInt64, true, 0, false},
                   {"S", TypeId::kVarchar, true, 0, false}});
    auto t = engine_.CreateColumnTable(s);
    EXPECT_TRUE(t.ok());
    RowBatch b;
    b.columns.emplace_back(TypeId::kInt64);
    b.columns.emplace_back(TypeId::kInt64);
    b.columns.emplace_back(TypeId::kVarchar);
    for (int64_t i = 0; i < kRows; ++i) {
      b.columns[0].AppendInt(i);
      if (i % 97 == 0) {
        b.columns[1].AppendNull();
      } else {
        b.columns[1].AppendInt(i % 1000);
      }
      b.columns[2].AppendString("s" + std::to_string(i % 13));
    }
    EXPECT_TRUE((*t)->Load(b).ok());
  }

  QueryResult Exec(const std::string& sql) {
    auto r = engine_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  static constexpr int64_t kRows = 10000;
  Engine engine_;
  std::shared_ptr<Session> session_;
};

TEST_F(CountStarFastPathTest, PlanUsesCountStarScan) {
  QueryResult r = Exec("EXPLAIN SELECT COUNT(*) FROM CNT WHERE V <= 500");
  EXPECT_NE(r.message.find("CountStarScan"), std::string::npos) << r.message;
  // Grouped and multi-column aggregates keep the general plan.
  QueryResult g = Exec("EXPLAIN SELECT V, COUNT(*) FROM CNT GROUP BY V");
  EXPECT_EQ(g.message.find("CountStarScan"), std::string::npos) << g.message;
}

TEST_F(CountStarFastPathTest, CountsMatchOracle) {
  // NULLs never match a predicate; i % 97 == 0 rows are NULL in V.
  int64_t expect_le_500 = 0, expect_total = kRows;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 97 != 0 && i % 1000 <= 500) ++expect_le_500;
  }
  QueryResult r1 = Exec("SELECT COUNT(*) FROM CNT WHERE V <= 500");
  ASSERT_EQ(r1.rows.num_rows(), 1u);
  EXPECT_EQ(r1.rows.columns[0].GetInt(0), expect_le_500);

  QueryResult r2 = Exec("SELECT COUNT(*) AS N FROM CNT");
  ASSERT_EQ(r2.rows.num_rows(), 1u);
  EXPECT_EQ(r2.rows.columns[0].GetInt(0), expect_total);

  // String predicate falls back to the bitmap path but stays correct.
  int64_t expect_s1 = 0;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 13 == 1) ++expect_s1;
  }
  QueryResult r3 = Exec("SELECT COUNT(*) FROM CNT WHERE S = 's1'");
  ASSERT_EQ(r3.rows.num_rows(), 1u);
  EXPECT_EQ(r3.rows.columns[0].GetInt(0), expect_s1);
}

TEST_F(CountStarFastPathTest, DeletesAndTailRowsStayCorrect) {
  Exec("INSERT INTO CNT VALUES (20001, 42, 'tail'), (20002, 42, 'tail')");
  Exec("DELETE FROM CNT WHERE ID < 100");
  int64_t expect = 0;
  for (int64_t i = 100; i < kRows; ++i) {
    if (i % 97 != 0 && i % 1000 <= 500) ++expect;
  }
  expect += 2;  // the two tail rows with V = 42
  QueryResult r = Exec("SELECT COUNT(*) FROM CNT WHERE V <= 500");
  ASSERT_EQ(r.rows.num_rows(), 1u);
  EXPECT_EQ(r.rows.columns[0].GetInt(0), expect);
}

}  // namespace
}  // namespace dashdb

// Tests for the storage engine: column pages (frequency cells, FOR, raw),
// column tables (load/scan/skip/append/delete), the row-store baseline with
// B+Tree indexes, and the clustered-filesystem serialization.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "compression/dict_codes.h"
#include "storage/btree.h"
#include "storage/clusterfs.h"
#include "storage/column_table.h"
#include "storage/row_table.h"

namespace dashdb {
namespace {

// ---------------------------------------------------------------- pages --

TEST(ColumnPageTest, FrequencyPageRoundTrip) {
  std::vector<int64_t> vals;
  Rng rng(1);
  ZipfGenerator z(50, 1.1, 2);
  for (int i = 0; i < 3000; ++i) vals.push_back(static_cast<int64_t>(z.Next()));
  IntColumnStats st = ComputeIntStats(vals.data(), vals.size(), nullptr);
  auto dict = IntFrequencyDict::Build(st.freq_desc);
  auto page = BuildIntPage(vals.data(), vals.size(), nullptr, 0, &dict);
  ASSERT_EQ(page->encoding, PageEncoding::kFrequencyInt);
  ColumnVector out(TypeId::kInt64);
  DecodeIntPage(*page, &dict, nullptr, &out);
  ASSERT_EQ(out.size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(out.GetInt(i), vals[i]);
}

TEST(ColumnPageTest, FrequencyPagePredicateOnCompressed) {
  std::vector<int64_t> vals;
  for (int i = 0; i < 2000; ++i) vals.push_back(i % 97);
  IntColumnStats st = ComputeIntStats(vals.data(), vals.size(), nullptr);
  auto dict = IntFrequencyDict::Build(st.freq_desc);
  auto page = BuildIntPage(vals.data(), vals.size(), nullptr, 0, &dict);
  IntRangePred pred;
  pred.lo = 10;
  pred.hi = 20;
  for (bool swar : {true, false}) {
    for (bool on_comp : {true, false}) {
      BitVector m(vals.size());
      EvalIntRange(*page, &dict, pred, swar, on_comp, &m);
      for (size_t i = 0; i < vals.size(); ++i) {
        ASSERT_EQ(m.Get(i), vals[i] >= 10 && vals[i] <= 20)
            << "i=" << i << " swar=" << swar << " on_comp=" << on_comp;
      }
    }
  }
}

TEST(ColumnPageTest, ExceptionCellHoldsUnseenValues) {
  // Dictionary built from {0..9}; page contains 999 (post-load insert).
  std::vector<std::pair<int64_t, size_t>> freq;
  for (int i = 0; i < 10; ++i) freq.emplace_back(i, 10 - i);
  auto dict = IntFrequencyDict::Build(freq);
  std::vector<int64_t> vals = {1, 2, 999, 3};
  auto page = BuildIntPage(vals.data(), vals.size(), nullptr, 0, &dict);
  EXPECT_EQ(page->exc_ints.size(), 1u);
  ColumnVector out(TypeId::kInt64);
  DecodeIntPage(*page, &dict, nullptr, &out);
  EXPECT_EQ(out.GetInt(2), 999);
  // Predicates still see the exception value.
  IntRangePred pred;
  pred.lo = 500;
  BitVector m(4);
  EvalIntRange(*page, &dict, pred, true, true, &m);
  EXPECT_TRUE(m.Get(2));
  EXPECT_EQ(m.CountSet(), 1u);
}

TEST(ColumnPageTest, NullsNeverMatchAndDecodeAsNull) {
  std::vector<int64_t> vals = {5, 0, 7};
  BitVector nulls(3);
  nulls.Set(1);
  // FOR page (no dict): nulls stored as code 0.
  auto page = BuildIntPage(vals.data(), vals.size(), &nulls, 0, nullptr);
  IntRangePred pred;
  pred.lo = 0;  // would match the null's code-0 slot if unmasked
  BitVector m(3);
  EvalIntRange(*page, nullptr, pred, true, true, &m);
  EXPECT_TRUE(m.Get(0));
  EXPECT_FALSE(m.Get(1));
  EXPECT_TRUE(m.Get(2));
  ColumnVector out(TypeId::kInt64);
  DecodeIntPage(*page, nullptr, nullptr, &out);
  EXPECT_TRUE(out.IsNull(1));
  EXPECT_EQ(out.GetInt(2), 7);
}

TEST(ColumnPageTest, StringPagePredicates) {
  std::vector<std::string> vals = {"alpha", "beta", "alpha", "gamma", "beta"};
  StringColumnStats st = ComputeStringStats(vals.data(), vals.size(), nullptr);
  auto dict = StringFrequencyDict::Build(st.freq_desc);
  auto page = BuildStringPage(vals.data(), vals.size(), nullptr, 0, &dict);
  StrRangePred eq;
  eq.lo = "beta";
  eq.hi = "beta";
  BitVector m(5);
  EvalStringRange(*page, &dict, eq, true, true, &m);
  EXPECT_EQ(m.CountSet(), 2u);
  EXPECT_TRUE(m.Get(1));
  EXPECT_TRUE(m.Get(4));
  ColumnVector out(TypeId::kVarchar);
  DecodeStringPage(*page, &dict, &m, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.GetString(0), "beta");
}

TEST(ColumnPageTest, SelectiveDecodePreservesRowOrder) {
  std::vector<int64_t> vals;
  for (int i = 0; i < 1000; ++i) vals.push_back(i % 7);
  IntColumnStats st = ComputeIntStats(vals.data(), vals.size(), nullptr);
  auto dict = IntFrequencyDict::Build(st.freq_desc);
  auto page = BuildIntPage(vals.data(), vals.size(), nullptr, 0, &dict);
  BitVector sel(1000);
  for (size_t i = 0; i < 1000; i += 13) sel.Set(i);
  ColumnVector out(TypeId::kInt64);
  DecodeIntPage(*page, &dict, &sel, &out);
  size_t k = 0;
  for (size_t i = 0; i < 1000; i += 13, ++k) {
    ASSERT_EQ(out.GetInt(k), vals[i]);
  }
}

TEST(ColumnPageTest, CompressedSmallerThanRaw) {
  std::vector<int64_t> vals;
  ZipfGenerator z(16, 1.2, 4);
  for (int i = 0; i < 4096; ++i) vals.push_back(static_cast<int64_t>(z.Next()));
  IntColumnStats st = ComputeIntStats(vals.data(), vals.size(), nullptr);
  auto dict = IntFrequencyDict::Build(st.freq_desc);
  auto page = BuildIntPage(vals.data(), vals.size(), nullptr, 0, &dict);
  EXPECT_LT(page->ByteSize(), vals.size() * 2);  // vs 8 bytes/value raw
}

// ---------------------------------------------------------------- table --

TableSchema SalesSchema() {
  TableSchema s("PUBLIC", "SALES",
                {{"ID", TypeId::kInt64, false, 0, false},
                 {"REGION", TypeId::kVarchar, true, 0, false},
                 {"SALE_DATE", TypeId::kDate, true, 0, false},
                 {"AMOUNT", TypeId::kDouble, true, 0, false}});
  return s;
}

RowBatch MakeSales(size_t n, uint64_t seed = 9) {
  Rng rng(seed);
  const char* regions[] = {"NORTH", "SOUTH", "EAST", "WEST"};
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kVarchar);
  b.columns.emplace_back(TypeId::kDate);
  b.columns.emplace_back(TypeId::kDouble);
  for (size_t i = 0; i < n; ++i) {
    b.columns[0].AppendInt(static_cast<int64_t>(i));
    b.columns[1].AppendString(regions[rng.Uniform(4)]);
    // Dates ascend: row i is day i/8 (mimics time-ordered ingest).
    b.columns[2].AppendInt(17000 + static_cast<int64_t>(i / 8));
    b.columns[3].AppendDouble(static_cast<double>(rng.Uniform(10000)) / 100);
  }
  return b;
}

TEST(ColumnTableTest, LoadAndFullScan) {
  ColumnTable t(SalesSchema(), 1);
  ASSERT_TRUE(t.Load(MakeSales(10000)).ok());
  EXPECT_EQ(t.row_count(), 10000u);
  size_t rows = 0;
  ScanOptions opts;
  ASSERT_TRUE(t.Scan({}, {0, 1, 2, 3}, opts,
                     [&](RowBatch& b, const std::vector<uint64_t>&) {
                       rows += b.num_rows();
                     })
                  .ok());
  EXPECT_EQ(rows, 10000u);
}

TEST(ColumnTableTest, PredicateScanMatchesNaiveFilter) {
  RowBatch data = MakeSales(20000);
  ColumnTable t(SalesSchema(), 2);
  ASSERT_TRUE(t.Load(data).ok());
  ColumnPredicate pred;
  pred.column = 2;  // SALE_DATE
  pred.int_range.lo = 17100;
  pred.int_range.hi = 17200;
  size_t expect = 0;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    int64_t d = data.columns[2].GetInt(i);
    if (d >= 17100 && d <= 17200) ++expect;
  }
  ScanOptions opts;
  auto count = t.CountRows({pred}, opts);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expect);
}

TEST(ColumnTableTest, SynopsisSkipsTimeOrderedData) {
  ColumnTable t(SalesSchema(), 3);
  ASSERT_TRUE(t.Load(MakeSales(100000)).ok());
  ColumnPredicate pred;
  pred.column = 2;
  pred.int_range.lo = 17000 + 100000 / 8 - 100;  // last ~800 rows
  ScanOptions opts;
  ScanStats stats;
  size_t rows = 0;
  ASSERT_TRUE(t.Scan({pred}, {0}, opts,
                     [&](RowBatch& b, const std::vector<uint64_t>&) {
                       rows += b.num_rows();
                     },
                     &stats)
                  .ok());
  EXPECT_GT(stats.pages_skipped, t.num_pages() * 8 / 10)
      << "most pages should be skipped for a recent-date predicate";
  EXPECT_GT(rows, 0u);
}

TEST(ColumnTableTest, FeaturetogglesGiveIdenticalResults) {
  // Property: synopsis/SWAR/compressed-domain toggles never change results.
  RowBatch data = MakeSales(30000);
  ColumnTable t(SalesSchema(), 4);
  ASSERT_TRUE(t.Load(data).ok());
  ColumnPredicate p1;
  p1.column = 2;
  p1.int_range.lo = 17050;
  p1.int_range.hi = 17300;
  ColumnPredicate p2;
  p2.column = 1;
  p2.str_range.lo = "WEST";
  p2.str_range.hi = "WEST";
  size_t baseline = SIZE_MAX;
  for (bool syn : {true, false}) {
    for (bool swar : {true, false}) {
      for (bool comp : {true, false}) {
        ScanOptions o;
        o.use_synopsis = syn;
        o.use_swar = swar;
        o.operate_on_compressed = comp;
        auto c = t.CountRows({p1, p2}, o);
        ASSERT_TRUE(c.ok());
        if (baseline == SIZE_MAX) baseline = *c;
        ASSERT_EQ(*c, baseline) << syn << swar << comp;
      }
    }
  }
  EXPECT_GT(baseline, 0u);
}

/// A batch's cells, null flags and dictionary-code sidecar, for a
/// byte-identity check.
std::string ScanBytes(const RowBatch& b) {
  std::string s;
  for (const ColumnVector& cv : b.columns) {
    s += "col " + std::to_string(static_cast<int>(cv.type())) + " rows " +
         std::to_string(cv.size()) + "\n";
    for (size_t i = 0; i < cv.size(); ++i) {
      s += cv.IsNull(i) ? "null" : cv.GetValue(i).ToString();
      s += '|';
    }
    const auto& dc = cv.dict_codes();
    s += dc ? "\ncodes " + std::to_string(dc->codes.size()) + ":" : "\nno codes";
    if (dc) {
      for (size_t i = 0; i < dc->codes.size(); ++i) {
        s += std::to_string(dc->codes.Get(i)) + ",";
      }
    }
    s += '\n';
  }
  return s;
}

TEST(ColumnTableTest, RuntimeFilterKeyDecodeIsReusedByTheProjection) {
  // K BIGINT (50 values, dictionary pages), S VARCHAR, D DOUBLE over
  // three full pages and more; the filter is on K, projected first.
  TableSchema schema("PUBLIC", "RF",
                     {{"K", TypeId::kInt64, false, 0, false},
                      {"S", TypeId::kVarchar, true, 0, false},
                      {"D", TypeId::kDouble, true, 0, false}});
  ColumnTable t(schema, 7);
  RowBatch rows;
  for (const auto& c : schema.columns()) rows.columns.emplace_back(c.type);
  const size_t n = 3 * kPageRows + 100;
  for (size_t i = 0; i < n; ++i) {
    rows.columns[0].AppendInt(static_cast<int64_t>(i * 7 % 50));
    if (i % 11 == 0) {
      rows.columns[1].AppendNull();
      rows.columns[2].AppendNull();
    } else {
      rows.columns[1].AppendString("s" + std::to_string(i % 13));
      rows.columns[2].AppendDouble(static_cast<double>(i) * 0.5);
    }
  }
  ASSERT_TRUE(t.Load(rows).ok());
  ASSERT_GE(t.num_pages(), 3u);
  auto every = std::make_shared<BloomPrefilter>();
  auto even = std::make_shared<BloomPrefilter>();
  every->Init(50);
  even->Init(50);
  for (int64_t k = 0; k < 50; ++k) {
    every->Add(HashInt64(static_cast<uint64_t>(k)));
    if (k % 2 == 0) even->Add(HashInt64(static_cast<uint64_t>(k)));
  }
  const std::vector<int> projection = {0, 1, 2};
  ScanOptions opts;
  auto scan = [&](size_t p, std::shared_ptr<const BloomPrefilter> bloom) {
    RowBatch out;
    for (const auto& c : schema.columns()) out.columns.emplace_back(c.type);
    std::vector<ScanRuntimeFilter> filters;
    if (bloom) filters.push_back({0, std::move(bloom)});
    EXPECT_TRUE(t.ScanPage(p, {}, projection, filters, opts, &out, nullptr)
                    .ok());
    return out;
  };
  size_t kept_total = 0;
  for (size_t p = 0; p <= t.num_pages(); ++p) {
    SCOPED_TRACE("page " + std::to_string(p));
    const RowBatch plain = scan(p, nullptr);
    if (p == 0) {
      ASSERT_NE(ScanBytes(plain).find("codes "), std::string::npos);
    }
    // A filter that drops nothing: the same bytes, sidecar included.
    EXPECT_EQ(ScanBytes(scan(p, every)), ScanBytes(plain));
    // A filter that drops rows: the unfiltered rows without the dropped
    // keys.
    RowBatch want;
    for (const auto& c : schema.columns()) want.columns.emplace_back(c.type);
    for (size_t i = 0; i < plain.num_rows(); ++i) {
      const int64_t k = plain.columns[0].GetInt(i);
      if (!even->MayContain(HashInt64(static_cast<uint64_t>(k)))) continue;
      for (size_t c = 0; c < 3; ++c) {
        want.columns[c].AppendFrom(plain.columns[c], i);
      }
    }
    if (plain.num_rows() > 0) {
      ASSERT_LT(want.num_rows(), plain.num_rows());
    }
    kept_total += want.num_rows();
    EXPECT_EQ(ScanBytes(scan(p, even)), ScanBytes(want));
  }
  EXPECT_GT(kept_total, 0u);
}

TEST(ColumnTableTest, AppendGoesThroughTailAndFlushes) {
  ColumnTable t(SalesSchema(), 5);
  ASSERT_TRUE(t.Load(MakeSales(5000)).ok());
  size_t pages_before = t.num_pages();
  ASSERT_TRUE(t.Append(MakeSales(9000, 77)).ok());
  EXPECT_EQ(t.row_count(), 14000u);
  EXPECT_GT(t.num_pages(), pages_before);
  ScanOptions opts;
  auto c = t.CountRows({}, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 14000u);
}

TEST(ColumnTableTest, AppendRowVisibleInTail) {
  ColumnTable t(SalesSchema(), 6);
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(1), Value::String("NORTH"),
                   Value::Date(17500), Value::Double(9.5)})
          .ok());
  ColumnPredicate pred;
  pred.column = 0;
  pred.int_range.lo = 1;
  pred.int_range.hi = 1;
  ScanOptions opts;
  EXPECT_EQ(*t.CountRows({pred}, opts), 1u);
  EXPECT_EQ(t.GetCell(0, 1).AsString(), "NORTH");
}

TEST(ColumnTableTest, DeleteHidesRows) {
  ColumnTable t(SalesSchema(), 7);
  ASSERT_TRUE(t.Load(MakeSales(10000)).ok());
  std::vector<uint64_t> victims;
  ScanOptions opts;
  ColumnPredicate pred;
  pred.column = 0;
  pred.int_range.hi = 99;  // ids 0..99
  ASSERT_TRUE(t.Scan({pred}, {}, opts,
                     [&](RowBatch&, const std::vector<uint64_t>& ids) {
                       victims.insert(victims.end(), ids.begin(), ids.end());
                     })
                  .ok());
  ASSERT_EQ(victims.size(), 100u);
  ASSERT_TRUE(t.DeleteRows(victims).ok());
  EXPECT_EQ(t.live_row_count(), 9900u);
  EXPECT_EQ(*t.CountRows({pred}, opts), 0u);
  EXPECT_EQ(*t.CountRows({}, opts), 9900u);
}

TEST(ColumnTableTest, UniqueConstraintEnforced) {
  TableSchema s("PUBLIC", "U",
                {{"ID", TypeId::kInt64, false, 0, true},
                 {"V", TypeId::kInt64, true, 0, false}});
  ColumnTable t(s, 8);
  ASSERT_TRUE(t.AppendRow({Value::Int64(1), Value::Int64(10)}).ok());
  EXPECT_EQ(t.AppendRow({Value::Int64(1), Value::Int64(20)}).code(),
            StatusCode::kAlreadyExists);
  // Delete releases the key (UPDATE = delete + insert must work).
  ASSERT_TRUE(t.DeleteRows({0}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int64(1), Value::Int64(30)}).ok());
}

TEST(ColumnTableTest, TruncateEmptiesTable) {
  ColumnTable t(SalesSchema(), 9);
  ASSERT_TRUE(t.Load(MakeSales(5000)).ok());
  t.Truncate();
  EXPECT_EQ(t.row_count(), 0u);
  ScanOptions opts;
  EXPECT_EQ(*t.CountRows({}, opts), 0u);
  // Reload works after truncate.
  ASSERT_TRUE(t.Load(MakeSales(100)).ok());
  EXPECT_EQ(t.row_count(), 100u);
}

TEST(ColumnTableTest, CompressionBeatsRawOnTypicalData) {
  ColumnTable t(SalesSchema(), 10);
  ASSERT_TRUE(t.Load(MakeSales(100000)).ok());
  EXPECT_LT(t.CompressedBytes() * 2, t.RawBytes())
      << "typical warehouse data should compress >2x";
  EXPECT_LT(t.SynopsisBytes() * 100, t.CompressedBytes());
}

TEST(ColumnTableTest, BufferPoolChargedDuringScan) {
  ColumnTable t(SalesSchema(), 11);
  ASSERT_TRUE(t.Load(MakeSales(50000)).ok());
  BufferPool pool(size_t{64} << 20, ReplacementPolicy::kRandomWeight);
  ScanOptions opts;
  opts.pool = &pool;
  ColumnPredicate pred;
  pred.column = 0;
  pred.int_range.lo = 0;
  (void)*t.CountRows({pred}, opts);
  EXPECT_GT(pool.stats().accesses, 0u);
  auto misses_first = pool.stats().misses;
  (void)*t.CountRows({pred}, opts);
  EXPECT_EQ(pool.stats().misses, misses_first) << "second scan should hit";
}

// ------------------------------------------------------------ row store --

TEST(BPlusTreeTest, InsertLookup) {
  BPlusTree t;
  for (int64_t k = 0; k < 10000; ++k) t.Insert(k * 2, static_cast<uint64_t>(k));
  EXPECT_EQ(t.size(), 10000u);
  EXPECT_GT(t.height(), 1);
  auto hits = t.Lookup(500);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 250u);
  EXPECT_TRUE(t.Lookup(501).empty());
}

TEST(BPlusTreeTest, DuplicateKeys) {
  BPlusTree t;
  for (int i = 0; i < 100; ++i) t.Insert(7, static_cast<uint64_t>(i));
  EXPECT_EQ(t.Lookup(7).size(), 100u);
}

TEST(BPlusTreeTest, RangeScanOrderedAndComplete) {
  BPlusTree t;
  Rng rng(13);
  std::multiset<int64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    int64_t k = rng.Range(0, 5000);
    t.Insert(k, static_cast<uint64_t>(i));
    truth.insert(k);
  }
  int64_t prev = INT64_MIN;
  size_t n = 0;
  t.SeekRange(1000, 2000, [&](int64_t k, uint64_t) {
    EXPECT_GE(k, prev);
    EXPECT_GE(k, 1000);
    EXPECT_LE(k, 2000);
    prev = k;
    ++n;
  });
  size_t expect = std::distance(truth.lower_bound(1000),
                                truth.upper_bound(2000));
  EXPECT_EQ(n, expect);
}

TEST(RowTableTest, AppendScanRoundTrip) {
  RowTable t(SalesSchema(), 20);
  ASSERT_TRUE(t.Append(MakeSales(5000)).ok());
  EXPECT_EQ(t.row_count(), 5000u);
  size_t rows = 0;
  ASSERT_TRUE(t.Scan({}, {0, 1, 3},
                     [&](RowBatch& b, const std::vector<uint64_t>&) {
                       rows += b.num_rows();
                     })
                  .ok());
  EXPECT_EQ(rows, 5000u);
  EXPECT_EQ(t.GetCell(0, 0).AsInt(), 0);
}

TEST(RowTableTest, RowAndColumnScansAgree) {
  // Property: both engines return identical answers for the same predicate.
  RowBatch data = MakeSales(20000);
  RowTable rt(SalesSchema(), 21);
  ColumnTable ct(SalesSchema(), 22);
  ASSERT_TRUE(rt.Append(data).ok());
  ASSERT_TRUE(ct.Load(data).ok());
  ColumnPredicate pred;
  pred.column = 2;
  pred.int_range.lo = 17100;
  pred.int_range.hi = 17500;
  size_t row_hits = 0;
  ASSERT_TRUE(rt.Scan({pred}, {0},
                      [&](RowBatch& b, const std::vector<uint64_t>&) {
                        row_hits += b.num_rows();
                      })
                  .ok());
  ScanOptions opts;
  EXPECT_EQ(*ct.CountRows({pred}, opts), row_hits);
}

TEST(RowTableTest, IndexScanAgreesWithFullScan) {
  RowTable t(SalesSchema(), 23);
  ASSERT_TRUE(t.Append(MakeSales(20000)).ok());
  ASSERT_TRUE(t.CreateIndex(2).ok());
  ColumnPredicate pred;
  pred.column = 2;
  pred.int_range.lo = 17100;
  pred.int_range.hi = 17150;
  size_t full = 0, via_index = 0;
  ASSERT_TRUE(t.Scan({pred}, {0},
                     [&](RowBatch& b, const std::vector<uint64_t>&) {
                       full += b.num_rows();
                     })
                  .ok());
  ASSERT_TRUE(t.IndexScan(2, 17100, 17150, {}, {0},
                          [&](RowBatch& b, const std::vector<uint64_t>&) {
                            via_index += b.num_rows();
                          })
                  .ok());
  EXPECT_EQ(full, via_index);
  EXPECT_GT(full, 0u);
}

TEST(RowTableTest, InPlaceUpdateAndStaleIndexEntries) {
  RowTable t(SalesSchema(), 24);
  ASSERT_TRUE(t.Append(MakeSales(100)).ok());
  ASSERT_TRUE(t.CreateIndex(0).ok());
  // Move row 5's key from 5 to 1000005.
  auto row = t.GetRow(5);
  row[0] = Value::Int64(1000005);
  ASSERT_TRUE(t.UpdateRow(5, row).ok());
  size_t via_old = 0, via_new = 0;
  ASSERT_TRUE(t.IndexScan(0, 5, 5, {}, {0},
                          [&](RowBatch& b, const std::vector<uint64_t>&) {
                            via_old += b.num_rows();
                          })
                  .ok());
  ASSERT_TRUE(t.IndexScan(0, 1000005, 1000005, {}, {0},
                          [&](RowBatch& b, const std::vector<uint64_t>&) {
                            via_new += b.num_rows();
                          })
                  .ok());
  EXPECT_EQ(via_old, 0u) << "stale index entry must be filtered by re-check";
  EXPECT_EQ(via_new, 1u);
}

TEST(RowTableTest, DeleteRows) {
  RowTable t(SalesSchema(), 25);
  ASSERT_TRUE(t.Append(MakeSales(1000)).ok());
  ASSERT_TRUE(t.DeleteRows({1, 2, 3}).ok());
  EXPECT_EQ(t.live_row_count(), 997u);
  size_t rows = 0;
  ASSERT_TRUE(t.Scan({}, {0},
                     [&](RowBatch& b, const std::vector<uint64_t>&) {
                       rows += b.num_rows();
                     })
                  .ok());
  EXPECT_EQ(rows, 997u);
}

// ------------------------------------------------------------ clusterfs --

TEST(ClusterFsTest, WriteReadListRemove) {
  ClusterFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/shard0/data.bin", {1, 2, 3}).ok());
  ASSERT_TRUE(fs.WriteFile("/shard1/data.bin", {4}).ok());
  auto r = fs.ReadFile("/shard0/data.bin");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->size(), 3u);
  EXPECT_EQ(fs.List("/shard").size(), 2u);
  EXPECT_EQ(fs.TotalBytes(), 4u);
  ASSERT_TRUE(fs.Remove("/shard1/data.bin").ok());
  EXPECT_FALSE(fs.Exists("/shard1/data.bin"));
  EXPECT_EQ(fs.ReadFile("/nope").status().code(), StatusCode::kNotFound);
}

TEST(ClusterFsTest, BatchSerializationRoundTrip) {
  TableSchema schema = SalesSchema();
  RowBatch b = MakeSales(500);
  b.columns[1].AppendNull();  // exercise nulls
  b.columns[0].AppendInt(500);
  b.columns[2].AppendNull();
  b.columns[3].AppendDouble(1.25);
  std::vector<uint8_t> bytes;
  SerializeBatch(schema, b, &bytes);
  auto r = DeserializeBatch(schema, bytes.data(), bytes.size());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 501u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(r->columns[0].GetInt(i), b.columns[0].GetInt(i));
    EXPECT_EQ(r->columns[1].GetString(i), b.columns[1].GetString(i));
    EXPECT_EQ(r->columns[3].GetDouble(i), b.columns[3].GetDouble(i));
  }
  EXPECT_TRUE(r->columns[1].IsNull(500));
  EXPECT_TRUE(r->columns[2].IsNull(500));
  EXPECT_DOUBLE_EQ(r->columns[3].GetDouble(500), 1.25);
}

TEST(ClusterFsTest, TruncatedFileRejected) {
  TableSchema schema = SalesSchema();
  RowBatch b = MakeSales(10);
  std::vector<uint8_t> bytes;
  SerializeBatch(schema, b, &bytes);
  auto r = DeserializeBatch(schema, bytes.data(), bytes.size() / 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ClusterFsTest, SaveAndLoadColumnTable) {
  ClusterFileSystem fs;
  ColumnTable t(SalesSchema(), 30);
  ASSERT_TRUE(t.Load(MakeSales(12345)).ok());
  // Delete some rows; save persists only live rows.
  ASSERT_TRUE(t.DeleteRows({0, 1, 2}).ok());
  ASSERT_TRUE(SaveColumnTable(t, &fs, "/tables/sales").ok());
  auto r = LoadColumnTable(SalesSchema(), 31, fs, "/tables/sales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->row_count(), 12342u);
  ScanOptions opts;
  ColumnPredicate pred;
  pred.column = 0;
  pred.int_range.lo = 0;
  pred.int_range.hi = 2;
  EXPECT_EQ(*(*r)->CountRows({pred}, opts), 0u);
}

}  // namespace
}  // namespace dashdb

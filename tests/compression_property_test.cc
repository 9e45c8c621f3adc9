// Property-based round-trip tests for the compression layer: frequency
// dictionaries (multi-partition and single-partition), minus/FOR encoding,
// and whole-page encode/decode — over seeded-random value distributions
// (uniform, Zipf-skewed, all-distinct) plus the degenerate pages that break
// naive encoders: empty, all-NULL, and single-distinct-value. Every
// generator is seeded through common/rng.h so a failure replays exactly.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutil.h"
#include "common/rng.h"
#include "compression/for_encoding.h"
#include "compression/frequency_dict.h"
#include "compression/stats.h"
#include "storage/column_page.h"

namespace dashdb {
namespace {

struct IntDataset {
  std::string label;
  std::vector<int64_t> values;
  BitVector nulls;  ///< sized values.size(); empty-size when no nulls
  const BitVector* nulls_ptr() const {
    return nulls.size() == 0 ? nullptr : &nulls;
  }
};

/// Seeded distributions covering the encoder decision space: few distinct
/// values (frequency partitions earn their 1-bit codes), Zipf skew (mixed
/// partition occupancy), dense high-cardinality (FOR territory), negatives
/// (FOR base handling), plus the degenerate shapes.
std::vector<IntDataset> MakeIntDatasets(uint64_t seed) {
  std::vector<IntDataset> out;

  {
    IntDataset d;
    d.label = "uniform_low_card";
    Rng rng(seed);
    for (int i = 0; i < 3000; ++i) {
      d.values.push_back(static_cast<int64_t>(rng.Uniform(12)));
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "zipf_skewed";
    ZipfGenerator zipf(500, 1.2, seed + 1);
    for (int i = 0; i < 4000; ++i) {
      d.values.push_back(static_cast<int64_t>(zipf.Next()) * 17 - 3000);
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "all_distinct_with_nulls";
    Rng rng(seed + 2);
    d.nulls.Resize(2500);
    for (int i = 0; i < 2500; ++i) {
      d.values.push_back(i * 7 - 9000);
      if (rng.Bernoulli(0.1)) d.nulls.Set(i);
    }
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "empty_page";
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "all_null_page";
    d.values.assign(kPageRows, 0);
    d.nulls.Resize(kPageRows);
    d.nulls.SetAll();
    out.push_back(std::move(d));
  }
  {
    IntDataset d;
    d.label = "single_distinct_page";
    d.values.assign(1777, 42);
    out.push_back(std::move(d));
  }
  return out;
}

TEST(CompressionPropertyTest, FrequencyDictRoundTripsEveryDistribution) {
  for (const auto& d : MakeIntDatasets(0xD45BDB01)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    ASSERT_TRUE(stats.ndv_exact);
    IntFrequencyDict dict = IntFrequencyDict::Build(stats.freq_desc);
    EXPECT_EQ(dict.total_values(), stats.ndv);

    // Encode->Decode identity for every non-null value.
    for (size_t i = 0; i < d.values.size(); ++i) {
      if (d.nulls_ptr() && d.nulls.Get(i)) continue;
      auto pc = dict.Encode(d.values[i]);
      ASSERT_TRUE(pc.has_value()) << "value " << d.values[i];
      EXPECT_EQ(dict.Decode(pc->partition, pc->code), d.values[i]);
    }
    // Order preservation within each partition: code order == value order.
    for (int p = 0; p < dict.num_partitions(); ++p) {
      for (size_t c = 1; c < dict.partition_size(p); ++c) {
        EXPECT_LT(dict.Decode(static_cast<uint8_t>(p),
                              static_cast<uint32_t>(c - 1)),
                  dict.Decode(static_cast<uint8_t>(p),
                              static_cast<uint32_t>(c)))
            << "partition " << p << " code " << c;
      }
      // Width schedule honored: partition p never exceeds its capacity.
      EXPECT_LE(dict.partition_size(p),
                size_t{1} << kPartitionWidths[p]);
    }
  }
}

TEST(CompressionPropertyTest, SinglePartitionDictIsGloballyOrderPreserving) {
  for (const auto& d : MakeIntDatasets(0xD45BDB02)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    IntFrequencyDict dict =
        IntFrequencyDict::BuildSinglePartition(stats.freq_desc);
    ASSERT_TRUE(dict.is_single_partition());
    int64_t prev = 0;
    bool first = true;
    for (uint32_t c = 0; c < dict.partition_size(0); ++c) {
      int64_t v = dict.Decode(0, c);
      if (!first) {
        EXPECT_LT(prev, v) << "codes must sort like values";
      }
      auto pc = dict.Encode(v);
      ASSERT_TRUE(pc.has_value());
      EXPECT_EQ(pc->code, c);
      prev = v;
      first = false;
    }
    if (dict.partition_size(0) > 0) {
      EXPECT_EQ(dict.single_width(),
                BitWidthFor(dict.partition_size(0) - 1));
    }
  }
}

TEST(CompressionPropertyTest, ForEncodingRoundTrips) {
  for (const auto& d : MakeIntDatasets(0xD45BDB03)) {
    SCOPED_TRACE(d.label);
    if (d.values.empty()) continue;  // ForEncode is per-page, pages nonempty
    ForEncoded e =
        ForEncode(d.values.data(), d.values.size(), d.nulls_ptr());
    ASSERT_EQ(e.size(), d.values.size());
    for (size_t i = 0; i < d.values.size(); ++i) {
      if (d.nulls_ptr() && d.nulls.Get(i)) continue;  // code 0, mask on decode
      EXPECT_EQ(e.Get(i), d.values[i]) << "row " << i;
    }
    // The code domain translation agrees with the value domain on a seeded
    // sample of range predicates.
    Rng rng(0xD45BDB04);
    for (int trial = 0; trial < 20; ++trial) {
      int64_t lo = d.values[rng.Uniform(d.values.size())];
      int64_t hi = d.values[rng.Uniform(d.values.size())];
      if (lo > hi) std::swap(lo, hi);
      auto cr = ForRangeFor(e, &lo, true, &hi, true);
      for (size_t i = 0; i < d.values.size(); ++i) {
        if (d.nulls_ptr() && d.nulls.Get(i)) continue;
        bool in_value_domain = d.values[i] >= lo && d.values[i] <= hi;
        bool in_code_domain =
            cr.has_value() && e.codes.Get(i) >= cr->lo &&
            e.codes.Get(i) <= cr->hi;
        EXPECT_EQ(in_code_domain, in_value_domain)
            << "row " << i << " pred [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST(CompressionPropertyTest, IntPageRoundTripsFrequencyAndForEncodings) {
  for (const auto& d : MakeIntDatasets(0xD45BDB05)) {
    SCOPED_TRACE(d.label);
    IntColumnStats stats =
        ComputeIntStats(d.values.data(), d.values.size(), d.nulls_ptr());
    IntFrequencyDict dict = IntFrequencyDict::Build(stats.freq_desc);
    for (bool use_dict : {true, false}) {
      SCOPED_TRACE(use_dict ? "frequency" : "for");
      auto page = BuildIntPage(d.values.data(), d.values.size(),
                               d.nulls_ptr(), 0, use_dict ? &dict : nullptr);
      ASSERT_NE(page, nullptr);
      ASSERT_EQ(page->num_rows, d.values.size());
      ColumnVector out(TypeId::kInt64);
      DecodeIntPage(*page, use_dict ? &dict : nullptr, nullptr, &out);
      ASSERT_EQ(out.size(), d.values.size());
      for (size_t i = 0; i < d.values.size(); ++i) {
        bool want_null = d.nulls_ptr() && d.nulls.Get(i);
        ASSERT_EQ(out.IsNull(i), want_null) << "row " << i;
        if (!want_null) {
          EXPECT_EQ(out.GetInt(i), d.values[i]) << "row " << i;
        }
      }
    }
  }
}

TEST(CompressionPropertyTest, StringDictAndPageRoundTrip) {
  Rng rng(0xD45BDB06);
  std::vector<std::string> values;
  BitVector nulls(3000);
  for (int i = 0; i < 3000; ++i) {
    // Shared prefixes stress the front-coded dictionary payload.
    values.push_back("key_" + std::to_string(rng.Uniform(40)) + "_" +
                     std::to_string(rng.Uniform(5)));
    if (rng.Bernoulli(0.05)) nulls.Set(i);
  }
  StringColumnStats stats =
      ComputeStringStats(values.data(), values.size(), &nulls);
  ASSERT_TRUE(stats.ndv_exact);
  StringFrequencyDict dict = StringFrequencyDict::Build(stats.freq_desc);
  for (size_t i = 0; i < values.size(); ++i) {
    if (nulls.Get(i)) continue;
    auto pc = dict.Encode(values[i]);
    ASSERT_TRUE(pc.has_value());
    EXPECT_EQ(dict.Decode(pc->partition, pc->code), values[i]);
  }
  auto page = BuildStringPage(values.data(), values.size(), &nulls, 0, &dict);
  ASSERT_NE(page, nullptr);
  ColumnVector out(TypeId::kVarchar);
  DecodeStringPage(*page, &dict, nullptr, &out);
  ASSERT_EQ(out.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(out.IsNull(i), static_cast<bool>(nulls.Get(i))) << "row " << i;
    if (!nulls.Get(i)) {
      EXPECT_EQ(out.GetString(i), values[i]) << "row " << i;
    }
  }
}

// ------------------------------------------------ page decode kernel --
//
// DecodeIntPage / DecodeDoublePage decode whole words into the output
// payload. The oracle below is the per-row, Get-based decoder they
// replaced; it lives only here.

/// Reference decoder: one BitPackedArray::Get (a divide and a modulo) and
/// one append per row.
void ReferenceDecodeIntPage(const ColumnPage& page,
                            const IntFrequencyDict* dict, const BitVector* sel,
                            ColumnVector* out) {
  const size_t n = page.num_rows;
  std::vector<int64_t> vals(n, 0);
  switch (page.encoding) {
    case PageEncoding::kFrequencyInt:
      for (const auto& cell : page.cells) {
        for (size_t i = 0; i < cell.codes.size(); ++i) {
          vals[cell.offsets.Get(i)] = dict->Decode(
              cell.partition, static_cast<uint32_t>(cell.codes.Get(i)));
        }
      }
      break;
    case PageEncoding::kDictInt:
      for (size_t i = 0; i < n; ++i) {
        if (page.has_nulls && page.nulls.Get(i)) continue;
        vals[i] =
            dict->Decode(0, static_cast<uint32_t>(page.ordered_codes.Get(i)));
      }
      break;
    case PageEncoding::kFor:
      for (size_t i = 0; i < n; ++i) vals[i] = page.fo.Get(i);
      break;
    case PageEncoding::kRawInt:
      for (size_t i = 0; i < n; ++i) vals[i] = page.raw_ints[i];
      break;
    default:
      FAIL() << "not an integer page";
  }
  for (size_t e = 0; e < page.exc_ints.size(); ++e) {
    vals[page.exc_offsets[e]] = page.exc_ints[e];
  }
  for (size_t i = 0; i < n; ++i) {
    if (sel && !sel->Get(i)) continue;
    if (page.has_nulls && page.nulls.Get(i)) {
      out->AppendNull();
    } else {
      out->AppendInt(vals[i]);
    }
  }
}

/// Expects byte-identical columns: size, null bitmap and payload (a NULL
/// row's payload included).
void ExpectSameColumn(const ColumnVector& got, const ColumnVector& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.null_count(), want.null_count());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << "row " << i;
    if (want.type() == TypeId::kDouble) {
      ASSERT_EQ(got.doubles()[i], want.doubles()[i]) << "row " << i;
    } else {
      ASSERT_EQ(got.ints()[i], want.ints()[i]) << "row " << i;
    }
  }
}

/// Code of `width` bits below `limit` (0 = no limit beyond the width).
uint64_t RandomCode(Rng* rng, int width, uint64_t limit) {
  uint64_t c = rng->Next();
  if (width < 64) c &= (uint64_t{1} << width) - 1;
  return limit != 0 ? c % limit : c;
}

/// The selections every page is decoded under: none, a sparse and a dense
/// random subset, 64-row words drawn whole, empty or partial, every row but
/// one, and all rows (as a bitmap and as nullptr).
std::vector<std::pair<std::string, std::optional<BitVector>>> Selections(
    size_t n, Rng* rng) {
  std::vector<std::pair<std::string, std::optional<BitVector>>> out;
  out.emplace_back("empty", BitVector(n));
  for (double density : {0.02, 0.6}) {
    BitVector sel(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(density)) sel.Set(i);
    }
    out.emplace_back("partial_" + std::to_string(density), std::move(sel));
  }
  {
    // The word-at-a-time decoders take a full word straight through, skip
    // an empty one and compact a partial one.
    BitVector sel(n);
    for (size_t w = 0; w * 64 < n; ++w) {
      const size_t end = std::min(n, w * 64 + 64);
      const uint64_t kind = rng->Uniform(3);
      for (size_t i = w * 64; i < end; ++i) {
        if (kind == 0 || (kind == 2 && rng->Bernoulli(0.5))) sel.Set(i);
      }
    }
    out.emplace_back("words", std::move(sel));
  }
  if (n > 0) {
    BitVector sel(n, true);
    sel.Clear(rng->Uniform(n));
    out.emplace_back("all_but_one", std::move(sel));
  }
  out.emplace_back("full_bitmap", BitVector(n, true));
  out.emplace_back("full_nullptr", std::nullopt);
  return out;
}

/// Page lengths around the codes-per-word boundaries of every width.
const size_t kPageLengths[] = {0, 1, 63, 65, 1001, kPageRows};

/// Builds a page of `encoding` whose code arrays are `width` bits wide,
/// with NULL and (for the dictionary encodings) exception rows. `dict` is
/// a multi-partition dictionary for kFrequencyInt, single-partition for
/// kDictInt.
std::unique_ptr<ColumnPage> MakeWidthPage(PageEncoding encoding, int width,
                                          size_t n, bool nulls,
                                          bool exceptions,
                                          const IntFrequencyDict& dict,
                                          Rng* rng) {
  auto page = std::make_unique<ColumnPage>();
  page->encoding = encoding;
  page->num_rows = static_cast<uint32_t>(n);
  page->nulls.Resize(n);
  for (size_t i = 0; nulls && i < n; ++i) {
    if (rng->Bernoulli(0.1)) page->nulls.Set(i);
  }
  page->has_nulls = page->nulls.AnySet();
  // Exception rows: non-NULL rows whose value is outside the dictionary.
  std::vector<bool> exc(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (exceptions && !page->nulls.Get(i) && rng->Bernoulli(0.05)) {
      exc[i] = true;
      page->exc_ints.push_back(-1000000 - static_cast<int64_t>(i));
      page->exc_offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  switch (encoding) {
    case PageEncoding::kFrequencyInt: {
      // Rows spread over the partitions whose codes fit the width.
      std::vector<int> parts;
      for (int p = 0; p < dict.num_partitions(); ++p) {
        if (BitWidthFor(dict.partition_size(p) - 1) <= width) {
          parts.push_back(p);
        }
      }
      std::vector<ColumnPage::Cell> cells(parts.size());
      const int off_w = BitWidthFor(n > 1 ? n - 1 : 1);
      for (size_t k = 0; k < parts.size(); ++k) {
        cells[k].partition = static_cast<uint8_t>(parts[k]);
        cells[k].codes.ResetWidth(width);
        cells[k].offsets.ResetWidth(off_w);
      }
      for (size_t i = 0; i < n; ++i) {
        if (page->nulls.Get(i) || exc[i]) continue;
        ColumnPage::Cell& cell = cells[rng->Uniform(parts.size())];
        cell.codes.Append(
            RandomCode(rng, width, dict.partition_size(cell.partition)));
        cell.offsets.Append(i);
      }
      for (auto& cell : cells) {
        if (cell.codes.size() > 0) page->cells.push_back(std::move(cell));
      }
      break;
    }
    case PageEncoding::kDictInt:
      page->ordered_codes.ResetWidth(width);
      for (size_t i = 0; i < n; ++i) {
        const bool coded = !page->nulls.Get(i) && !exc[i];
        page->ordered_codes.Append(
            coded ? RandomCode(rng, width, dict.partition_size(0)) : 0);
      }
      break;
    case PageEncoding::kFor:
      page->fo.base = static_cast<int64_t>(rng->Next());
      page->fo.bit_width = width;
      page->fo.codes.ResetWidth(width);
      for (size_t i = 0; i < n; ++i) {
        page->fo.codes.Append(page->nulls.Get(i) ? 0
                                                 : RandomCode(rng, width, 0));
      }
      break;
    case PageEncoding::kRawInt:
      for (size_t i = 0; i < n; ++i) {
        page->raw_ints.push_back(page->nulls.Get(i)
                                     ? 0
                                     : static_cast<int64_t>(rng->Next()));
      }
      break;
    default:
      break;
  }
  return page;
}

TEST(DecodeKernelPropertyTest, BitPackedDecodeMatchesGetAtAnyOffset) {
  Rng rng(0xDEC0DE01);
  for (int width = 1; width <= 64; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    BitPackedArray arr(width);
    const size_t len = 7 * static_cast<size_t>(arr.codes_per_word()) + 5;
    for (size_t i = 0; i < len; ++i) arr.Append(RandomCode(&rng, width, 0));
    const size_t per = static_cast<size_t>(arr.codes_per_word());
    // Begins at a word start, one past it, mid-word and on the last slot.
    for (size_t begin : {size_t{0}, size_t{1}, per / 2, per - 1, per + per / 2,
                         len - 1}) {
      for (size_t count : {size_t{0}, size_t{1}, per, len - begin}) {
        if (begin + count > len) continue;
        std::vector<uint64_t> out(count + 1, 0xAAAAAAAAAAAAAAAAull);
        arr.Decode(begin, count, out.data());
        for (size_t k = 0; k < count; ++k) {
          ASSERT_EQ(out[k], arr.Get(begin + k))
              << "begin " << begin << " k " << k;
        }
        EXPECT_EQ(out[count], 0xAAAAAAAAAAAAAAAAull) << "wrote past count";
      }
    }
  }
}

TEST(DecodeKernelPropertyTest, IntPageDecodeMatchesPerRowReference) {
  Rng rng(0xDEC0DE02);
  // 400 values: partitions of 2, 4, 16, 256 and 122 values.
  std::vector<std::pair<int64_t, size_t>> freq;
  for (int64_t v = 0; v < 400; ++v) {
    freq.emplace_back(v * 37 - 5000, static_cast<size_t>(1000 - v));
  }
  const IntFrequencyDict multi = IntFrequencyDict::Build(freq);
  const IntFrequencyDict single = IntFrequencyDict::BuildSinglePartition(freq);
  ASSERT_GE(multi.num_partitions(), 5);
  for (PageEncoding enc :
       {PageEncoding::kFrequencyInt, PageEncoding::kDictInt,
        PageEncoding::kFor, PageEncoding::kRawInt}) {
    const IntFrequencyDict* dict =
        enc == PageEncoding::kFrequencyInt ? &multi
        : enc == PageEncoding::kDictInt    ? &single
                                           : nullptr;
    const bool dict_enc = dict != nullptr;
    for (int width = 1; width <= 64; ++width) {
      for (size_t n : kPageLengths) {
        for (int shape = 0; shape < 4; ++shape) {
          const bool nulls = shape & 1;
          const bool exceptions = dict_enc && (shape & 2);
          if (!dict_enc && (shape & 2)) continue;
          auto page = MakeWidthPage(enc, width, n, nulls, exceptions,
                                    dict ? *dict : multi, &rng);
          for (const auto& [label, sel] : Selections(n, &rng)) {
            SCOPED_TRACE("encoding " + std::to_string(static_cast<int>(enc)) +
                         " width " + std::to_string(width) + " rows " +
                         std::to_string(n) + " nulls " +
                         std::to_string(nulls) + " exceptions " +
                         std::to_string(exceptions) + " sel " + label);
            const BitVector* s = sel ? &*sel : nullptr;
            // Both decoders append after rows already in the column.
            ColumnVector got(TypeId::kInt64), want(TypeId::kInt64);
            for (ColumnVector* c : {&got, &want}) {
              c->AppendInt(7);
              c->AppendNull();
            }
            DecodeIntPage(*page, dict, s, &got);
            ReferenceDecodeIntPage(*page, dict, s, &want);
            ExpectSameColumn(got, want);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(DecodeKernelPropertyTest, DoublePageDecodeMatchesPerRowReference) {
  Rng rng(0xDEC0DE03);
  for (size_t n : kPageLengths) {
    for (bool nulls : {false, true}) {
      std::vector<double> values(n);
      BitVector null_bits(n);
      for (size_t i = 0; i < n; ++i) {
        values[i] = rng.NextDouble() * 1e6 - 5e5;
        if (nulls && rng.Bernoulli(0.1)) null_bits.Set(i);
      }
      auto page = BuildDoublePage(values.data(), n, nulls ? &null_bits : nullptr,
                                  0);
      for (const auto& [label, sel] : Selections(n, &rng)) {
        SCOPED_TRACE("rows " + std::to_string(n) + " nulls " +
                     std::to_string(nulls) + " sel " + label);
        ColumnVector got(TypeId::kDouble), want(TypeId::kDouble);
        DecodeDoublePage(*page, sel ? &*sel : nullptr, &got);
        for (size_t i = 0; i < n; ++i) {
          if (sel && !sel->Get(i)) continue;
          if (page->has_nulls && page->nulls.Get(i)) {
            want.AppendNull();
          } else {
            want.AppendDouble(page->raw_doubles[i]);
          }
        }
        ExpectSameColumn(got, want);
      }
    }
  }
}

}  // namespace
}  // namespace dashdb

#include "storage/column_page.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "simd/swar.h"

namespace dashdb {

namespace {

/// Copies nulls[null_offset .. null_offset+n) into a page-local bitmap.
/// Returns true when any bit is set.
bool SliceNulls(const BitVector* nulls, size_t null_offset, size_t n,
                BitVector* out) {
  if (!nulls || nulls->size() == 0) return false;
  out->Resize(n);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (null_offset + i < nulls->size() && nulls->Get(null_offset + i)) {
      out->Set(i);
      any = true;
    }
  }
  return any;
}

int OffsetWidth(size_t n) { return BitWidthFor(n > 1 ? n - 1 : 1); }

/// Value-domain range check shared by exception cells and naive paths.
inline bool InIntRange(int64_t v, const IntRangePred& p) {
  if (p.lo) {
    if (p.lo_incl ? v < *p.lo : v <= *p.lo) return false;
  }
  if (p.hi) {
    if (p.hi_incl ? v > *p.hi : v >= *p.hi) return false;
  }
  return true;
}

inline bool InStrRange(const std::string& v, const StrRangePred& p) {
  if (p.lo) {
    if (p.lo_incl ? v < *p.lo : v <= *p.lo) return false;
  }
  if (p.hi) {
    if (p.hi_incl ? v > *p.hi : v >= *p.hi) return false;
  }
  return true;
}

}  // namespace

size_t ColumnPage::ByteSize() const {
  size_t b = sizeof(uint32_t) + 2;  // header
  if (has_nulls) b += (num_rows + 7) / 8;
  for (const auto& c : cells) {
    b += c.codes.ByteSize() + c.offsets.ByteSize() + 2;
  }
  b += exc_ints.size() * sizeof(int64_t);
  for (const auto& s : exc_strs) b += s.size() + 2;
  b += exc_offsets.size() * sizeof(uint32_t);
  if (encoding == PageEncoding::kFor) b += fo.ByteSize();
  b += ordered_codes.ByteSize();
  b += raw_ints.size() * sizeof(int64_t);
  b += raw_doubles.size() * sizeof(double);
  for (const auto& s : raw_strings) b += s.size() + 2;
  return b;
}

std::unique_ptr<ColumnPage> BuildIntPage(const int64_t* values, size_t n,
                                         const BitVector* nulls,
                                         size_t null_offset,
                                         const IntFrequencyDict* dict) {
  auto page = std::make_unique<ColumnPage>();
  page->num_rows = static_cast<uint32_t>(n);
  page->has_nulls = SliceNulls(nulls, null_offset, n, &page->nulls);

  if (!dict) {
    page->encoding = PageEncoding::kFor;
    page->fo = ForEncode(values, n,
                         page->has_nulls ? &page->nulls : nullptr);
    return page;
  }

  if (dict->is_single_partition()) {
    // Row-order single-dictionary page: globally order-preserving codes,
    // no tuple map needed.
    page->encoding = PageEncoding::kDictInt;
    page->ordered_codes.ResetWidth(dict->single_width());
    page->ordered_codes.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (page->has_nulls && page->nulls.Get(i)) {
        page->ordered_codes.Append(0);
        continue;
      }
      auto pc = dict->Encode(values[i]);
      if (pc) {
        page->ordered_codes.Append(pc->code);
      } else {
        page->ordered_codes.Append(0);
        page->exc_ints.push_back(values[i]);
        page->exc_offsets.push_back(static_cast<uint32_t>(i));
      }
    }
    return page;
  }
  page->encoding = PageEncoding::kFrequencyInt;
  // Bucket rows into per-partition cells (the BLU "cell" layout).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> buckets(
      dict->num_partitions());  // (code, offset)
  for (size_t i = 0; i < n; ++i) {
    if (page->has_nulls && page->nulls.Get(i)) continue;
    auto pc = dict->Encode(values[i]);
    if (pc) {
      buckets[pc->partition].emplace_back(pc->code, static_cast<uint32_t>(i));
    } else {
      page->exc_ints.push_back(values[i]);
      page->exc_offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  const int off_w = OffsetWidth(n);
  for (int p = 0; p < dict->num_partitions(); ++p) {
    if (buckets[p].empty()) continue;
    ColumnPage::Cell cell;
    cell.partition = static_cast<uint8_t>(p);
    cell.codes.ResetWidth(dict->partition_width(p));
    cell.offsets.ResetWidth(off_w);
    cell.codes.Reserve(buckets[p].size());
    cell.offsets.Reserve(buckets[p].size());
    for (auto [code, off] : buckets[p]) {
      cell.codes.Append(code);
      cell.offsets.Append(off);
    }
    page->cells.push_back(std::move(cell));
  }
  return page;
}

std::unique_ptr<ColumnPage> BuildStringPage(const std::string* values,
                                            size_t n, const BitVector* nulls,
                                            size_t null_offset,
                                            const StringFrequencyDict* dict) {
  auto page = std::make_unique<ColumnPage>();
  page->num_rows = static_cast<uint32_t>(n);
  page->has_nulls = SliceNulls(nulls, null_offset, n, &page->nulls);

  if (!dict) {
    page->encoding = PageEncoding::kRawString;
    page->raw_strings.assign(values, values + n);
    return page;
  }
  if (dict->is_single_partition()) {
    page->encoding = PageEncoding::kDictString;
    page->ordered_codes.ResetWidth(dict->single_width());
    page->ordered_codes.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (page->has_nulls && page->nulls.Get(i)) {
        page->ordered_codes.Append(0);
        continue;
      }
      auto pc = dict->Encode(values[i]);
      if (pc) {
        page->ordered_codes.Append(pc->code);
      } else {
        page->ordered_codes.Append(0);
        page->exc_strs.push_back(values[i]);
        page->exc_offsets.push_back(static_cast<uint32_t>(i));
      }
    }
    return page;
  }
  page->encoding = PageEncoding::kFrequencyString;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> buckets(
      dict->num_partitions());
  for (size_t i = 0; i < n; ++i) {
    if (page->has_nulls && page->nulls.Get(i)) continue;
    auto pc = dict->Encode(values[i]);
    if (pc) {
      buckets[pc->partition].emplace_back(pc->code, static_cast<uint32_t>(i));
    } else {
      page->exc_strs.push_back(values[i]);
      page->exc_offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  const int off_w = OffsetWidth(n);
  for (int p = 0; p < dict->num_partitions(); ++p) {
    if (buckets[p].empty()) continue;
    ColumnPage::Cell cell;
    cell.partition = static_cast<uint8_t>(p);
    cell.codes.ResetWidth(dict->partition_width(p));
    cell.offsets.ResetWidth(off_w);
    for (auto [code, off] : buckets[p]) {
      cell.codes.Append(code);
      cell.offsets.Append(off);
    }
    page->cells.push_back(std::move(cell));
  }
  return page;
}

std::unique_ptr<ColumnPage> BuildDoublePage(const double* values, size_t n,
                                            const BitVector* nulls,
                                            size_t null_offset) {
  auto page = std::make_unique<ColumnPage>();
  page->encoding = PageEncoding::kRawDouble;
  page->num_rows = static_cast<uint32_t>(n);
  page->has_nulls = SliceNulls(nulls, null_offset, n, &page->nulls);
  page->raw_doubles.assign(values, values + n);
  return page;
}

namespace {

/// Applies a code range over one cell, mapping matching cell positions back
/// through the tuple map into page-row match bits.
void ApplyCellRange(const ColumnPage::Cell& cell, const CodeRange& r,
                    size_t partition_size, bool use_swar, BitVector* out) {
  const size_t cn = cell.codes.size();
  if (r.lo == 0 && r.hi + 1 >= partition_size) {
    // Whole partition qualifies: every row of this cell matches without
    // looking at a single code (pure metadata decision).
    for (size_t i = 0; i < cn; ++i) {
      out->Set(cell.offsets.Get(i));
    }
    return;
  }
  if (use_swar) {
    BitVector cell_match(cn);
    SwarBetween(cell.codes, cn, r.lo, r.hi, &cell_match);
    cell_match.ForEachSet(
        [&](size_t pos) { out->Set(cell.offsets.Get(pos)); });
  } else {
    for (size_t i = 0; i < cn; ++i) {
      uint64_t c = cell.codes.Get(i);
      if (c >= r.lo && c <= r.hi) out->Set(cell.offsets.Get(i));
    }
  }
}

}  // namespace

void EvalIntRange(const ColumnPage& page, const IntFrequencyDict* dict,
                  const IntRangePred& pred, bool use_swar, bool on_compressed,
                  BitVector* out) {
  assert(out->size() >= page.num_rows);
  if (!on_compressed) {
    // Naive competitor: decode everything, compare in the value domain.
    ColumnVector tmp(TypeId::kInt64);
    tmp.Reserve(page.num_rows);
    DecodeIntPage(page, dict, nullptr, &tmp);
    for (size_t i = 0; i < tmp.size(); ++i) {
      if (!tmp.IsNull(i) && InIntRange(tmp.GetInt(i), pred)) out->Set(i);
    }
    return;
  }
  switch (page.encoding) {
    case PageEncoding::kFrequencyInt: {
      const int64_t* lo = pred.lo ? &*pred.lo : nullptr;
      const int64_t* hi = pred.hi ? &*pred.hi : nullptr;
      for (const auto& cell : page.cells) {
        CodeRange r = dict->RangeFor(cell.partition, lo, pred.lo_incl, hi,
                                     pred.hi_incl);
        if (r.empty()) continue;  // cell skipped entirely
        ApplyCellRange(cell, r, dict->partition_size(cell.partition), use_swar,
                       out);
      }
      for (size_t i = 0; i < page.exc_ints.size(); ++i) {
        if (InIntRange(page.exc_ints[i], pred)) out->Set(page.exc_offsets[i]);
      }
      break;
    }
    case PageEncoding::kDictInt: {
      const int64_t* lo = pred.lo ? &*pred.lo : nullptr;
      const int64_t* hi = pred.hi ? &*pred.hi : nullptr;
      CodeRange r = dict->RangeFor(0, lo, pred.lo_incl, hi, pred.hi_incl);
      if (!r.empty()) {
        if (use_swar) {
          SwarBetween(page.ordered_codes, page.num_rows, r.lo, r.hi, out);
        } else {
          for (size_t i = 0; i < page.num_rows; ++i) {
            uint64_t c = page.ordered_codes.Get(i);
            if (c >= r.lo && c <= r.hi) out->Set(i);
          }
        }
        // NULLs and exceptions were stored as code 0 and may have matched.
        if (page.has_nulls) {
          page.nulls.ForEachSet([&](size_t i) { out->Clear(i); });
        }
        for (uint32_t off : page.exc_offsets) out->Clear(off);
      }
      for (size_t i = 0; i < page.exc_ints.size(); ++i) {
        if (InIntRange(page.exc_ints[i], pred)) out->Set(page.exc_offsets[i]);
      }
      break;
    }
    case PageEncoding::kFor: {
      const int64_t* lo = pred.lo ? &*pred.lo : nullptr;
      const int64_t* hi = pred.hi ? &*pred.hi : nullptr;
      auto r = ForRangeFor(page.fo, lo, pred.lo_incl, hi, pred.hi_incl);
      if (!r) break;
      if (use_swar) {
        SwarBetween(page.fo.codes, page.num_rows, r->lo, r->hi, out);
      } else {
        for (size_t i = 0; i < page.num_rows; ++i) {
          uint64_t c = page.fo.codes.Get(i);
          if (c >= r->lo && c <= r->hi) out->Set(i);
        }
      }
      if (page.has_nulls) {
        // NULLs were stored as code 0 and may have matched.
        page.nulls.ForEachSet([&](size_t i) { out->Clear(i); });
      }
      break;
    }
    case PageEncoding::kRawInt: {
      for (size_t i = 0; i < page.num_rows; ++i) {
        if (page.has_nulls && page.nulls.Get(i)) continue;
        if (InIntRange(page.raw_ints[i], pred)) out->Set(i);
      }
      break;
    }
    default:
      assert(false && "EvalIntRange on non-integer page");
  }
}

namespace {

/// Rows of `arr[0..n)` whose code lies in the inclusive band [lo, hi].
size_t CountBand(const BitPackedArray& arr, size_t n, uint64_t lo,
                 uint64_t hi) {
  size_t le_hi = SwarCount(arr, n, CmpOp::kLe, hi);
  size_t lt_lo = lo == 0 ? 0 : SwarCount(arr, n, CmpOp::kLt, lo);
  return le_hi - lt_lo;
}

}  // namespace

size_t CountIntRange(const ColumnPage& page, const IntFrequencyDict* dict,
                     const IntRangePred& pred) {
  const int64_t* lo = pred.lo ? &*pred.lo : nullptr;
  const int64_t* hi = pred.hi ? &*pred.hi : nullptr;
  size_t count = 0;
  switch (page.encoding) {
    case PageEncoding::kFrequencyInt: {
      // Cells contain neither NULLs nor exceptions, so band counts need no
      // code-0 correction here.
      for (const auto& cell : page.cells) {
        CodeRange r = dict->RangeFor(cell.partition, lo, pred.lo_incl, hi,
                                     pred.hi_incl);
        if (r.empty()) continue;
        const size_t cn = cell.codes.size();
        if (r.lo == 0 && r.hi + 1 >= dict->partition_size(cell.partition)) {
          count += cn;  // whole partition qualifies: metadata-only count
        } else {
          count += CountBand(cell.codes, cn, r.lo, r.hi);
        }
      }
      for (size_t i = 0; i < page.exc_ints.size(); ++i) {
        if (InIntRange(page.exc_ints[i], pred)) ++count;
      }
      break;
    }
    case PageEncoding::kDictInt: {
      CodeRange r = dict->RangeFor(0, lo, pred.lo_incl, hi, pred.hi_incl);
      if (!r.empty()) {
        count += CountBand(page.ordered_codes, page.num_rows, r.lo, r.hi);
        if (r.lo == 0) {
          // NULLs and exceptions were stored as code 0 and got counted.
          if (page.has_nulls) count -= page.nulls.CountSet();
          count -= page.exc_offsets.size();
        }
      }
      for (size_t i = 0; i < page.exc_ints.size(); ++i) {
        if (InIntRange(page.exc_ints[i], pred)) ++count;
      }
      break;
    }
    case PageEncoding::kFor: {
      auto r = ForRangeFor(page.fo, lo, pred.lo_incl, hi, pred.hi_incl);
      if (!r) break;
      count += CountBand(page.fo.codes, page.num_rows, r->lo, r->hi);
      if (r->lo == 0 && page.has_nulls) {
        count -= page.nulls.CountSet();  // NULLs were stored as code 0
      }
      break;
    }
    case PageEncoding::kRawInt: {
      for (size_t i = 0; i < page.num_rows; ++i) {
        if (page.has_nulls && page.nulls.Get(i)) continue;
        if (InIntRange(page.raw_ints[i], pred)) ++count;
      }
      break;
    }
    default:
      assert(false && "CountIntRange on non-integer page");
  }
  return count;
}

void EvalStringRange(const ColumnPage& page, const StringFrequencyDict* dict,
                     const StrRangePred& pred, bool use_swar,
                     bool on_compressed, BitVector* out) {
  assert(out->size() >= page.num_rows);
  if (page.encoding == PageEncoding::kRawString || !on_compressed) {
    if (page.encoding == PageEncoding::kRawString) {
      for (size_t i = 0; i < page.num_rows; ++i) {
        if (page.has_nulls && page.nulls.Get(i)) continue;
        if (InStrRange(page.raw_strings[i], pred)) out->Set(i);
      }
    } else {
      ColumnVector tmp(TypeId::kVarchar);
      DecodeStringPage(page, dict, nullptr, &tmp);
      for (size_t i = 0; i < tmp.size(); ++i) {
        if (!tmp.IsNull(i) && InStrRange(tmp.GetString(i), pred)) out->Set(i);
      }
    }
    return;
  }
  if (page.encoding == PageEncoding::kDictString) {
    const std::string* lo = pred.lo ? &*pred.lo : nullptr;
    const std::string* hi = pred.hi ? &*pred.hi : nullptr;
    CodeRange r = dict->RangeFor(0, lo, pred.lo_incl, hi, pred.hi_incl);
    if (!r.empty()) {
      if (use_swar) {
        SwarBetween(page.ordered_codes, page.num_rows, r.lo, r.hi, out);
      } else {
        for (size_t i = 0; i < page.num_rows; ++i) {
          uint64_t c = page.ordered_codes.Get(i);
          if (c >= r.lo && c <= r.hi) out->Set(i);
        }
      }
      if (page.has_nulls) {
        page.nulls.ForEachSet([&](size_t i) { out->Clear(i); });
      }
      for (uint32_t off : page.exc_offsets) out->Clear(off);
    }
    for (size_t i = 0; i < page.exc_strs.size(); ++i) {
      if (InStrRange(page.exc_strs[i], pred)) out->Set(page.exc_offsets[i]);
    }
    return;
  }
  assert(page.encoding == PageEncoding::kFrequencyString);
  const std::string* lo = pred.lo ? &*pred.lo : nullptr;
  const std::string* hi = pred.hi ? &*pred.hi : nullptr;
  for (const auto& cell : page.cells) {
    CodeRange r =
        dict->RangeFor(cell.partition, lo, pred.lo_incl, hi, pred.hi_incl);
    if (r.empty()) continue;
    ApplyCellRange(cell, r, dict->partition_size(cell.partition), use_swar,
                   out);
  }
  for (size_t i = 0; i < page.exc_strs.size(); ++i) {
    if (InStrRange(page.exc_strs[i], pred)) out->Set(page.exc_offsets[i]);
  }
}

void EvalDoubleRange(const ColumnPage& page, double lo, bool has_lo,
                     bool lo_incl, double hi, bool has_hi, bool hi_incl,
                     BitVector* out) {
  assert(page.encoding == PageEncoding::kRawDouble);
  for (size_t i = 0; i < page.num_rows; ++i) {
    if (page.has_nulls && page.nulls.Get(i)) continue;
    double v = page.raw_doubles[i];
    if (has_lo && (lo_incl ? v < lo : v <= lo)) continue;
    if (has_hi && (hi_incl ? v > hi : v >= hi)) continue;
    out->Set(i);
  }
}

namespace {

/// Where a decoded page row lands in the output: its rank among the
/// selected rows, from per-word prefix counts of the selection (identity
/// when every row is selected).
class RowSlots {
 public:
  RowSlots(const BitVector* sel, size_t n) {
    full_ = sel == nullptr || sel->CountSet() == n;
    if (full_) {
      count_ = n;
      return;
    }
    words_ = sel->words();
    prefix_.resize(sel->word_count() + 1, 0);
    for (size_t w = 0; w < sel->word_count(); ++w) {
      prefix_[w + 1] = prefix_[w] + std::popcount(words_[w]);
    }
    count_ = prefix_.back();
  }

  bool full() const { return full_; }
  size_t count() const { return count_; }
  bool selected(size_t i) const {
    return full_ || ((words_[i >> 6] >> (i & 63)) & 1);
  }
  /// Output slot of selected row i.
  size_t slot(size_t i) const {
    if (full_) return i;
    const uint64_t below = words_[i >> 6] & ((uint64_t{1} << (i & 63)) - 1);
    return prefix_[i >> 6] + std::popcount(below);
  }

 private:
  bool full_ = true;
  size_t count_ = 0;
  const uint64_t* words_ = nullptr;
  std::vector<uint32_t> prefix_;
};

/// Writes the selected rows of a row-order code array to dst, mapping each
/// code through `value_of`. A full selection decodes straight into dst; a
/// partial one goes a 64-row selection word at a time: a full word decodes
/// straight through, an empty one is skipped, and a partial one decodes
/// its block and compacts it by bit iteration.
template <typename ValueOf>
void DecodeRowOrder(const BitPackedArray& codes, size_t n, const BitVector* sel,
                    const RowSlots& slots, int64_t* dst, ValueOf value_of) {
  if (slots.full()) {
    uint64_t* raw = reinterpret_cast<uint64_t*>(dst);
    codes.Decode(0, n, raw);
    for (size_t i = 0; i < n; ++i) dst[i] = value_of(raw[i]);
    return;
  }
  const uint64_t* words = sel->words();
  uint64_t block[64];
  size_t j = 0;
  for (size_t wi = 0; wi < sel->word_count(); ++wi) {
    const uint64_t w = words[wi];
    if (w == 0) continue;
    const size_t b = wi * 64;
    if (w == ~uint64_t{0}) {
      uint64_t* raw = reinterpret_cast<uint64_t*>(dst + j);
      codes.Decode(b, 64, raw);
      for (size_t k = 0; k < 64; ++k) dst[j + k] = value_of(raw[k]);
      j += 64;
      continue;
    }
    codes.Decode(b, std::min<size_t>(64, n - b), block);
    for (uint64_t m = w; m != 0; m &= m - 1) {
      dst[j++] = value_of(block[std::countr_zero(m)]);
    }
  }
}

/// Copies the selected rows of a raw row-order payload to dst, a selection
/// word at a time as DecodeRowOrder does.
template <typename T>
void CopySelected(const std::vector<T>& src, size_t n, const BitVector* sel,
                  const RowSlots& slots, T* dst) {
  if (slots.full()) {
    std::copy(src.begin(), src.begin() + n, dst);
    return;
  }
  const uint64_t* words = sel->words();
  size_t j = 0;
  for (size_t wi = 0; wi < sel->word_count(); ++wi) {
    const uint64_t w = words[wi];
    const T* row = src.data() + wi * 64;
    if (w == ~uint64_t{0}) {
      std::copy(row, row + 64, dst + j);
      j += 64;
      continue;
    }
    for (uint64_t m = w; m != 0; m &= m - 1) dst[j++] = row[std::countr_zero(m)];
  }
}

/// Marks the page's selected NULL rows in `out`, whose slot 0 is `first`.
void MarkNulls(const ColumnPage& page, const RowSlots& slots, size_t first,
               ColumnVector* out) {
  if (!page.has_nulls) return;
  page.nulls.ForEachSet([&](size_t i) {
    if (slots.selected(i)) out->SetNull(first + slots.slot(i));
  });
}

/// Rows decoded per cell chunk (stack buffers, no page temporaries).
constexpr size_t kCellChunk = 256;

}  // namespace

void DecodeIntPage(const ColumnPage& page, const IntFrequencyDict* dict,
                   const BitVector* sel, ColumnVector* out) {
  const size_t n = page.num_rows;
  const RowSlots slots(sel, n);
  if (slots.count() == 0) return;
  const size_t first = out->size();
  int64_t* dst = out->ExtendInts(slots.count());
  switch (page.encoding) {
    case PageEncoding::kFrequencyInt: {
      // Cells scatter through their tuple maps; NULL rows belong to no
      // cell and keep the zero the payload was grown with.
      uint64_t codes[kCellChunk], offs[kCellChunk];
      for (const auto& cell : page.cells) {
        const std::vector<int64_t>& vals =
            dict->partition_values(cell.partition);
        const size_t cn = cell.codes.size();
        for (size_t b = 0; b < cn; b += kCellChunk) {
          const size_t m = std::min(kCellChunk, cn - b);
          cell.codes.Decode(b, m, codes);
          cell.offsets.Decode(b, m, offs);
          if (slots.full()) {
            for (size_t k = 0; k < m; ++k) dst[offs[k]] = vals[codes[k]];
          } else {
            for (size_t k = 0; k < m; ++k) {
              if (slots.selected(offs[k])) {
                dst[slots.slot(offs[k])] = vals[codes[k]];
              }
            }
          }
        }
      }
      break;
    }
    case PageEncoding::kDictInt: {
      // NULL and exception rows hold code 0; they are overwritten below.
      const std::vector<int64_t>& vals = dict->partition_values(0);
      if (vals.empty()) break;  // every row is NULL or an exception
      DecodeRowOrder(page.ordered_codes, n, sel, slots, dst,
                     [&vals](uint64_t c) { return vals[c]; });
      break;
    }
    case PageEncoding::kFor: {
      const uint64_t base = static_cast<uint64_t>(page.fo.base);
      DecodeRowOrder(page.fo.codes, n, sel, slots, dst, [base](uint64_t c) {
        return static_cast<int64_t>(base + c);
      });
      break;
    }
    case PageEncoding::kRawInt:
      CopySelected(page.raw_ints, n, sel, slots, dst);
      break;
    default:
      assert(false && "DecodeIntPage on non-integer page");
  }
  for (size_t e = 0; e < page.exc_ints.size(); ++e) {
    const uint32_t off = page.exc_offsets[e];
    if (slots.selected(off)) dst[slots.slot(off)] = page.exc_ints[e];
  }
  MarkNulls(page, slots, first, out);
}

void DecodeStringPage(const ColumnPage& page, const StringFrequencyDict* dict,
                      const BitVector* sel, ColumnVector* out) {
  const size_t n = page.num_rows;
  if (page.encoding == PageEncoding::kRawString) {
    for (size_t i = 0; i < n; ++i) {
      if (sel && !sel->Get(i)) continue;
      if (page.has_nulls && page.nulls.Get(i)) {
        out->AppendNull();
      } else {
        out->AppendString(page.raw_strings[i]);
      }
    }
    return;
  }
  if (page.encoding == PageEncoding::kDictString) {
    std::vector<std::pair<uint32_t, uint32_t>> exc;  // offset -> exc index
    exc.reserve(page.exc_strs.size());
    for (size_t i = 0; i < page.exc_strs.size(); ++i) {
      exc.emplace_back(page.exc_offsets[i], static_cast<uint32_t>(i));
    }
    size_t next_exc = 0;
    for (size_t i = 0; i < n; ++i) {
      if (sel && !sel->Get(i)) continue;
      while (next_exc < exc.size() && exc[next_exc].first < i) ++next_exc;
      if (page.has_nulls && page.nulls.Get(i)) {
        out->AppendNull();
      } else if (next_exc < exc.size() && exc[next_exc].first == i) {
        out->AppendString(page.exc_strs[exc[next_exc].second]);
      } else {
        out->AppendString(dict->Decode(
            0, static_cast<uint32_t>(page.ordered_codes.Get(i))));
      }
    }
    return;
  }
  assert(page.encoding == PageEncoding::kFrequencyString);
  // Decode codes to a temp map, then materialize strings only for selected
  // rows (string construction is the expensive part).
  std::vector<PartitionCode> pcs(n, {kExceptionPartition, 0});
  for (const auto& cell : page.cells) {
    const size_t cn = cell.codes.size();
    for (size_t i = 0; i < cn; ++i) {
      pcs[cell.offsets.Get(i)] = {cell.partition,
                                  static_cast<uint32_t>(cell.codes.Get(i))};
    }
  }
  std::vector<uint32_t> exc_index(n, 0);
  for (size_t i = 0; i < page.exc_strs.size(); ++i) {
    exc_index[page.exc_offsets[i]] = static_cast<uint32_t>(i);
  }
  for (size_t i = 0; i < n; ++i) {
    if (sel && !sel->Get(i)) continue;
    if (page.has_nulls && page.nulls.Get(i)) {
      out->AppendNull();
    } else if (pcs[i].partition == kExceptionPartition) {
      out->AppendString(page.exc_strs[exc_index[i]]);
    } else {
      out->AppendString(dict->Decode(pcs[i].partition, pcs[i].code));
    }
  }
}

void DecodeDoublePage(const ColumnPage& page, const BitVector* sel,
                      ColumnVector* out) {
  assert(page.encoding == PageEncoding::kRawDouble);
  const size_t n = page.num_rows;
  const RowSlots slots(sel, n);
  if (slots.count() == 0) return;
  const size_t first = out->size();
  CopySelected(page.raw_doubles, n, sel, slots,
               out->ExtendDoubles(slots.count()));
  MarkNulls(page, slots, first, out);
}

}  // namespace dashdb

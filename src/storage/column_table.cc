#include "storage/column_table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "compression/dict_codes.h"
#include "compression/stats.h"

namespace dashdb {

namespace {

/// Code width a value of frequency rank `rank` would get (partition
/// schedule from compression/frequency_dict.h).
int WidthForRank(size_t rank) {
  size_t cap = 0;
  for (int p = 0; p < kNumPartitionWidths; ++p) {
    cap += size_t{1} << kPartitionWidths[p];
    if (rank < cap) return kPartitionWidths[p];
  }
  return kPartitionWidths[kNumPartitionWidths - 1];
}

size_t StridesInPage(size_t page_rows) {
  return (page_rows + kStrideRows - 1) / kStrideRows;
}

/// Uncompressed footprint of a batch under this schema.
size_t BatchRawBytes(const TableSchema& schema, const RowBatch& data) {
  size_t total = 0;
  for (int c = 0; c < schema.num_columns(); ++c) {
    TypeId t = schema.column(c).type;
    if (t == TypeId::kVarchar) {
      for (const auto& s : data.columns[c].strings()) total += s.size() + 2;
    } else {
      total += FixedWidth(t) * data.columns[c].size();
    }
  }
  return total;
}

}  // namespace

ColumnTable::ColumnTable(TableSchema schema, uint64_t table_id)
    : schema_(std::move(schema)), table_id_(table_id) {
  columns_.resize(schema_.num_columns());
  unique_ints_.resize(schema_.num_columns());
  unique_strs_.resize(schema_.num_columns());
  tail_.columns.reserve(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    tail_.columns.emplace_back(schema_.column(i).type);
  }
}

void ColumnTable::Truncate() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& c : columns_) {
    c.int_dict.reset();
    c.str_dict.reset();
    c.pages.clear();
    c.int_synopsis = IntSynopsis();
    c.str_synopsis = StringSynopsis();
    c.encoding = PageEncoding::kRawInt;
  }
  num_pages_ = 0;
  row_count_ = 0;
  deleted_count_ = 0;
  deleted_.Resize(0);
  page_start_.clear();
  page_rows_.clear();
  page_first_stride_.clear();
  num_strides_ = 0;
  raw_bytes_ = 0;
  for (auto& c : tail_.columns) c.Clear();
  for (auto& s : unique_ints_) s.clear();
  for (auto& s : unique_strs_) s.clear();
}

Status ColumnTable::CheckUnique(const RowBatch& data) const {
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (!schema_.column(c).unique) continue;
    const ColumnVector& cv = data.columns[c];
    if (schema_.column(c).type == TypeId::kVarchar) {
      std::unordered_set<std::string> batch_seen;
      for (size_t i = 0; i < cv.size(); ++i) {
        if (cv.IsNull(i)) continue;
        const std::string& v = cv.GetString(i);
        if (unique_strs_[c].count(v) || !batch_seen.insert(v).second) {
          return Status::AlreadyExists("unique violation on column " +
                                       schema_.column(c).name);
        }
      }
    } else {
      std::unordered_set<int64_t> batch_seen;
      for (size_t i = 0; i < cv.size(); ++i) {
        if (cv.IsNull(i)) continue;
        int64_t v = schema_.column(c).type == TypeId::kDouble
                        ? static_cast<int64_t>(cv.GetDouble(i) * 1e6)
                        : cv.GetInt(i);
        if (unique_ints_[c].count(v) || !batch_seen.insert(v).second) {
          return Status::AlreadyExists("unique violation on column " +
                                       schema_.column(c).name);
        }
      }
    }
  }
  return Status::OK();
}

void ColumnTable::IndexUnique(const RowBatch& data) {
  for (int c = 0; c < schema_.num_columns(); ++c) {
    if (!schema_.column(c).unique) continue;
    const ColumnVector& cv = data.columns[c];
    for (size_t i = 0; i < cv.size(); ++i) {
      if (cv.IsNull(i)) continue;
      if (schema_.column(c).type == TypeId::kVarchar) {
        unique_strs_[c].insert(cv.GetString(i));
      } else if (schema_.column(c).type == TypeId::kDouble) {
        unique_ints_[c].insert(static_cast<int64_t>(cv.GetDouble(i) * 1e6));
      } else {
        unique_ints_[c].insert(cv.GetInt(i));
      }
    }
  }
}

void ColumnTable::ChooseEncoding(int col, const RowBatch& data) {
  ColumnData& cd = columns_[col];
  const ColumnVector& cv = data.columns[col];
  TypeId t = schema_.column(col).type;
  const BitVector* nulls = cv.has_nulls() ? &cv.nulls() : nullptr;
  if (t == TypeId::kDouble) {
    cd.encoding = PageEncoding::kRawDouble;
    return;
  }
  if (t == TypeId::kVarchar) {
    StringColumnStats st =
        ComputeStringStats(cv.strings().data(), cv.size(), nulls);
    if (!st.ndv_exact || st.ndv == 0) {
      cd.encoding = PageEncoding::kRawString;
      return;
    }
    // Candidate encodings (paper II.B.1 "optimized globally per column"):
    // single order-preserving dictionary (row-order codes) vs frequency
    // partitioned cells (short codes for hot values + tuple map).
    size_t non_null = st.count - st.null_count;
    double dict_per_value =
        BitWidthFor(st.ndv > 1 ? st.ndv - 1 : 1);
    double freq_bits = 0;
    for (size_t r = 0; r < st.freq_desc.size(); ++r) {
      freq_bits +=
          static_cast<double>(st.freq_desc[r].second) * WidthForRank(r);
    }
    double freq_per_value =
        non_null == 0 ? 1e30
                      : freq_bits / non_null + BitWidthFor(kPageRows - 1);
    if (freq_per_value < dict_per_value) {
      cd.str_dict = std::make_shared<StringFrequencyDict>(
          StringFrequencyDict::Build(st.freq_desc));
      cd.encoding = PageEncoding::kFrequencyString;
    } else {
      cd.str_dict = std::make_shared<StringFrequencyDict>(
          StringFrequencyDict::BuildSinglePartition(st.freq_desc));
      cd.encoding = PageEncoding::kDictString;
    }
    return;
  }
  IntColumnStats st = ComputeIntStats(cv.ints().data(), cv.size(), nulls);
  size_t non_null = st.count - st.null_count;
  if (!st.ndv_exact || non_null == 0) {
    cd.encoding = PageEncoding::kFor;
    return;
  }
  // Global optimization (paper II.B.1): three candidates, lowest predicted
  // bits/value wins (dictionary amortized over the column):
  //   FOR        width(max - min), no dictionary
  //   kDictInt   width(ndv), single order-preserving dictionary, row order
  //   kFrequency skew-weighted short codes + per-cell tuple map
  double for_per_value = BitWidthFor(static_cast<uint64_t>(st.max) -
                                     static_cast<uint64_t>(st.min));
  double dict_amortized = 16.0 * 8.0 * static_cast<double>(st.ndv) / non_null;
  double dict_per_value =
      BitWidthFor(st.ndv > 1 ? st.ndv - 1 : 1) + dict_amortized;
  double freq_bits = 0;
  for (size_t r = 0; r < st.freq_desc.size(); ++r) {
    freq_bits += static_cast<double>(st.freq_desc[r].second) * WidthForRank(r);
  }
  double freq_per_value = freq_bits / non_null + BitWidthFor(kPageRows - 1) +
                          dict_amortized;
  if (for_per_value <= dict_per_value && for_per_value <= freq_per_value) {
    cd.encoding = PageEncoding::kFor;
  } else if (dict_per_value <= freq_per_value) {
    cd.int_dict = std::make_shared<IntFrequencyDict>(
        IntFrequencyDict::BuildSinglePartition(st.freq_desc));
    cd.encoding = PageEncoding::kDictInt;
  } else {
    cd.int_dict = std::make_shared<IntFrequencyDict>(
        IntFrequencyDict::Build(st.freq_desc));
    cd.encoding = PageEncoding::kFrequencyInt;
  }
}

void ColumnTable::EncodePageRun(const RowBatch& data, size_t begin, size_t n) {
  page_start_.push_back(row_count_);
  page_rows_.push_back(static_cast<uint32_t>(n));
  page_first_stride_.push_back(num_strides_);
  for (int c = 0; c < schema_.num_columns(); ++c) {
    ColumnData& cd = columns_[c];
    const ColumnVector& cv = data.columns[c];
    TypeId t = schema_.column(c).type;
    const BitVector* nulls = cv.has_nulls() ? &cv.nulls() : nullptr;
    std::unique_ptr<ColumnPage> page;
    if (t == TypeId::kDouble) {
      page = BuildDoublePage(cv.doubles().data() + begin, n, nulls, begin);
    } else if (t == TypeId::kVarchar) {
      page = BuildStringPage(cv.strings().data() + begin, n, nulls, begin,
                             cd.str_dict.get());
      for (size_t s = begin; s < begin + n; s += kStrideRows) {
        size_t sn = std::min(kStrideRows, begin + n - s);
        cd.str_synopsis.AddStride(cv.strings().data() + s, sn, nulls, s);
      }
    } else {
      page = BuildIntPage(cv.ints().data() + begin, n, nulls, begin,
                          cd.int_dict.get());
    }
    if (t != TypeId::kVarchar && t != TypeId::kDouble) {
      for (size_t s = begin; s < begin + n; s += kStrideRows) {
        size_t sn = std::min(kStrideRows, begin + n - s);
        cd.int_synopsis.AddStride(cv.ints().data() + s, sn, nulls, s);
      }
    }
    cd.pages.push_back(std::move(page));
  }
  num_strides_ += StridesInPage(n);
  ++num_pages_;
  row_count_ += n;
  deleted_.GrowTo(row_count_);
}

Status ColumnTable::Load(const RowBatch& data) {
  if (static_cast<int>(data.columns.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("Load: column count mismatch");
  }
  Truncate();
  std::lock_guard<std::mutex> lk(mu_);
  DASHDB_RETURN_IF_ERROR(CheckUnique(data));
  IndexUnique(data);
  raw_bytes_ += BatchRawBytes(schema_, data);
  const size_t n = data.num_rows();
  for (int c = 0; c < schema_.num_columns(); ++c) ChooseEncoding(c, data);
  for (size_t begin = 0; begin < n; begin += kPageRows) {
    EncodePageRun(data, begin, std::min(kPageRows, n - begin));
  }
  return Status::OK();
}

Status ColumnTable::Append(const RowBatch& data) {
  if (static_cast<int>(data.columns.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("Append: column count mismatch");
  }
  std::lock_guard<std::mutex> lk(mu_);
  DASHDB_RETURN_IF_ERROR(CheckUnique(data));
  IndexUnique(data);
  raw_bytes_ += BatchRawBytes(schema_, data);
  const size_t n = data.num_rows();
  for (int c = 0; c < schema_.num_columns(); ++c) {
    for (size_t i = 0; i < n; ++i) {
      tail_.columns[c].AppendFrom(data.columns[c], i);
    }
  }
  row_count_ += n;
  deleted_.GrowTo(row_count_);
  MaybeFlushTail();
  return Status::OK();
}

Status ColumnTable::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("AppendRow: column count mismatch");
  }
  RowBatch b;
  b.columns.reserve(row.size());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    ColumnVector cv(schema_.column(c).type);
    cv.AppendValue(row[c]);
    b.columns.push_back(std::move(cv));
  }
  return Append(b);
}

void ColumnTable::MaybeFlushTail() {
  while (tail_.num_rows() >= kPageRows) {
    // Lazily build dictionaries from the first full page when the table was
    // never bulk-loaded.
    bool need_choice = num_pages_ == 0 && !columns_.empty() &&
                       columns_[0].pages.empty() && !columns_[0].int_dict &&
                       !columns_[0].str_dict;
    if (need_choice) {
      for (int c = 0; c < schema_.num_columns(); ++c) {
        ChooseEncoding(c, tail_);
      }
    }
    // EncodePageRun bumps row_count_, but tail rows were already counted at
    // Append time; compensate.
    size_t saved = row_count_;
    row_count_ = page_start_.empty()
                     ? 0
                     : page_start_.back() + page_rows_.back();
    EncodePageRun(tail_, 0, kPageRows);
    row_count_ = saved;
    deleted_.GrowTo(row_count_);
    // Shift the remainder to the front of the tail.
    RowBatch rest;
    for (int c = 0; c < schema_.num_columns(); ++c) {
      ColumnVector cv(schema_.column(c).type);
      for (size_t i = kPageRows; i < tail_.columns[c].size(); ++i) {
        cv.AppendFrom(tail_.columns[c], i);
      }
      rest.columns.push_back(std::move(cv));
    }
    tail_ = std::move(rest);
  }
}

Status ColumnTable::DeleteRows(const std::vector<uint64_t>& row_ids) {
  std::lock_guard<std::mutex> lk(mu_);
  for (uint64_t id : row_ids) {
    if (id >= row_count_) {
      return Status::OutOfRange("row id out of range");
    }
    if (deleted_.Get(id)) continue;
    // Release unique keys so the executor's delete+insert UPDATE works.
    for (int c = 0; c < schema_.num_columns(); ++c) {
      if (!schema_.column(c).unique) continue;
      Value v = GetCellLocked(id, c);
      if (v.is_null()) continue;
      if (schema_.column(c).type == TypeId::kVarchar) {
        unique_strs_[c].erase(v.AsString());
      } else if (schema_.column(c).type == TypeId::kDouble) {
        unique_ints_[c].erase(static_cast<int64_t>(v.AsDouble() * 1e6));
      } else {
        unique_ints_[c].erase(v.AsInt());
      }
    }
    deleted_.Set(id);
    ++deleted_count_;
  }
  return Status::OK();
}

bool ColumnTable::IsDeleted(uint64_t row_id) const {
  return row_id < deleted_.size() && deleted_.Get(row_id);
}

Value ColumnTable::GetCell(uint64_t row_id, int col) const {
  std::lock_guard<std::mutex> lk(mu_);
  return GetCellLocked(row_id, col);
}

Value ColumnTable::GetCellLocked(uint64_t row_id, int col) const {
  TypeId t = schema_.column(col).type;
  // Tail region?
  size_t tail_start = page_start_.empty()
                          ? 0
                          : page_start_.back() + page_rows_.back();
  if (row_id >= tail_start) {
    return tail_.columns[col].GetValue(row_id - tail_start);
  }
  // Find owning page.
  size_t p = std::upper_bound(page_start_.begin(), page_start_.end(), row_id) -
             page_start_.begin() - 1;
  size_t off = row_id - page_start_[p];
  const ColumnData& cd = columns_[col];
  const ColumnPage& page = *cd.pages[p];
  BitVector sel(page.num_rows);
  sel.Set(off);
  ColumnVector out(t);
  DecodeColumn(col, p, sel, &out);
  return out.GetValue(0);
}

void ColumnTable::ChargePool(BufferPool* pool, int col, size_t page_no) const {
  PageId id{table_id_, static_cast<uint32_t>(col),
            static_cast<uint32_t>(page_no)};
  size_t bytes = columns_[col].pages[page_no]->ByteSize();
  // ChargePool is reached only from sequential scan paths (page scans,
  // COUNT fast path); random point access (GetCell) decodes without
  // charging. Tag the access so LRU pools admit it scan-resistantly.
  if (pool) pool->Access(id, bytes, /*sequential_scan=*/true);
  if (io_sink_ && io_model_.enabled) {
    // Modeled storage read on a cache miss (hits are free).
    bool hit = io_pool_ && io_pool_->Access(id, bytes, /*sequential_scan=*/true);
    if (!hit) {
      io_sink_->fetch_add(io_model_.CostNanos(bytes, /*seeks=*/1));
    }
  }
}

bool ColumnTable::ApplySynopsis(const std::vector<ColumnPredicate>& preds,
                                size_t page_no, BitVector* match,
                                ScanStats* stats) const {
  const size_t n_rows = page_rows_[page_no];
  const size_t first = page_first_stride_[page_no];
  const size_t n_strides = StridesInPage(n_rows);
  for (const auto& pred : preds) {
    TypeId t = schema_.column(pred.column).type;
    const ColumnData& cd = columns_[pred.column];
    // First pass: decide per-stride skippability (metadata only).
    bool page_alive = false;
    bool any_skipped = false;
    std::array<bool, 8> skip{};  // pages hold at most 4 strides; headroom
    for (size_t s = 0; s < n_strides; ++s) {
      bool may = true;
      if (t == TypeId::kVarchar) {
        if (first + s < cd.str_synopsis.num_strides() &&
            (pred.str_range.lo || pred.str_range.hi)) {
          const std::string* lo =
              pred.str_range.lo ? &*pred.str_range.lo : nullptr;
          const std::string* hi =
              pred.str_range.hi ? &*pred.str_range.hi : nullptr;
          may = cd.str_synopsis.MayContain(
              first + s, lo, pred.str_range.lo_incl, hi,
              pred.str_range.hi_incl);
        }
      } else if (t != TypeId::kDouble) {
        if (first + s < cd.int_synopsis.num_strides() &&
            (pred.int_range.lo || pred.int_range.hi)) {
          const int64_t* lo = pred.int_range.lo ? &*pred.int_range.lo : nullptr;
          const int64_t* hi = pred.int_range.hi ? &*pred.int_range.hi : nullptr;
          may = cd.int_synopsis.MayContain(
              first + s, lo, pred.int_range.lo_incl, hi, pred.int_range.hi_incl);
        }
      }
      skip[s] = !may;
      page_alive |= may;
      any_skipped |= !may;
      if (stats && !may) ++stats->strides_skipped;
    }
    if (!page_alive) return false;  // entire page skippable, no bit work
    if (any_skipped && match != nullptr) {
      for (size_t s = 0; s < n_strides; ++s) {
        if (!skip[s]) continue;
        size_t sb = s * kStrideRows;
        match->ClearRange(sb, std::min(n_rows, sb + kStrideRows));
      }
    }
  }
  return true;
}

void ColumnTable::EvalPredsOnPage(const std::vector<ColumnPredicate>& preds,
                                  size_t page_no, const ScanOptions& opts,
                                  BitVector* match) const {
  const size_t n_rows = page_rows_[page_no];
  for (const auto& pred : preds) {
    if (!match->AnySet()) return;
    const ColumnData& cd = columns_[pred.column];
    const ColumnPage& page = *cd.pages[page_no];
    ChargePool(opts.pool, pred.column, page_no);
    TypeId t = schema_.column(pred.column).type;
    BitVector m(n_rows);
    if (t == TypeId::kVarchar) {
      EvalStringRange(page, cd.str_dict.get(), pred.str_range, opts.use_swar,
                      opts.operate_on_compressed, &m);
    } else if (t == TypeId::kDouble) {
      EvalDoubleRange(page, pred.dlo.value_or(0), pred.dlo.has_value(),
                      pred.dlo_incl, pred.dhi.value_or(0),
                      pred.dhi.has_value(), pred.dhi_incl, &m);
    } else {
      EvalIntRange(page, cd.int_dict.get(), pred.int_range, opts.use_swar,
                   opts.operate_on_compressed, &m);
    }
    match->And(m);
  }
}

void ColumnTable::DecodeColumn(int col, size_t page_no, const BitVector& sel,
                               ColumnVector* out) const {
  const ColumnData& cd = columns_[col];
  const ColumnPage& page = *cd.pages[page_no];
  const TypeId t = schema_.column(col).type;
  if (t == TypeId::kDouble) {
    DecodeDoublePage(page, &sel, out);
  } else if (t == TypeId::kVarchar) {
    DecodeStringPage(page, cd.str_dict.get(), &sel, out);
  } else {
    DecodeIntPage(page, cd.int_dict.get(), &sel, out);
  }
}

bool ColumnTable::PageKeysWithin(int col, size_t page_no, int64_t lo,
                                 int64_t hi) const {
  const ColumnData& cd = columns_[col];
  if (cd.pages[page_no]->has_nulls) return false;
  const size_t first = page_first_stride_[page_no];
  const size_t n_strides = StridesInPage(page_rows_[page_no]);
  if (first + n_strides > cd.int_synopsis.num_strides()) return false;
  for (size_t s = first; s < first + n_strides; ++s) {
    const StrideSummary& st = cd.int_synopsis.stride(s);
    if (!st.has_non_null || st.min < lo || st.max > hi) return false;
  }
  return true;
}

size_t ColumnTable::ApplyRuntimeFilters(
    const std::vector<ScanRuntimeFilter>& filters,
    const std::vector<int>& projection, size_t page_no, BitVector* match,
    std::vector<DecodedKey>* decoded, size_t* filter_skips) const {
  size_t dropped = 0;
  uint64_t* words = match->mutable_words();
  for (const ScanRuntimeFilter& f : filters) {
    const int c = projection[f.col];
    // A full dense set is the range [lo, hi]: a page whose keys provably
    // all lie inside it cannot lose a row.
    if (f.dense && f.dense->full() &&
        PageKeysWithin(c, page_no, f.dense->lo(), f.dense->hi())) {
      ++*filter_skips;
      continue;
    }
    // The key column is decoded for the rows still matching, in row order,
    // so key j belongs to the j-th set bit. Misses clear their bits without
    // a branch, one bitmap word at a time.
    DecodedKey& d = decoded->emplace_back(
        DecodedKey{static_cast<size_t>(f.col), *match,
                   ColumnVector(schema_.column(c).type)});
    const ColumnVector& keys = d.values;
    DecodeColumn(c, page_no, *match, &d.values);
    auto drop_misses = [&](auto miss_of) {
      size_t j = 0;
      for (size_t wi = 0; wi < match->word_count(); ++wi) {
        uint64_t keep = words[wi];
        if (keep == ~uint64_t{0}) {
          // A full word: its 64 keys are consecutive.
          uint64_t miss = 0;
          for (unsigned b = 0; b < 64; ++b) {
            miss |= static_cast<uint64_t>(miss_of(j + b)) << b;
          }
          j += 64;
          keep = ~miss;
        } else {
          for (uint64_t w = keep; w != 0; w &= w - 1) {
            const uint64_t miss = miss_of(j++);
            keep &= ~(miss << std::countr_zero(w));
          }
        }
        dropped += std::popcount(words[wi] ^ keep);
        words[wi] = keep;
      }
    };
    const bool nulls = keys.has_nulls();
    if (f.dense) {
      const DenseKeySet& set = *f.dense;
      const int64_t* v = keys.ints().data();
      if (nulls) {
        drop_misses([&](size_t j) {
          return keys.IsNull(j) || !set.Contains(v[j]);
        });
      } else {
        drop_misses([&set, v](size_t j) { return !set.Contains(v[j]); });
      }
      continue;
    }
    const BloomPrefilter& bloom = *f.bloom;
    if (IsIntegerBacked(keys.type()) && !nulls) {
      const int64_t* v = keys.ints().data();
      drop_misses([&bloom, v](size_t j) {
        return !bloom.MayContain(HashInt64(static_cast<uint64_t>(v[j])));
      });
    } else {
      drop_misses([&bloom, &keys](size_t j) {
        return !bloom.MayContain(HashCell(keys, j));
      });
    }
  }
  return dropped;
}

void ColumnTable::DecodeProjection(const std::vector<int>& projection,
                                   size_t page_no, const BitVector& sel,
                                   bool attach_codes,
                                   std::vector<DecodedKey>* keys,
                                   RowBatch* out) const {
  const size_t hits = keys->empty() ? 0 : sel.CountSet();
  for (size_t k = 0; k < projection.size(); ++k) {
    int c = projection[k];
    const ColumnData& cd = columns_[c];
    const ColumnPage& page = *cd.pages[page_no];
    ColumnVector* cv = &out->columns[k];
    const bool was_empty = cv->size() == 0;
    // The last decode of this column by a runtime filter, if any.
    DecodedKey* key = nullptr;
    for (DecodedKey& d : *keys) {
      if (d.k == k) key = &d;
    }
    if (key == nullptr) {
      DecodeColumn(c, page_no, sel, cv);
    } else if (key->values.size() == hits) {
      // Filters only clear bits: as many rows means the same rows.
      if (was_empty) {
        *cv = std::move(key->values);
      } else {
        cv->Append(key->values);
      }
    } else {
      // sel is a subset of key->sel. Compact a word at a time: a word
      // both hold whole keeps its run of keys, a word sel emptied skips it,
      // and only a partial word walks its bits.
      std::vector<uint32_t> keep(hits);
      const uint64_t* have = key->sel.words();
      const uint64_t* want = sel.words();
      uint32_t j = 0;
      size_t o = 0;
      for (size_t wi = 0; wi < sel.word_count(); ++wi) {
        const uint64_t h = have[wi], w = want[wi];
        const uint32_t run = static_cast<uint32_t>(std::popcount(h));
        if (w == h) {
          for (uint32_t k = 0; k < run; ++k) keep[o++] = j + k;
        } else if (w != 0) {
          uint32_t k = j;
          for (uint64_t b = h; b != 0; b &= b - 1, ++k) {
            if (w & b & (~b + 1)) keep[o++] = k;
          }
        }
        j += run;
      }
      cv->Gather(key->values, keep.data(), keep.size());
    }
    // Keep the dictionary codes alongside the decoded values when they stay
    // row-aligned: every page row selected, single-partition row-order
    // codes, no exception rows. Appends reset the sidecar, so set it last.
    if (attach_codes && was_empty && page.exc_offsets.empty() &&
        page.ordered_codes.size() >= cv->size() && cv->size() == page.num_rows) {
      if (page.encoding == PageEncoding::kDictInt && cd.int_dict &&
          cd.int_dict->is_single_partition()) {
        auto dc = std::make_shared<DictCodes>();
        dc->codes = page.ordered_codes;
        dc->int_dict = cd.int_dict;
        cv->set_dict_codes(std::move(dc));
      } else if (page.encoding == PageEncoding::kDictString && cd.str_dict &&
                 cd.str_dict->is_single_partition()) {
        auto dc = std::make_shared<DictCodes>();
        dc->codes = page.ordered_codes;
        dc->str_dict = cd.str_dict;
        cv->set_dict_codes(std::move(dc));
      }
    }
  }
}

namespace {
/// True when a tail/value-domain row satisfies one predicate.
bool RowMatches(const ColumnPredicate& pred, TypeId t, const ColumnVector& cv,
                size_t i) {
  if (cv.IsNull(i)) return false;
  if (t == TypeId::kVarchar) {
    const std::string& v = cv.GetString(i);
    const auto& p = pred.str_range;
    if (p.lo && (p.lo_incl ? v < *p.lo : v <= *p.lo)) return false;
    if (p.hi && (p.hi_incl ? v > *p.hi : v >= *p.hi)) return false;
    return true;
  }
  if (t == TypeId::kDouble) {
    double v = cv.GetDouble(i);
    if (pred.dlo && (pred.dlo_incl ? v < *pred.dlo : v <= *pred.dlo))
      return false;
    if (pred.dhi && (pred.dhi_incl ? v > *pred.dhi : v >= *pred.dhi))
      return false;
    return true;
  }
  int64_t v = cv.GetInt(i);
  const auto& p = pred.int_range;
  if (p.lo && (p.lo_incl ? v < *p.lo : v <= *p.lo)) return false;
  if (p.hi && (p.hi_incl ? v > *p.hi : v >= *p.hi)) return false;
  return true;
}
}  // namespace

bool ColumnTable::PageMayMatch(size_t page_no,
                               const std::vector<ColumnPredicate>& preds,
                               const ScanOptions& opts,
                               ScanStats* stats) const {
  if (page_no >= num_pages_) {
    return page_no > num_pages_ || tail_.num_rows() > 0;
  }
  if (!opts.use_synopsis) return true;
  for (const auto& p : preds) {
    // Malformed predicates are ScanPage's to report.
    if (p.column < 0 || p.column >= schema_.num_columns()) return true;
  }
  ScanStats probe;
  if (ApplySynopsis(preds, page_no, nullptr, &probe)) return true;
  if (stats) {
    stats->strides_skipped += probe.strides_skipped;
    ++stats->pages_skipped;
  }
  return false;
}

Status ColumnTable::ScanPage(size_t page_no,
                             const std::vector<ColumnPredicate>& preds,
                             const std::vector<int>& projection,
                             const std::vector<ScanRuntimeFilter>& filters,
                             const ScanOptions& opts, RowBatch* out,
                             std::vector<uint64_t>* ids,
                             ScanStats* stats) const {
  for (const auto& p : preds) {
    if (p.column < 0 || p.column >= schema_.num_columns()) {
      return Status::InvalidArgument("predicate column out of range");
    }
  }
  for (int c : projection) {
    if (c < 0 || c >= schema_.num_columns()) {
      return Status::InvalidArgument("projection column out of range");
    }
  }
  for (const auto& f : filters) {
    if (f.col < 0 || static_cast<size_t>(f.col) >= projection.size()) {
      return Status::InvalidArgument("runtime filter column out of range");
    }
    if (!f.bloom == !f.dense ||
        (f.dense && !IsIntegerBacked(schema_.column(projection[f.col]).type))) {
      return Status::InvalidArgument("malformed runtime filter");
    }
  }
  if (page_no > num_pages_) return Status::OutOfRange("page out of range");
  if (page_no == num_pages_) {
    // Tail region (uncompressed, value-domain predicates).
    const size_t tail_n = tail_.num_rows();
    if (tail_n == 0) return Status::OK();
    if (io_sink_ && io_model_.enabled) {
      io_sink_->fetch_add(io_model_.CostNanos(
          tail_n * 8 * (preds.size() + projection.size() + 1)));
    }
    const size_t tail_start = row_count_ - tail_n;
    size_t matched = 0, dropped = 0;
    for (size_t i = 0; i < tail_n; ++i) {
      if (deleted_.Get(tail_start + i)) continue;
      bool ok = true;
      for (const auto& pred : preds) {
        if (!RowMatches(pred, schema_.column(pred.column).type,
                        tail_.columns[pred.column], i)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++matched;
      for (const auto& f : filters) {
        if (!f.Keeps(tail_.columns[projection[f.col]], i)) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        ++dropped;
        continue;
      }
      for (size_t k = 0; k < projection.size(); ++k) {
        out->columns[k].AppendFrom(tail_.columns[projection[k]], i);
      }
      if (ids) ids->push_back(tail_start + i);
    }
    if (stats) {
      stats->rows_matched += matched;
      stats->bloom_dropped += dropped;
    }
    return Status::OK();
  }
  const size_t p = page_no;
  const size_t n_rows = page_rows_[p];
  BitVector match(n_rows, true);
  if (opts.use_synopsis) {
    if (!ApplySynopsis(preds, p, &match, stats)) {
      if (stats) ++stats->pages_skipped;
      return Status::OK();
    }
  }
  if (stats) ++stats->pages_visited;
  EvalPredsOnPage(preds, p, opts, &match);
  const size_t base = page_start_[p];
  if (deleted_count_ > 0) {
    for (size_t i = 0; i < n_rows; ++i) {
      if (match.Get(i) && deleted_.Get(base + i)) match.Clear(i);
    }
  }
  size_t hits = match.CountSet();
  if (hits == 0) return Status::OK();
  if (stats) stats->rows_matched += hits;
  for (int c : projection) ChargePool(opts.pool, c, p);
  std::vector<DecodedKey> keys;
  if (!filters.empty()) {
    size_t skips = 0;
    const size_t dropped =
        ApplyRuntimeFilters(filters, projection, p, &match, &keys, &skips);
    if (stats) {
      stats->bloom_dropped += dropped;
      stats->filter_skips += skips;
    }
    hits -= dropped;
    if (hits == 0) return Status::OK();
  }
  DecodeProjection(projection, p, match,
                   opts.operate_on_compressed && hits == n_rows, &keys, out);
  if (ids) {
    ids->reserve(ids->size() + hits);
    match.ForEachSet([&](size_t i) { ids->push_back(base + i); });
  }
  return Status::OK();
}

Status ColumnTable::Scan(
    const std::vector<ColumnPredicate>& preds,
    const std::vector<int>& projection, const ScanOptions& opts,
    const std::function<void(RowBatch&, const std::vector<uint64_t>&)>& emit,
    ScanStats* stats) const {
  for (size_t p = 0; p <= num_pages_; ++p) {
    RowBatch out;
    out.columns.reserve(projection.size());
    for (int c : projection) out.columns.emplace_back(schema_.column(c).type);
    std::vector<uint64_t> ids;
    DASHDB_RETURN_IF_ERROR(
        ScanPage(p, preds, projection, {}, opts, &out, &ids, stats));
    if (!ids.empty() || out.num_rows() > 0) emit(out, ids);
  }
  return Status::OK();
}

Result<size_t> ColumnTable::CountRows(const std::vector<ColumnPredicate>& preds,
                                      const ScanOptions& opts,
                                      ScanStats* stats) const {
  for (const auto& p : preds) {
    if (p.column < 0 || p.column >= schema_.num_columns()) {
      return Status::InvalidArgument("predicate column out of range");
    }
  }
  // SWAR count eligibility: one predicate over an integer-backed column,
  // with compressed-domain SWAR enabled. Eligible pages are counted
  // straight off the packed codes — no match bitmap, no decode.
  const bool swar_eligible =
      opts.use_swar && opts.operate_on_compressed && preds.size() == 1 &&
      schema_.column(preds[0].column).type != TypeId::kVarchar &&
      schema_.column(preds[0].column).type != TypeId::kDouble;
  size_t count = 0;
  // Bitmap fallback for pages the fast path cannot handle (multi-predicate,
  // string/double predicates, deleted rows, the uncompressed tail).
  auto fallback_page = [&](size_t p) -> Status {
    RowBatch scratch;
    ScanStats ps;
    DASHDB_RETURN_IF_ERROR(
        ScanPage(p, preds, {}, {}, opts, &scratch, nullptr, &ps));
    count += ps.rows_matched;
    if (stats) {
      stats->pages_visited += ps.pages_visited;
      stats->pages_skipped += ps.pages_skipped;
      stats->strides_skipped += ps.strides_skipped;
      stats->rows_matched += ps.rows_matched;
    }
    return Status::OK();
  };
  for (size_t p = 0; p < num_pages_; ++p) {
    const size_t base = page_start_[p];
    const size_t n_rows = page_rows_[p];
    const size_t del_in_page =
        deleted_count_ > 0 ? deleted_.CountSetRange(base, base + n_rows) : 0;
    if (preds.empty()) {
      // Pure row count: page metadata minus deletes; no page data touched.
      const size_t live = n_rows - del_in_page;
      count += live;
      if (stats) {
        ++stats->pages_visited;
        stats->rows_matched += live;
      }
      continue;
    }
    const ColumnPredicate& pred = preds[0];
    const ColumnPage* page =
        swar_eligible ? columns_[pred.column].pages[p].get() : nullptr;
    const bool enc_ok =
        page && (page->encoding == PageEncoding::kFrequencyInt ||
                 page->encoding == PageEncoding::kDictInt ||
                 page->encoding == PageEncoding::kFor ||
                 page->encoding == PageEncoding::kRawInt);
    if (!enc_ok || del_in_page > 0) {
      DASHDB_RETURN_IF_ERROR(fallback_page(p));
      continue;
    }
    const ColumnData& cd = columns_[pred.column];
    if (opts.use_synopsis && (pred.int_range.lo || pred.int_range.hi)) {
      // Metadata-only page skip, mirroring ApplySynopsis. A partial skip
      // changes nothing: skipped strides contain no matches, so the
      // whole-page code count already yields the right answer.
      const size_t first = page_first_stride_[p];
      const size_t n_strides = StridesInPage(n_rows);
      const int64_t* lo = pred.int_range.lo ? &*pred.int_range.lo : nullptr;
      const int64_t* hi = pred.int_range.hi ? &*pred.int_range.hi : nullptr;
      bool page_alive = false;
      size_t skipped = 0;
      for (size_t s = 0; s < n_strides; ++s) {
        bool may = true;
        if (first + s < cd.int_synopsis.num_strides()) {
          may = cd.int_synopsis.MayContain(first + s, lo,
                                           pred.int_range.lo_incl, hi,
                                           pred.int_range.hi_incl);
        }
        page_alive |= may;
        if (!may) ++skipped;
      }
      if (stats) stats->strides_skipped += skipped;
      if (!page_alive) {
        if (stats) ++stats->pages_skipped;
        continue;
      }
    }
    ChargePool(opts.pool, pred.column, p);
    size_t hits = CountIntRange(*page, cd.int_dict.get(), pred.int_range);
    count += hits;
    if (stats) {
      ++stats->pages_visited;
      stats->rows_matched += hits;
    }
  }
  // Tail rows always go through the value-domain row check.
  DASHDB_RETURN_IF_ERROR(fallback_page(num_pages_));
  return count;
}

size_t ColumnTable::CompressedBytes() const {
  size_t total = 0;
  for (const auto& cd : columns_) {
    for (const auto& p : cd.pages) total += p->ByteSize();
    if (cd.int_dict) total += cd.int_dict->ByteSize();
    if (cd.str_dict) total += cd.str_dict->ByteSize();
  }
  return total;
}

size_t ColumnTable::RawBytes() const { return raw_bytes_; }

size_t ColumnTable::SynopsisBytes() const {
  size_t total = 0;
  for (const auto& cd : columns_) {
    total += cd.int_synopsis.CompressedByteSize();
  }
  return total;
}

PageEncoding ColumnTable::column_encoding(int col) const {
  return columns_[col].encoding;
}

ColumnStatsView ColumnTable::ColumnStats(int col) const {
  std::lock_guard<std::mutex> lk(mu_);
  ColumnStatsView out;
  out.rows = row_count_ - deleted_count_;
  const ColumnData& cd = columns_[col];
  if (cd.int_dict) out.distinct = cd.int_dict->total_values();
  if (cd.str_dict) out.distinct = cd.str_dict->total_values();
  if (schema_.column(col).type == TypeId::kVarchar) {
    out.has_str_range = cd.str_synopsis.GlobalRange(&out.str_min, &out.str_max);
    out.null_count = cd.str_synopsis.TotalNulls();
  } else {
    out.has_int_range = cd.int_synopsis.GlobalRange(&out.int_min, &out.int_max);
    out.null_count = cd.int_synopsis.TotalNulls();
  }
  // The tail region has no synopsis strides yet; fold in its null count so
  // non-null fractions stay honest on trickle-insert-heavy tables.
  const ColumnVector& tail_col = tail_.columns[col];
  for (size_t i = 0; i < tail_col.size(); ++i) {
    if (tail_col.IsNull(i)) ++out.null_count;
  }
  return out;
}

}  // namespace dashdb

// ColumnVector / RowBatch: the typed columnar batches that flow between
// storage, the vectorized executor, MPP exchange, and sparklite.
//
// All integer-backed SQL types (BOOLEAN/INT/DATE/TIMESTAMP/DECIMAL) share
// the int64 payload; DOUBLE and VARCHAR have their own payloads.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/types.h"
#include "common/value.h"

namespace dashdb {

/// Dictionary codes attached to a decoded column (defined in
/// compression/dict_codes.h; common/ cannot depend on compression/, so the
/// carrier is opaque here). Lets mid-query predicates run on codes instead
/// of decoded values (paper II.B.2 "operate on compressed").
struct DictCodes;

/// A typed, nullable column of values.
class ColumnVector {
 public:
  ColumnVector() : type_(TypeId::kInt64) {}
  explicit ColumnVector(TypeId t) : type_(t) {}

  TypeId type() const { return type_; }
  void set_type(TypeId t) { type_ = t; }

  size_t size() const { return size_; }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  bool IsNull(size_t i) const {
    return null_count_ > 0 && nulls_.size() > i && nulls_.Get(i);
  }

  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const {
    return type_ == TypeId::kDouble ? doubles_[i]
                                    : static_cast<double>(ints_[i]);
  }
  const std::string& GetString(size_t i) const { return strings_[i]; }

  void Reserve(size_t n) {
    if (type_ == TypeId::kDouble) {
      doubles_.reserve(n);
    } else if (type_ == TypeId::kVarchar) {
      strings_.reserve(n);
    } else {
      ints_.reserve(n);
    }
    // The null bitmap grows lazily with the payload; reserve its words too
    // so a null mid-append doesn't trigger a separate reallocation chain.
    nulls_.Reserve(n);
  }

  void AppendInt(int64_t v) {
    assert(type_ != TypeId::kDouble && type_ != TypeId::kVarchar);
    ints_.push_back(v);
    BumpSize(false);
  }
  void AppendDouble(double v) {
    assert(type_ == TypeId::kDouble);
    doubles_.push_back(v);
    BumpSize(false);
  }
  void AppendString(std::string v) {
    assert(type_ == TypeId::kVarchar);
    strings_.push_back(std::move(v));
    BumpSize(false);
  }
  void AppendNull() {
    if (type_ == TypeId::kDouble) {
      doubles_.push_back(0);
    } else if (type_ == TypeId::kVarchar) {
      strings_.emplace_back();
    } else {
      ints_.push_back(0);
    }
    BumpSize(true);
  }

  /// Appends a Value (must already match this vector's type or be NULL).
  void AppendValue(const Value& v) {
    if (v.is_null()) {
      AppendNull();
    } else if (type_ == TypeId::kDouble) {
      AppendDouble(v.AsDouble());
    } else if (type_ == TypeId::kVarchar) {
      AppendString(v.AsString());
    } else {
      AppendInt(v.AsInt());
    }
  }

  Value GetValue(size_t i) const {
    if (IsNull(i)) return Value::Null(type_);
    switch (type_) {
      case TypeId::kBoolean: return Value::Boolean(ints_[i] != 0);
      case TypeId::kInt32: return Value::Int32(static_cast<int32_t>(ints_[i]));
      case TypeId::kInt64: return Value::Int64(ints_[i]);
      case TypeId::kDouble: return Value::Double(doubles_[i]);
      case TypeId::kVarchar: return Value::String(strings_[i]);
      case TypeId::kDate: return Value::Date(static_cast<int32_t>(ints_[i]));
      case TypeId::kTimestamp: return Value::Timestamp(ints_[i]);
      case TypeId::kDecimal: return Value::Decimal(ints_[i]);
    }
    return Value::Null(type_);
  }

  /// Appends row i of `other` (same type).
  void AppendFrom(const ColumnVector& other, size_t i) {
    if (other.IsNull(i)) {
      AppendNull();
    } else if (type_ == TypeId::kDouble) {
      AppendDouble(other.doubles_[i]);
    } else if (type_ == TypeId::kVarchar) {
      AppendString(other.strings_[i]);
    } else {
      AppendInt(other.ints_[i]);
    }
  }

  /// Appends every row of `src` (same payload) — the bulk AppendFrom.
  void Append(const ColumnVector& src) {
    assert(SamePayload(type_, src.type_));
    if (src.has_nulls()) {
      for (size_t i = 0; i < src.size_; ++i) AppendFrom(src, i);
      return;
    }
    if (type_ == TypeId::kDouble) {
      doubles_.insert(doubles_.end(), src.doubles_.begin(),
                      src.doubles_.begin() + src.size_);
    } else if (type_ == TypeId::kVarchar) {
      strings_.insert(strings_.end(), src.strings_.begin(),
                      src.strings_.begin() + src.size_);
    } else {
      ints_.insert(ints_.end(), src.ints_.begin(),
                   src.ints_.begin() + src.size_);
    }
    size_ += src.size_;
    if (null_count_ > 0) nulls_.GrowTo(size_);
    dict_codes_.reset();
  }

  /// Appends rows sel[0..k) of `src` (same payload) — the selection-vector
  /// compaction primitive. The payload grows once and is written by index.
  /// Attached dictionary codes never survive a gather (row positions
  /// change).
  void Gather(const ColumnVector& src, const uint32_t* sel, size_t k) {
    assert(SamePayload(type_, src.type_));
    const size_t base = size_;
    if (type_ == TypeId::kDouble) {
      double* d = ExtendDoubles(k);
      for (size_t i = 0; i < k; ++i) d[i] = src.doubles_[sel[i]];
    } else if (type_ == TypeId::kVarchar) {
      strings_.resize(size_ + k);
      for (size_t i = 0; i < k; ++i) strings_[size_ + i] = src.strings_[sel[i]];
      Extend(k);
    } else {
      int64_t* d = ExtendInts(k);
      for (size_t i = 0; i < k; ++i) d[i] = src.ints_[sel[i]];
    }
    if (src.has_nulls()) {
      for (size_t i = 0; i < k; ++i) {
        if (src.IsNull(sel[i])) SetNull(base + i);
      }
    }
  }

  /// Appends k non-NULL rows and returns the first payload slot for the
  /// caller to fill — the bulk-write primitive of the page decoders.
  int64_t* ExtendInts(size_t k) {
    assert(type_ != TypeId::kDouble && type_ != TypeId::kVarchar);
    ints_.resize(size_ + k);
    int64_t* first = ints_.data() + size_;
    Extend(k);
    return first;
  }
  double* ExtendDoubles(size_t k) {
    assert(type_ == TypeId::kDouble);
    doubles_.resize(size_ + k);
    double* first = doubles_.data() + size_;
    Extend(k);
    return first;
  }

  /// Marks the already-appended row i NULL; its payload slot reads as
  /// AppendNull leaves it.
  void SetNull(size_t i) {
    assert(i < size_);
    nulls_.GrowTo(size_);
    if (nulls_.Get(i)) return;
    nulls_.Set(i);
    ++null_count_;
    if (type_ == TypeId::kDouble) {
      doubles_[i] = 0;
    } else if (type_ == TypeId::kVarchar) {
      strings_[i].clear();
    } else {
      ints_[i] = 0;
    }
  }

  /// Gather index that appends a NULL instead of a row of `src`.
  static constexpr uint32_t kNullRow = 0xFFFFFFFFu;

  /// Gather where an index may be kNullRow (outer-join misses).
  void GatherOrNull(const ColumnVector& src, const uint32_t* sel, size_t k) {
    assert(SamePayload(type_, src.type_));
    Reserve(size_ + k);
    for (size_t i = 0; i < k; ++i) {
      if (sel[i] == kNullRow) {
        AppendNull();
      } else {
        AppendFrom(src, sel[i]);
      }
    }
  }

  /// Adopt a kernel-produced payload + null bitmap. `nulls` must be empty
  /// (no nulls) or sized to the payload length.
  static ColumnVector FromInts(TypeId t, std::vector<int64_t> v,
                               BitVector nulls = {}) {
    ColumnVector c(t);
    c.size_ = v.size();
    c.ints_ = std::move(v);
    c.AdoptNulls(std::move(nulls));
    return c;
  }
  static ColumnVector FromDoubles(std::vector<double> v, BitVector nulls = {}) {
    ColumnVector c(TypeId::kDouble);
    c.size_ = v.size();
    c.doubles_ = std::move(v);
    c.AdoptNulls(std::move(nulls));
    return c;
  }
  static ColumnVector FromStrings(std::vector<std::string> v,
                                  BitVector nulls = {}) {
    ColumnVector c(TypeId::kVarchar);
    c.size_ = v.size();
    c.strings_ = std::move(v);
    c.AdoptNulls(std::move(nulls));
    return c;
  }

  void Clear() {
    ints_.clear();
    doubles_.clear();
    strings_.clear();
    nulls_.Resize(0);
    size_ = 0;
    null_count_ = 0;
    dict_codes_.reset();
  }

  /// Dictionary codes aligned with this vector's rows, when the scan could
  /// keep them (full-page dictionary decode with no exceptions). Null rows
  /// alias code 0 and must be masked via the null bitmap.
  const std::shared_ptr<const DictCodes>& dict_codes() const {
    return dict_codes_;
  }
  void set_dict_codes(std::shared_ptr<const DictCodes> dc) {
    dict_codes_ = std::move(dc);
  }

  /// Direct access to the integer payload (integer-backed types only).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const BitVector& nulls() const { return nulls_; }

 private:
  /// Whether two types share a payload array (every integer-backed type
  /// uses ints_), which is all the bulk copies need.
  static bool SamePayload(TypeId a, TypeId b) {
    const auto kind = [](TypeId t) {
      return t == TypeId::kDouble ? 1 : t == TypeId::kVarchar ? 2 : 0;
    };
    return kind(a) == kind(b);
  }

  void BumpSize(bool is_null) {
    if (is_null) {
      if (nulls_.size() < size_ + 1) nulls_.GrowTo(size_ + 1);
      nulls_.Set(size_);
      ++null_count_;
    } else if (null_count_ > 0 && nulls_.size() < size_ + 1) {
      nulls_.GrowTo(size_ + 1);
    }
    ++size_;
    if (dict_codes_) dict_codes_.reset();  // codes no longer row-aligned
  }

  void Extend(size_t k) {
    size_ += k;
    if (null_count_ > 0) nulls_.GrowTo(size_);
    dict_codes_.reset();
  }

  void AdoptNulls(BitVector nulls) {
    assert(nulls.size() == 0 || nulls.size() == size_);
    null_count_ = nulls.CountSet();
    nulls_ = std::move(nulls);
  }

  TypeId type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  BitVector nulls_;
  std::shared_ptr<const DictCodes> dict_codes_;
  size_t size_ = 0;
  size_t null_count_ = 0;
};

/// Hash of cell r of a column: the join-key, group-key and runtime Bloom
/// filter hash. NULL has its own hash; a DOUBLE hashes its bit pattern.
inline uint64_t HashCell(const ColumnVector& cv, size_t r) {
  if (cv.IsNull(r)) return 0x9E3779B97F4A7C15ull;
  switch (cv.type()) {
    case TypeId::kVarchar:
      return HashString(cv.GetString(r));
    case TypeId::kDouble: {
      const double d = cv.GetDouble(r);
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      return HashInt64(bits);
    }
    default:
      return HashInt64(static_cast<uint64_t>(cv.GetInt(r)));
  }
}

/// A batch of rows in columnar form.
///
/// A batch may carry a *selection vector*: ascending row indices into the
/// dense columns, produced by FilterOp instead of eagerly compacting.
/// `num_rows()` stays the DENSE row count — code that has not opted into
/// selections keeps indexing columns directly and is handed compacted
/// batches by `Operator::Next()`. Selection-aware consumers use
/// `logical_rows()` / `row_at()` and defer compaction to blow-up points.
struct RowBatch {
  std::vector<ColumnVector> columns;
  std::shared_ptr<const std::vector<uint32_t>> selection;

  size_t num_rows() const { return columns.empty() ? 0 : columns[0].size(); }
  size_t num_columns() const { return columns.size(); }

  bool has_selection() const { return selection != nullptr; }
  size_t logical_rows() const {
    return selection ? selection->size() : num_rows();
  }
  /// Dense row index of logical row i.
  size_t row_at(size_t i) const { return selection ? (*selection)[i] : i; }

  /// Gathers selected rows into dense columns and drops the selection.
  void Compact() {
    if (!selection) return;
    for (auto& c : columns) {
      ColumnVector dense(c.type());
      dense.Gather(c, selection->data(), selection->size());
      c = std::move(dense);
    }
    selection.reset();
  }

  std::vector<Value> Row(size_t i) const {
    std::vector<Value> out;
    out.reserve(columns.size());
    for (const auto& c : columns) out.push_back(c.GetValue(i));
    return out;
  }
};

}  // namespace dashdb

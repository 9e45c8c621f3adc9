#include "common/sort_key.h"

#include <cmath>
#include <limits>

namespace dashdb {

namespace {

inline void StoreBigEndian(uint64_t u, char* buf) {
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<char>(u & 0xFF);
    u >>= 8;
  }
}

inline void AppendBigEndian(uint64_t u, std::string* out) {
  char buf[8];
  StoreBigEndian(u, buf);
  out->append(buf, 8);
}

inline uint64_t DoubleBits(double d) {
  // Canonicalize so comparator-equal doubles encode identically: -0.0 and
  // +0.0 must collide, and every NaN payload maps to one quiet NaN (which
  // then sorts above +inf and below NULL).
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "IEEE double expected");
  std::memcpy(&bits, &d, sizeof(bits));
  // Negative doubles: complement everything (reverses their order).
  // Non-negative: set the sign bit so they sort above all negatives.
  return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ULL);
}

/// AppendNormalizedCell for a non-varchar cell, written in place at `p`
/// (room for 9 bytes); returns the bytes written.
inline size_t EncodeFixedCell(const ColumnVector& cv, size_t row, bool desc,
                              char* p) {
  const unsigned char flip = desc ? 0xFF : 0x00;
  if (cv.IsNull(row)) {
    p[0] = static_cast<char>(0x01 ^ flip);
    return 1;
  }
  uint64_t u = cv.type() == TypeId::kDouble
                   ? DoubleBits(cv.GetDouble(row))
                   : static_cast<uint64_t>(cv.GetInt(row)) ^
                         0x8000000000000000ULL;
  p[0] = static_cast<char>(flip);
  StoreBigEndian(desc ? ~u : u, p + 1);
  return 9;
}

}  // namespace

void AppendNormalizedCell(const ColumnVector& cv, size_t row, bool desc,
                          std::string* out) {
  const size_t start = out->size();
  if (cv.IsNull(row)) {
    out->push_back('\x01');
  } else {
    out->push_back('\x00');
    switch (cv.type()) {
      case TypeId::kDouble:
        AppendBigEndian(DoubleBits(cv.GetDouble(row)), out);
        break;
      case TypeId::kVarchar: {
        const std::string& s = cv.GetString(row);
        for (char ch : s) {
          if (ch == '\0') {
            out->push_back('\x00');
            out->push_back('\xFF');
          } else {
            out->push_back(ch);
          }
        }
        out->push_back('\x00');
        out->push_back('\x00');
        break;
      }
      default:  // all integer-backed types share the int64 payload
        AppendBigEndian(static_cast<uint64_t>(cv.GetInt(row)) ^
                            0x8000000000000000ULL,
                        out);
        break;
    }
  }
  if (desc) {
    for (size_t i = start; i < out->size(); ++i) {
      (*out)[i] = static_cast<char>(~static_cast<unsigned char>((*out)[i]));
    }
  }
}

template <typename RowOf>
void NormalizedKeyColumn::BuildRows(
    const std::vector<const ColumnVector*>& key_cols,
    const std::vector<bool>& desc, size_t n, RowOf row_of) {
  bytes_.clear();
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  bool fixed = true;
  for (const ColumnVector* cv : key_cols) {
    fixed = fixed && cv->type() != TypeId::kVarchar;
  }
  if (fixed) {
    // Every part takes at most 9 bytes: size the buffer once and write the
    // keys in place.
    bytes_.resize(n * key_cols.size() * 9);
    size_t pos = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t r = row_of(i);
      for (size_t k = 0; k < key_cols.size(); ++k) {
        pos += EncodeFixedCell(*key_cols[k], r, desc[k], &bytes_[pos]);
      }
      offsets_[i + 1] = pos;
    }
    bytes_.resize(pos);
    return;
  }
  bytes_.reserve(n * (key_cols.size() * 9 + 1));
  for (size_t i = 0; i < n; ++i) {
    const size_t r = row_of(i);
    for (size_t k = 0; k < key_cols.size(); ++k) {
      AppendNormalizedCell(*key_cols[k], r, desc[k], &bytes_);
    }
    offsets_[i + 1] = bytes_.size();
  }
}

void NormalizedKeyColumn::Build(
    const std::vector<const ColumnVector*>& key_cols,
    const std::vector<bool>& desc, size_t begin, size_t end) {
  BuildRows(key_cols, desc, end - begin,
            [begin](size_t i) { return begin + i; });
}

void NormalizedKeyColumn::Build(
    const std::vector<const ColumnVector*>& key_cols,
    const std::vector<bool>& desc, const std::vector<uint32_t>& rows) {
  BuildRows(key_cols, desc, rows.size(),
            [&rows](size_t i) { return rows[i]; });
}

}  // namespace dashdb

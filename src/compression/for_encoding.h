// Minus encoding (frame-of-reference) for high-cardinality numerics
// (paper II.B.1: "minus encoding methods for high cardinality numeric").
//
// Each page stores codes = value - page_min, bit-packed at the width of the
// page's value range. Trivially order preserving, so comparison predicates
// translate into the code domain and run on packed words (src/simd).
#pragma once

#include <cstdint>
#include <optional>

#include "common/bitutil.h"

namespace dashdb {

/// One FOR-encoded run of values (page- or stride-local).
struct ForEncoded {
  int64_t base = 0;       ///< page minimum ("minus" term)
  int bit_width = 1;      ///< code width; codes in [0, 2^width)
  BitPackedArray codes;   ///< row order preserved

  size_t size() const { return codes.size(); }
  /// Wraps like two's complement: a 64-bit range stays exact.
  int64_t Get(size_t i) const {
    return static_cast<int64_t>(static_cast<uint64_t>(base) + codes.Get(i));
  }
  size_t ByteSize() const { return codes.ByteSize() + sizeof(int64_t) + 1; }
};

/// Encodes values[0..n). Null positions (if `nulls` given) are stored as
/// code 0 and must be masked by the caller's null bitmap on decode.
ForEncoded ForEncode(const int64_t* values, size_t n, const BitVector* nulls);

/// Translates "value OP bound" into the code domain of `e`.
/// Returns the inclusive [lo, hi] code range that satisfies
/// lo_bound <= value <= hi_bound (either bound optional); nullopt when no
/// code can qualify (predicate selects nothing on this page).
struct ForCodeRange {
  uint64_t lo;
  uint64_t hi;
};
std::optional<ForCodeRange> ForRangeFor(const ForEncoded& e,
                                        const int64_t* lo_bound, bool lo_incl,
                                        const int64_t* hi_bound, bool hi_incl);

}  // namespace dashdb

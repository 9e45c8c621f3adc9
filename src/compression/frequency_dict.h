// Frequency encoding with order-preserving codes (paper II.B.1/2).
//
// Distinct column values are assigned to *frequency partitions*: the most
// frequent values land in the partition with the shortest codes (1 bit),
// the next tier in a 2-bit partition, and so on. Within each partition the
// codes are assigned in value order, so codes are binary-comparable for
// equality AND range predicates without decoding ("order preserving codes
// ... within any frequency partition values are binary wise comparable").
//
// The dictionary is global per column; pages store per-partition cells of
// bit-packed codes (src/storage/column_page.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitutil.h"
#include "compression/prefix.h"
#include "compression/stats.h"

namespace dashdb {

/// Partition code-width schedule: partition p holds up to 2^kPartitionWidths[p]
/// values. The most frequent two values of a column therefore compress to a
/// single bit each ("compress data as small as one bit", paper II.B.1).
inline constexpr int kPartitionWidths[] = {1, 2, 4, 8, 16, 24, 31};
inline constexpr int kNumPartitionWidths = 7;

/// Sentinel partition id for values absent from the dictionary (stored in a
/// page's exception cell as raw values).
inline constexpr uint8_t kExceptionPartition = 0xFF;

/// (partition, code) pair produced by encoding one value.
struct PartitionCode {
  uint8_t partition;
  uint32_t code;
};

/// Inclusive code range within one partition that satisfies a predicate;
/// empty() when no code in the partition qualifies.
struct CodeRange {
  uint32_t lo = 1;
  uint32_t hi = 0;
  bool empty() const { return lo > hi; }
  static CodeRange Empty() { return CodeRange{1, 0}; }
  static CodeRange All(uint32_t n) {
    return n == 0 ? Empty() : CodeRange{0, n - 1};
  }
};

namespace detail {
inline size_t DictPayloadBytes(const std::vector<int64_t>& sorted_values) {
  // Integer partitions store delta-from-min values bit-packed.
  if (sorted_values.empty()) return 0;
  uint64_t range =
      static_cast<uint64_t>(sorted_values.back() - sorted_values.front());
  int w = BitWidthFor(range);
  return 8 + (sorted_values.size() * w + 7) / 8;
}
inline size_t DictPayloadBytes(const std::vector<std::string>& sorted_values) {
  // String partitions store the sorted list front-coded (prefix compression).
  return PrefixCodedBlock::Encode(sorted_values).ByteSize();
}

template <typename T>
struct ValueHash {
  size_t operator()(const T& v) const { return std::hash<T>{}(v); }
};
}  // namespace detail

/// Order-preserving frequency-partitioned dictionary over values of type T
/// (int64_t for all integer-backed SQL types, std::string for VARCHAR).
template <typename T>
class FrequencyDict {
 public:
  FrequencyDict() = default;

  /// Builds a single-partition, fully order-preserving dictionary: every
  /// distinct value in one partition of width ceil(log2 ndv). Codes are
  /// globally comparable and pages can store them in row order without a
  /// tuple map — the page-level "global optimization" alternative to
  /// frequency partitioning (paper II.B.1).
  static FrequencyDict BuildSinglePartition(
      const std::vector<std::pair<T, size_t>>& freq_desc) {
    FrequencyDict d;
    Partition part;
    part.values.reserve(freq_desc.size());
    for (const auto& [v, f] : freq_desc) part.values.push_back(v);
    std::sort(part.values.begin(), part.values.end());
    d.partitions_.push_back(std::move(part));
    d.single_partition_ = true;
    const auto& vals = d.partitions_[0].values;
    for (size_t c = 0; c < vals.size(); ++c) {
      d.encode_map_.emplace(vals[c],
                            PartitionCode{0, static_cast<uint32_t>(c)});
    }
    return d;
  }

  /// Code width of the single partition (BuildSinglePartition dicts).
  int single_width() const {
    return BitWidthFor(partitions_[0].values.empty()
                           ? 0
                           : partitions_[0].values.size() - 1);
  }
  bool is_single_partition() const { return single_partition_; }

  /// Builds from (value, count) pairs sorted most-frequent-first, as
  /// produced by ComputeIntStats / ComputeStringStats.
  static FrequencyDict Build(const std::vector<std::pair<T, size_t>>& freq_desc) {
    FrequencyDict d;
    size_t taken = 0;
    for (int p = 0; p < kNumPartitionWidths && taken < freq_desc.size(); ++p) {
      size_t cap = size_t{1} << kPartitionWidths[p];
      size_t n = std::min(cap, freq_desc.size() - taken);
      Partition part;
      part.values.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        part.values.push_back(freq_desc[taken + i].first);
      }
      std::sort(part.values.begin(), part.values.end());
      taken += n;
      d.partitions_.push_back(std::move(part));
    }
    // Encode map.
    for (size_t p = 0; p < d.partitions_.size(); ++p) {
      const auto& vals = d.partitions_[p].values;
      for (size_t c = 0; c < vals.size(); ++c) {
        d.encode_map_.emplace(
            vals[c], PartitionCode{static_cast<uint8_t>(p),
                                   static_cast<uint32_t>(c)});
      }
    }
    return d;
  }

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Bit width of codes in partition p.
  int partition_width(int p) const {
    return single_partition_ ? single_width() : kPartitionWidths[p];
  }

  /// Number of distinct values assigned to partition p.
  size_t partition_size(int p) const { return partitions_[p].values.size(); }

  size_t total_values() const { return encode_map_.size(); }

  /// Encodes `v`; nullopt when `v` is not in the dictionary (caller routes
  /// it to the page's exception cell).
  std::optional<PartitionCode> Encode(const T& v) const {
    auto it = encode_map_.find(v);
    if (it == encode_map_.end()) return std::nullopt;
    return it->second;
  }

  /// Decodes (partition, code) back to the value.
  const T& Decode(uint8_t partition, uint32_t code) const {
    return partitions_[partition].values[code];
  }

  /// Values of partition p, indexed by code: bulk decoders scatter codes
  /// through this vector instead of calling Decode per row.
  const std::vector<T>& partition_values(int p) const {
    return partitions_[p].values;
  }

  /// Codes in partition p whose values fall in [lo, hi] (either bound may be
  /// null = unbounded; `*_incl` selects <=/< semantics). This is how range
  /// predicates execute directly on compressed data.
  CodeRange RangeFor(int p, const T* lo, bool lo_incl, const T* hi,
                     bool hi_incl) const {
    const auto& vals = partitions_[p].values;
    if (vals.empty()) return CodeRange::Empty();
    size_t b = 0, e = vals.size();  // [b, e)
    if (lo) {
      b = lo_incl ? std::lower_bound(vals.begin(), vals.end(), *lo) - vals.begin()
                  : std::upper_bound(vals.begin(), vals.end(), *lo) - vals.begin();
    }
    if (hi) {
      e = hi_incl ? std::upper_bound(vals.begin(), vals.end(), *hi) - vals.begin()
                  : std::lower_bound(vals.begin(), vals.end(), *hi) - vals.begin();
    }
    if (b >= e) return CodeRange::Empty();
    return CodeRange{static_cast<uint32_t>(b), static_cast<uint32_t>(e - 1)};
  }

  /// Dictionary storage footprint (integer partitions bit-packed, string
  /// partitions front-coded).
  size_t ByteSize() const {
    size_t total = 0;
    for (const auto& p : partitions_) total += detail::DictPayloadBytes(p.values);
    return total;
  }

 private:
  struct Partition {
    std::vector<T> values;  ///< sorted ascending; code == index
  };
  std::vector<Partition> partitions_;
  std::unordered_map<T, PartitionCode, detail::ValueHash<T>> encode_map_;
  bool single_partition_ = false;
};

using IntFrequencyDict = FrequencyDict<int64_t>;
using StringFrequencyDict = FrequencyDict<std::string>;

}  // namespace dashdb

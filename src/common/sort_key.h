// Normalized sort keys: every ORDER BY key list encodes, per row, into one
// memcmp-able byte string, so multi-key comparison inside the sort and
// merge inner loops is a single memcmp instead of a per-key typed switch.
//
// Encoding, per key part (see DESIGN.md "Parallel sort & Top-N"):
//
//   prefix   payload                         order
//   ------   -----------------------------   -------------------------------
//   0x00     int64: (v XOR sign bit), BE     two's-complement order
//   0x00     double: sign-flipped IEEE, BE   -inf < ... < +inf < NaN
//   0x00     varchar: 0x00 escaped as        bytewise string order, embedded
//            0x00 0xFF, terminated 0x00 0x00 NULs and prefixes correct
//   0x01     (none)                          NULL — sorts after any value
//
// NULLs therefore sort high (matching Value::Compare); doubles canonicalize
// -0.0 to +0.0 and every NaN to one quiet NaN, so comparator-equal cells
// encode to identical bytes (the property the stable run/merge sort relies
// on for byte-identity with the serial oracle). A DESC key complements all
// of its bytes, which reverses the order and puts NULLs first — exactly
// what flipping the comparator does.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/column_vector.h"

namespace dashdb {

/// Appends the order-preserving encoding of cell `row` of `cv` to `*out`.
void AppendNormalizedCell(const ColumnVector& cv, size_t row, bool desc,
                          std::string* out);

/// The normalized keys of a row range or row list, arena-backed: one byte
/// blob plus per-row offsets. Keys are addressed 0..n) relative to the
/// range's start or in list order.
class NormalizedKeyColumn {
 public:
  /// Builds keys for rows [begin, end) of the given key columns. `desc`
  /// runs parallel to `key_cols`.
  void Build(const std::vector<const ColumnVector*>& key_cols,
             const std::vector<bool>& desc, size_t begin, size_t end);
  /// Builds keys for the listed rows: key i is row rows[i]'s.
  void Build(const std::vector<const ColumnVector*>& key_cols,
             const std::vector<bool>& desc, const std::vector<uint32_t>& rows);

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  const uint8_t* data(size_t i) const {
    return reinterpret_cast<const uint8_t*>(bytes_.data()) + offsets_[i];
  }
  size_t length(size_t i) const { return offsets_[i + 1] - offsets_[i]; }

  /// memcmp of key i against key j of `other`: <0, 0, >0.
  int Compare(size_t i, const NormalizedKeyColumn& other, size_t j) const {
    const size_t la = length(i), lb = other.length(j);
    const size_t n = la < lb ? la : lb;
    int c = std::memcmp(data(i), other.data(j), n);
    if (c != 0) return c;
    return la < lb ? -1 : (la == lb ? 0 : 1);
  }

  size_t byte_size() const { return bytes_.size() + offsets_.size() * 8; }

 private:
  template <typename RowOf>
  void BuildRows(const std::vector<const ColumnVector*>& key_cols,
                 const std::vector<bool>& desc, size_t n, RowOf row_of);

  std::string bytes_;
  std::vector<uint64_t> offsets_;
};

/// Tournament tree for k-way merge of pre-sorted streams: a complete
/// binary winner tree over next-pow2(k) leaves. The caller supplies a
/// strict "stream a's head sorts before stream b's" comparator over live
/// stream indices plus a liveness probe; after consuming the winner's head
/// row (or exhausting it), Replay() recomputes the single leaf-to-root
/// path, so each merged row costs ceil(log2 k) comparisons.
class TournamentTree {
 public:
  /// `wins(a, b)`: stream a's current head sorts strictly before stream
  /// b's (both live). `alive(s)`: stream s still has rows. Both must stay
  /// callable for the tree's lifetime.
  template <typename Wins, typename Alive>
  void Init(size_t k, const Wins& wins, const Alive& alive) {
    k_ = k;
    leaves_ = 1;
    while (leaves_ < k_) leaves_ <<= 1;
    if (k_ == 0) leaves_ = 0;
    nodes_.assign(2 * leaves_, -1);
    for (size_t s = 0; s < k_; ++s) {
      nodes_[leaves_ + s] = alive(s) ? static_cast<int>(s) : -1;
    }
    for (size_t n = leaves_ == 0 ? 0 : leaves_ - 1; n >= 1; --n) {
      nodes_[n] = Winner(nodes_[2 * n], nodes_[2 * n + 1], wins, alive);
    }
  }

  /// Index of the stream holding the smallest head, or -1 if all exhausted.
  int winner() const { return nodes_.empty() ? -1 : nodes_[1]; }

  /// Recomputes the path from stream `s`'s leaf to the root after its head
  /// changed (advanced or exhausted).
  template <typename Wins, typename Alive>
  void Replay(size_t s, const Wins& wins, const Alive& alive) {
    size_t n = leaves_ + s;
    nodes_[n] = alive(s) ? static_cast<int>(s) : -1;
    for (n /= 2; n >= 1; n /= 2) {
      nodes_[n] = Winner(nodes_[2 * n], nodes_[2 * n + 1], wins, alive);
    }
  }

 private:
  template <typename Wins, typename Alive>
  int Winner(int a, int b, const Wins& wins, const Alive& alive) const {
    const bool la = a != -1 && alive(static_cast<size_t>(a));
    const bool lb = b != -1 && alive(static_cast<size_t>(b));
    if (!la) return lb ? b : -1;
    if (!lb) return a;
    return wins(static_cast<size_t>(b), static_cast<size_t>(a)) ? b : a;
  }

  size_t k_ = 0;
  size_t leaves_ = 0;
  std::vector<int> nodes_;  ///< nodes_[1] = root; nodes_[leaves_+s] = leaf s
};

}  // namespace dashdb

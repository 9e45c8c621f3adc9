// Cache-efficient compact hash tables for join and group-by (paper
// II.B.4): open addressing with linear probing over contiguous arrays,
// replacing the pointer-chasing node-based std maps in the executor's hot
// paths.
//
// Shared layout decisions:
//  - power-of-two capacity; the bucket index is `hash & (capacity - 1)`
//    (low hash bits), so the radix-partition digit (bits 32..37), the
//    Bloom prefilter bits (13.., 38..43, 51..56) and the control tag
//    (top 7 bits) all draw from disjoint hash ranges;
//  - the variable-length-key table keeps one control byte per slot:
//    0 = empty, else 0x80 | (hash >> 57), so a probe compares one byte
//    before touching the slot's payload; the int map and the join index
//    instead embed the tag or occupancy in a 16-byte slot (the key compare
//    already shares that cache line);
//  - the full 64-bit hash is stored per slot, making growth a re-bucketing
//    pass that never re-hashes keys;
//  - growth doubles at 7/8 load factor. Linear probing keeps every probe
//    sequence a contiguous memory walk.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.h"

namespace dashdb {

namespace flat_internal {

inline uint64_t NextPow2(uint64_t n) {
  uint64_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

inline uint8_t CtrlTag(uint64_t hash) {
  return static_cast<uint8_t>(0x80u | (hash >> 57));
}

/// Smallest power-of-two capacity (>= 16) holding n keys under 7/8 load.
inline size_t CapacityFor(size_t n) {
  uint64_t c = NextPow2(n * 8 / 7 + 1);
  return static_cast<size_t>(c < 16 ? 16 : c);
}

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace flat_internal

/// Multimap from a 64-bit key to build-row indices, specialized for hash
/// join builds. Each 16-byte slot holds the key, the key's FIRST build row
/// inline, and the chain index of its second row (kNone when unique, the
/// kEmptySlot sentinel when vacant — no separate control array, since at
/// the post-Reserve load factor the key compare lives in the same cache
/// line occupancy metadata would). A probe hit on a unique key — the
/// common join shape — therefore touches exactly ONE table cache line.
/// Only duplicate rows spill into the contiguous {row, next} chain array,
/// appended in insertion order, so duplicates iterate in ascending
/// build-row order. The full 64-bit hash and the chain tail live in cold
/// build-only arrays that the probe path never reads; growth re-buckets
/// slots from the stored hashes without touching chains.
class FlatJoinIndex {
 public:
  static constexpr int32_t kNone = -1;

  /// Pre-sizes the slot arrays for n distinct keys (no growth during build
  /// when the estimate holds; chains grow on demand).
  void Reserve(size_t n);

  /// Adds (key, row); `hash` must be the caller's hash of `key` (the
  /// generic join path uses key == hash, the int fast path hashes the raw
  /// key). Rows of equal keys chain in insertion order.
  void Insert(uint64_t key, uint64_t hash, uint32_t row);

  /// Returns a cursor over the rows stored under `key` (kNone if absent).
  /// Cursors <= -2 address a slot's inline first row (-2 - cursor), >= 0
  /// the overflow chain; capacity is therefore bounded by 2^31 slots,
  /// already implied by the int32 chain links.
  int32_t Find(uint64_t key, uint64_t hash) const {
    if (used_ == 0) return kNone;
    const size_t mask = cap_ - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots_[i].next != kEmptySlot) {
      if (slots_[i].key == key) return -static_cast<int32_t>(i) - 2;
      i = (i + 1) & mask;
    }
    return kNone;
  }

  int32_t Next(int32_t cursor) const {
    return cursor < kNone ? slots_[-2 - cursor].next : chain_[cursor].next;
  }
  uint32_t Row(int32_t cursor) const {
    return cursor < kNone ? slots_[-2 - cursor].first_row
                          : chain_[cursor].row;
  }

  /// Prefetches the home slot for `hash`. Every probe address is
  /// computable from the hash alone (the point of the flat layout), so the
  /// probe loop issues this a few rows ahead and the hit path's cache
  /// misses overlap instead of serializing.
  void Prefetch(uint64_t hash) const {
    if (cap_ == 0) return;
    flat_internal::PrefetchRead(slots_.data() +
                                (static_cast<size_t>(hash) & (cap_ - 1)));
  }

  /// Distinct keys stored.
  size_t size() const { return used_; }
  /// Total rows stored (inline firsts + chain entries).
  size_t rows() const { return used_ + chain_.size(); }
  size_t capacity() const { return cap_; }
  /// Bytes held by the slot, hash, tail and chain arrays.
  size_t ByteSize() const {
    return slots_.capacity() * sizeof(Slot) +
           hashes_.capacity() * sizeof(uint64_t) +
           tail_.capacity() * sizeof(int32_t) +
           chain_.capacity() * sizeof(Link);
  }

 private:
  /// `next` sentinel marking a vacant slot (chain indices are >= 0 and
  /// kNone marks a unique key, so INT32_MIN can never be a live link).
  static constexpr int32_t kEmptySlot = INT32_MIN;

  struct Slot {
    uint64_t key;
    uint32_t first_row;
    int32_t next;  ///< chain index of the second row; kNone when unique
  };
  struct Link {
    uint32_t row;
    int32_t next;
  };

  void Grow(size_t new_cap);

  std::vector<Slot> slots_;
  std::vector<uint64_t> hashes_;  ///< build/grow only, never probed
  std::vector<int32_t> tail_;     ///< chain tail (kNone = inline row is last)
  std::vector<Link> chain_;
  size_t cap_ = 0;
  size_t used_ = 0;
};

/// Direct-address multimap from int64 build keys in a compact range
/// [min, min + range) to build-row indices, the join index for dense
/// surrogate keys: `first[key - min]` holds the key's first row (kNone when
/// absent) and `next[row]` the key's following row. A probe is one
/// subtraction, one compare and one load — no hashing and no probe
/// sequence. Same cursor API as FlatJoinIndex; the cursor is the row.
class DenseJoinIndex {
 public:
  static constexpr int32_t kNone = -1;

  /// The key-slot count for build keys spanning [lo, hi] over `rows` build
  /// rows when a direct-address index should replace FlatJoinIndex, else
  /// 0. Qualifies when the range is at most 8 slots per row: a slot costs
  /// 4 bytes, and FlatJoinIndex at least 32 bytes per row (28-byte slots at
  /// a load factor of at most 7/8), so the direct index is never the larger
  /// slot array. The width is computed in uint64 (hi - lo cannot overflow
  /// there) and must stay below 2^31, the int32 cursor bound.
  static uint64_t RangeFor(int64_t lo, int64_t hi, size_t rows) {
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (hi < lo || span >= (uint64_t{1} << 31) - 1) return 0;
    const uint64_t range = span + 1;
    return range <= uint64_t{8} * rows ? range : 0;
  }

  /// Empties the index over keys [min, min + range) and rows [0, rows).
  void Init(int64_t min, uint64_t range, size_t rows) {
    min_ = min;
    range_ = range;
    first_.assign(range, kNone);
    next_.assign(rows, kNone);
  }

  /// Adds `row` at the head of its key's chain. Rows of equal keys chain in
  /// reverse insertion order, so inserting in descending row order makes
  /// chains ascend — FlatJoinIndex's order.
  void PushFront(int64_t key, uint32_t row) {
    int32_t& head = first_[static_cast<uint64_t>(key) -
                           static_cast<uint64_t>(min_)];
    next_[row] = head;
    head = static_cast<int32_t>(row);
  }

  int32_t Find(int64_t key) const {
    const uint64_t off =
        static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
    return off < range_ ? first_[off] : kNone;
  }
  int32_t Next(int32_t cursor) const { return next_[cursor]; }
  uint32_t Row(int32_t cursor) const { return static_cast<uint32_t>(cursor); }

  /// Key slots; 0 when the index is not built.
  uint64_t range() const { return range_; }
  size_t ByteSize() const {
    return (first_.capacity() + next_.capacity()) * sizeof(int32_t);
  }

 private:
  int64_t min_ = 0;
  uint64_t range_ = 0;
  std::vector<int32_t> first_;
  std::vector<int32_t> next_;
};

/// Exact set of int64 keys in a compact range [min, min + range), one bit
/// per key slot: the runtime join filter for build keys that
/// DenseJoinIndex::RangeFor accepts. Membership is one subtraction, one
/// compare and one bit test — no hashing and no false positives. The range
/// is at most 8 slots per build row, so the set never takes more than a
/// byte per build row: no more than the BloomPrefilter for the same keys.
class DenseKeySet {
 public:
  /// Empties the set over keys [min, min + range).
  void Init(int64_t min, uint64_t range) {
    min_ = min;
    range_ = range;
    size_ = 0;
    words_.assign((range + 63) / 64, 0);
  }

  /// Adds `key`, which must lie in the set's range.
  void Insert(int64_t key) {
    const uint64_t off = Offset(key);
    uint64_t& w = words_[off >> 6];
    const uint64_t bit = uint64_t{1} << (off & 63);
    size_ += (w & bit) == 0;
    w |= bit;
  }

  bool Contains(int64_t key) const {
    const uint64_t off = Offset(key);
    return off < range_ && ((words_[off >> 6] >> (off & 63)) & 1) != 0;
  }

  /// Every key slot is set: the set is exactly the range [lo(), hi()].
  bool full() const { return range_ > 0 && size_ == range_; }
  int64_t lo() const { return min_; }
  int64_t hi() const {
    return static_cast<int64_t>(static_cast<uint64_t>(min_) + range_ - 1);
  }

 private:
  uint64_t Offset(int64_t key) const {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
  }

  int64_t min_ = 0;
  uint64_t range_ = 0;
  uint64_t size_ = 0;  ///< distinct keys held
  std::vector<uint64_t> words_;
};

/// Per-partition Bloom-style prefilter for the probe side of a join:
/// ~8 bits per build key, two bits set per key inside a single 64-bit
/// word, so a probe miss costs one cache line and no table walk. The word
/// index and the two bit positions come from hash ranges unused by the
/// bucket index, the radix partition digit, and the control tag.
class BloomPrefilter {
 public:
  /// Sizes the filter for `expected_keys` (~one byte per key, rounded up
  /// to a power of two of words). Zero keys leaves the filter disabled
  /// (MayContain is then trivially true).
  void Init(size_t expected_keys) {
    words_.clear();
    mask_ = 0;
    if (expected_keys == 0) return;
    size_t n_words =
        static_cast<size_t>(flat_internal::NextPow2(expected_keys / 8 + 1));
    words_.assign(n_words, 0);
    mask_ = n_words - 1;
  }

  void Add(uint64_t hash) {
    if (words_.empty()) return;
    words_[WordIndex(hash)] |= BitsFor(hash);
  }

  bool MayContain(uint64_t hash) const {
    if (words_.empty()) return true;
    const uint64_t bits = BitsFor(hash);
    return (words_[WordIndex(hash)] & bits) == bits;
  }

  void Prefetch(uint64_t hash) const {
    if (!words_.empty()) {
      flat_internal::PrefetchRead(words_.data() + WordIndex(hash));
    }
  }

  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t WordIndex(uint64_t hash) const {
    return static_cast<size_t>((hash >> 13) & mask_);
  }
  static uint64_t BitsFor(uint64_t hash) {
    return (uint64_t{1} << ((hash >> 38) & 63)) |
           (uint64_t{1} << ((hash >> 51) & 63));
  }

  std::vector<uint64_t> words_;
  uint64_t mask_ = 0;
};

/// Map from variable-length serialized group keys to dense insertion-order
/// ids. The sparse side is the usual ctrl + slot arrays; the dense side is
/// one entries array {hash, offset, len} plus a single byte arena holding
/// every key back to back — group-by state lives in caller-side vectors
/// indexed by the returned ids, and output walks ids 0..size) in first-seen
/// order without touching the sparse arrays.
class FlatKeyIndex {
 public:
  void Reserve(size_t n);

  /// Returns the id of `key` (bytes of length len, hashed to `hash` by the
  /// caller), inserting a copy into the arena when absent. Sets *inserted.
  uint32_t FindOrInsert(const uint8_t* key, size_t len, uint64_t hash,
                        bool* inserted);

  /// Id of `key` or -1.
  int64_t Find(const uint8_t* key, size_t len, uint64_t hash) const;

  size_t size() const { return entries_.size(); }
  const uint8_t* KeyData(uint32_t id) const {
    return arena_.data() + entries_[id].offset;
  }
  uint32_t KeyLen(uint32_t id) const { return entries_[id].len; }
  /// Bytes held: control bytes, slot ids, entries and key bytes.
  size_t MemoryBytes() const {
    return ctrl_.size() + slot_id_.size() * sizeof(uint32_t) +
           entries_.size() * sizeof(Entry) + arena_.size();
  }
  uint64_t HashOf(uint32_t id) const { return entries_[id].hash; }

 private:
  struct Entry {
    uint64_t hash;
    uint64_t offset;  ///< into arena_ (offsets stay valid across growth)
    uint32_t len;
  };

  bool SlotMatches(size_t slot, const uint8_t* key, size_t len,
                   uint64_t hash) const {
    const Entry& e = entries_[slot_id_[slot]];
    // Zero-length keys (global aggregates) skip the compare: the arena may
    // still be empty, and memcmp must not see its null data().
    return e.hash == hash && e.len == len &&
           (len == 0 || std::memcmp(arena_.data() + e.offset, key, len) == 0);
  }

  void Grow(size_t new_cap);

  std::vector<uint8_t> ctrl_;
  std::vector<uint32_t> slot_id_;
  std::vector<Entry> entries_;
  std::vector<uint8_t> arena_;
  size_t cap_ = 0;
};

/// Map from an int64 key to a dense insertion-order id — the single
/// integer group-key fast path. While the keys seen span at most
/// max(2^16, 8 x groups) values (DenseJoinIndex::RangeFor's rule, with a
/// floor so a few groups over a small domain qualify too) the id is one
/// load, dir_[key - lo_]: no hash and no probe sequence. A key outside the
/// directory re-bases it (at least doubling it, so re-bases stay
/// amortized); a key that breaks the rule converts the map, once, to open
/// addressing. Ids stay dense and in first-seen order throughout. The
/// NULL key is tracked outside the int64 domain, so no value collides with
/// it.
class FlatIntMap {
 public:
  /// Returns the id of `key`, assigning the next dense id when absent.
  /// Always inlined: the group-by fold calls it once per input row.
  [[gnu::always_inline]] uint32_t FindOrInsert(int64_t key, bool* inserted) {
    if (direct_) {
      const uint64_t off =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_);
      if (off < dir_.size() && dir_[off] != kAbsent) {
        *inserted = false;
        return dir_[off];
      }
      return InsertDirect(key, inserted);
    }
    if ((keys_dense_.size() + 1) * 8 > cap_ * 7) {
      Grow(cap_ == 0 ? 16 : cap_ * 2);
    }
    const uint64_t h = HashInt64(static_cast<uint64_t>(key));
    const size_t mask = cap_ - 1;
    const uint32_t tag = flat_internal::CtrlTag(h);
    size_t i = static_cast<size_t>(h) & mask;
    while (slots_[i].tag != 0) {
      if (slots_[i].tag == tag && slots_[i].key == key) {
        *inserted = false;
        return slots_[i].id;
      }
      i = (i + 1) & mask;
    }
    *inserted = true;
    return InsertAt(i, key, tag);
  }

  /// Returns the id of the NULL key, assigning the next dense id when
  /// absent.
  uint32_t FindOrInsertNull(bool* inserted) {
    *inserted = null_id_ < 0;
    if (*inserted) {
      null_id_ = static_cast<int64_t>(keys_dense_.size());
      keys_dense_.push_back(0);
    }
    return static_cast<uint32_t>(null_id_);
  }

  size_t size() const { return keys_dense_.size(); }
  bool IsNull(uint32_t id) const { return id == null_id_; }
  int64_t KeyOf(uint32_t id) const { return keys_dense_[id]; }
  /// Whether ids are still direct-addressed (false once converted).
  bool direct() const { return direct_; }
  /// Bytes held: the dense keys plus the directory or the slot array.
  size_t MemoryBytes() const {
    return keys_dense_.size() * sizeof(int64_t) +
           dir_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot);
  }

  /// The widest key span (max - min) direct mode keeps over `groups`
  /// non-NULL keys.
  static uint64_t MaxDirectSpan(size_t groups) {
    const uint64_t by_groups = uint64_t{8} * groups;
    return by_groups > kMinDirectSpan ? by_groups : kMinDirectSpan;
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  static constexpr uint64_t kMinDirectSpan = uint64_t{1} << 16;

  /// Key, id and control tag share one 16-byte slot (tag 0 = empty), so
  /// a probe touches one cache line.
  struct Slot {
    int64_t key = 0;
    uint32_t id = 0;
    uint32_t tag = 0;
  };

  void Grow(size_t new_cap);
  /// Fills the empty slot i with `key` under the next dense id (the cold
  /// half of FindOrInsert, kept out of line).
  uint32_t InsertAt(size_t i, int64_t key, uint32_t tag);
  /// Direct mode's cold half: an absent key, re-basing the directory or
  /// converting the map when the key lies outside it.
  uint32_t InsertDirect(int64_t key, bool* inserted);
  /// Re-bases the directory over the keys seen plus `key`; false (and the
  /// map converted to open addressing) when their span breaks the rule.
  bool Rebase(int64_t key);

  // Direct mode: dir_[key - lo_] is the key's id, or kAbsent; min_/max_
  // bound the non-NULL keys seen (valid once one is).
  bool direct_ = true;
  int64_t lo_ = 0, min_ = 0, max_ = 0;
  std::vector<uint32_t> dir_;
  // Open addressing, after conversion.
  std::vector<Slot> slots_;
  size_t cap_ = 0;
  std::vector<int64_t> keys_dense_;
  int64_t null_id_ = -1;
};

}  // namespace dashdb

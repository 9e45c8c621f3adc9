#include "common/flat_hash.h"

#include <algorithm>

namespace dashdb {

using flat_internal::CapacityFor;
using flat_internal::CtrlTag;

// ---------------------------------------------------------- FlatJoinIndex --

void FlatJoinIndex::Reserve(size_t n) {
  size_t cap = CapacityFor(n);
  if (cap > cap_) Grow(cap);
}

void FlatJoinIndex::Grow(size_t new_cap) {
  std::vector<Slot> old_slots = std::move(slots_);
  std::vector<uint64_t> old_hashes = std::move(hashes_);
  std::vector<int32_t> old_tail = std::move(tail_);
  const size_t old_cap = cap_;
  cap_ = new_cap;
  slots_.assign(cap_, Slot{0, 0, kEmptySlot});
  hashes_.resize(cap_);
  tail_.resize(cap_);
  const size_t mask = cap_ - 1;
  // Re-bucket from the stored hashes; keys are never re-hashed and chains
  // are untouched.
  for (size_t s = 0; s < old_cap; ++s) {
    if (old_slots[s].next == kEmptySlot) continue;
    size_t i = static_cast<size_t>(old_hashes[s]) & mask;
    while (slots_[i].next != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = old_slots[s];
    hashes_[i] = old_hashes[s];
    tail_[i] = old_tail[s];
  }
}

void FlatJoinIndex::Insert(uint64_t key, uint64_t hash, uint32_t row) {
  if (cap_ == 0 || (used_ + 1) * 8 > cap_ * 7) {
    Grow(cap_ == 0 ? 16 : cap_ * 2);
  }
  const size_t mask = cap_ - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (slots_[i].next != kEmptySlot) {
    if (slots_[i].key == key) {
      // Existing key: append to its chain, preserving insertion order.
      const int32_t link = static_cast<int32_t>(chain_.size());
      chain_.push_back({row, kNone});
      if (tail_[i] == kNone) {
        slots_[i].next = link;  // second row for this key
      } else {
        chain_[tail_[i]].next = link;
      }
      tail_[i] = link;
      return;
    }
    i = (i + 1) & mask;
  }
  slots_[i] = {key, row, kNone};
  hashes_[i] = hash;
  tail_[i] = kNone;
  ++used_;
}

// ----------------------------------------------------------- FlatKeyIndex --

void FlatKeyIndex::Reserve(size_t n) {
  entries_.reserve(n);
  size_t cap = CapacityFor(n);
  if (cap > cap_) Grow(cap);
}

void FlatKeyIndex::Grow(size_t new_cap) {
  std::vector<uint8_t> old_ctrl = std::move(ctrl_);
  std::vector<uint32_t> old_id = std::move(slot_id_);
  const size_t old_cap = cap_;
  cap_ = new_cap;
  ctrl_.assign(cap_, 0);
  slot_id_.resize(cap_);
  const size_t mask = cap_ - 1;
  for (size_t s = 0; s < old_cap; ++s) {
    if (old_ctrl[s] == 0) continue;
    size_t i = static_cast<size_t>(entries_[old_id[s]].hash) & mask;
    while (ctrl_[i] != 0) i = (i + 1) & mask;
    ctrl_[i] = old_ctrl[s];
    slot_id_[i] = old_id[s];
  }
}

uint32_t FlatKeyIndex::FindOrInsert(const uint8_t* key, size_t len,
                                    uint64_t hash, bool* inserted) {
  if (cap_ == 0 || (entries_.size() + 1) * 8 > cap_ * 7) {
    Grow(cap_ == 0 ? 16 : cap_ * 2);
  }
  const size_t mask = cap_ - 1;
  const uint8_t tag = CtrlTag(hash);
  size_t i = static_cast<size_t>(hash) & mask;
  while (ctrl_[i] != 0) {
    if (ctrl_[i] == tag && SlotMatches(i, key, len, hash)) {
      *inserted = false;
      return slot_id_[i];
    }
    i = (i + 1) & mask;
  }
  const uint32_t id = static_cast<uint32_t>(entries_.size());
  entries_.push_back({hash, arena_.size(), static_cast<uint32_t>(len)});
  arena_.insert(arena_.end(), key, key + len);
  ctrl_[i] = tag;
  slot_id_[i] = id;
  *inserted = true;
  return id;
}

int64_t FlatKeyIndex::Find(const uint8_t* key, size_t len,
                           uint64_t hash) const {
  if (entries_.empty() || cap_ == 0) return -1;
  const size_t mask = cap_ - 1;
  const uint8_t tag = CtrlTag(hash);
  size_t i = static_cast<size_t>(hash) & mask;
  while (ctrl_[i] != 0) {
    if (ctrl_[i] == tag && SlotMatches(i, key, len, hash)) {
      return slot_id_[i];
    }
    i = (i + 1) & mask;
  }
  return -1;
}

// ------------------------------------------------------------- FlatIntMap --

uint32_t FlatIntMap::InsertAt(size_t i, int64_t key, uint32_t tag) {
  const uint32_t id = static_cast<uint32_t>(keys_dense_.size());
  keys_dense_.push_back(key);
  slots_[i] = Slot{key, id, tag};
  return id;
}

uint32_t FlatIntMap::InsertDirect(int64_t key, bool* inserted) {
  if (static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_) >= dir_.size() &&
      !Rebase(key)) {
    return FindOrInsert(key, inserted);  // now open addressing
  }
  *inserted = true;
  const bool first = keys_dense_.size() == (null_id_ < 0 ? 0u : 1u);
  min_ = first ? key : std::min(min_, key);
  max_ = first ? key : std::max(max_, key);
  const uint32_t id = static_cast<uint32_t>(keys_dense_.size());
  keys_dense_.push_back(key);
  dir_[static_cast<uint64_t>(key) - static_cast<uint64_t>(lo_)] = id;
  return id;
}

bool FlatIntMap::Rebase(int64_t key) {
  const size_t groups = keys_dense_.size() - (null_id_ < 0 ? 0 : 1);
  const int64_t lo = groups == 0 ? key : std::min(min_, key);
  const int64_t hi = groups == 0 ? key : std::max(max_, key);
  // hi - lo cannot overflow in uint64.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span > MaxDirectSpan(groups + 1)) {
    // Convert, once: every id keeps its slot in keys_dense_.
    direct_ = false;
    dir_ = std::vector<uint32_t>();
    Grow(CapacityFor(keys_dense_.size() + 1));
    const size_t mask = cap_ - 1;
    for (size_t id = 0; id < keys_dense_.size(); ++id) {
      if (static_cast<int64_t>(id) == null_id_) continue;
      const int64_t k = keys_dense_[id];
      const uint64_t h = HashInt64(static_cast<uint64_t>(k));
      size_t i = static_cast<size_t>(h) & mask;
      while (slots_[i].tag != 0) i = (i + 1) & mask;
      slots_[i] = Slot{k, static_cast<uint32_t>(id), CtrlTag(h)};
    }
    return false;
  }
  // At least double the directory, and leave the slack on the side the
  // keys grow toward, clamped to the int64 domain.
  const uint64_t width = std::min<uint64_t>(
      MaxDirectSpan(groups + 1) + 1,
      std::max<uint64_t>({span + 1, 2 * dir_.size(), 256}));
  const uint64_t int_min = static_cast<uint64_t>(INT64_MIN);
  const uint64_t int_max = static_cast<uint64_t>(INT64_MAX);
  uint64_t base;
  if (groups > 0 && key < min_) {
    base = static_cast<uint64_t>(hi) - int_min >= width - 1
               ? static_cast<uint64_t>(hi) - (width - 1)
               : int_min;
  } else {
    base = int_max - static_cast<uint64_t>(lo) >= width - 1
               ? static_cast<uint64_t>(lo)
               : int_max - (width - 1);
  }
  lo_ = static_cast<int64_t>(base);
  dir_.assign(width, kAbsent);
  for (size_t id = 0; id < keys_dense_.size(); ++id) {
    if (static_cast<int64_t>(id) == null_id_) continue;
    dir_[static_cast<uint64_t>(keys_dense_[id]) - base] =
        static_cast<uint32_t>(id);
  }
  return true;
}

void FlatIntMap::Grow(size_t new_cap) {
  std::vector<Slot> old = std::move(slots_);
  cap_ = new_cap;
  slots_.assign(cap_, Slot{});
  const size_t mask = cap_ - 1;
  for (const Slot& o : old) {
    if (o.tag == 0) continue;
    size_t i = static_cast<size_t>(HashInt64(static_cast<uint64_t>(o.key))) &
               mask;
    while (slots_[i].tag != 0) i = (i + 1) & mask;
    slots_[i] = o;
  }
}

}  // namespace dashdb

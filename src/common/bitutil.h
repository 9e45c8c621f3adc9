// Bit-level utilities: bitmaps (selection/null vectors) and word-aligned
// bit-packed code arrays — the physical substrate for dashDB's
// "pack many values into a single word" representation (paper II.B.6).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace dashdb {

/// Bits needed to represent values in [0, max_value]; at least 1.
inline int BitWidthFor(uint64_t max_value) {
  int w = 64 - std::countl_zero(max_value | 1);
  return w;
}

/// A fixed-length bitmap used for null vectors and per-stride selection
/// vectors during scans.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n, bool initial = false) { Resize(n, initial); }

  void Resize(size_t n, bool initial = false) {
    size_ = n;
    words_.assign((n + 63) / 64, initial ? ~uint64_t{0} : 0);
    if (initial) TrimTail();
  }

  /// Grows to n bits, preserving existing bits (new bits are clear).
  /// No-op when n <= current size.
  void GrowTo(size_t n) {
    if (n <= size_) return;
    size_ = n;
    words_.resize((n + 63) / 64, 0);
  }

  /// Reserves word storage for n bits without changing the size.
  void Reserve(size_t n) { words_.reserve((n + 63) / 64); }

  size_t size() const { return size_; }

  bool Get(size_t i) const {
    assert(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    assert(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Clear(size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void SetTo(size_t i, bool v) { v ? Set(i) : Clear(i); }

  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    TrimTail();
  }

  /// Clears bits [begin, end) with word-level operations.
  void ClearRange(size_t begin, size_t end) {
    if (begin >= end) return;
    size_t wb = begin >> 6, we = (end - 1) >> 6;
    uint64_t first_mask = ~uint64_t{0} << (begin & 63);
    uint64_t last_mask = (end & 63) ? ((uint64_t{1} << (end & 63)) - 1)
                                    : ~uint64_t{0};
    if (wb == we) {
      words_[wb] &= ~(first_mask & last_mask);
      return;
    }
    words_[wb] &= ~first_mask;
    for (size_t w = wb + 1; w < we; ++w) words_[w] = 0;
    words_[we] &= ~last_mask;
  }
  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  /// this &= other. Sizes must match.
  void And(const BitVector& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }
  /// this |= other. Sizes must match.
  void Or(const BitVector& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }
  /// this = ~this (tail bits stay clear).
  void Not() {
    for (auto& w : words_) w = ~w;
    TrimTail();
  }

  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words_) n += std::popcount(w);
    return n;
  }

  /// Set bits in [begin, end), word-at-a-time.
  size_t CountSetRange(size_t begin, size_t end) const {
    end = std::min(end, size_);
    if (begin >= end) return 0;
    size_t wb = begin >> 6, we = (end - 1) >> 6;
    uint64_t first_mask = ~uint64_t{0} << (begin & 63);
    uint64_t last_mask =
        (end & 63) ? ((uint64_t{1} << (end & 63)) - 1) : ~uint64_t{0};
    if (wb == we) {
      return std::popcount(words_[wb] & first_mask & last_mask);
    }
    size_t n = std::popcount(words_[wb] & first_mask);
    for (size_t w = wb + 1; w < we; ++w) n += std::popcount(words_[w]);
    n += std::popcount(words_[we] & last_mask);
    return n;
  }

  bool AnySet() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }

  /// Calls fn(index) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w) {
        int b = std::countr_zero(w);
        fn(wi * 64 + b);
        w &= w - 1;
      }
    }
  }

  const uint64_t* words() const { return words_.data(); }
  uint64_t* mutable_words() { return words_.data(); }
  size_t word_count() const { return words_.size(); }

 private:
  void TrimTail() {
    size_t tail = size_ & 63;
    if (tail && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Word-aligned bit-packed array of unsigned codes.
///
/// Codes of width `bit_width` are packed floor(64/width) per 64-bit word;
/// codes never straddle word boundaries so that SWAR predicate kernels
/// (src/simd) can operate on whole words. BLU packs fully bit-aligned; the
/// word-aligned simplification is documented in DESIGN.md and costs at most
/// (64 mod width) bits per word.
class BitPackedArray {
 public:
  BitPackedArray() : bit_width_(1), per_word_(64) {}

  explicit BitPackedArray(int bit_width) { ResetWidth(bit_width); }

  void ResetWidth(int bit_width) {
    assert(bit_width >= 1 && bit_width <= 64);
    bit_width_ = bit_width;
    per_word_ = 64 / bit_width;
    size_ = 0;
    words_.clear();
  }

  int bit_width() const { return bit_width_; }
  /// Codes stored per 64-bit word.
  int codes_per_word() const { return per_word_; }
  size_t size() const { return size_; }
  size_t word_count() const { return words_.size(); }
  const uint64_t* words() const { return words_.data(); }

  /// Bytes of packed storage (the compression denominator).
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  void Reserve(size_t n) { words_.reserve((n + per_word_ - 1) / per_word_); }

  void Append(uint64_t code) {
    assert(bit_width_ == 64 || code < (uint64_t{1} << bit_width_));
    size_t wi = size_ / per_word_;
    int slot = static_cast<int>(size_ % per_word_);
    if (slot == 0) words_.push_back(0);
    words_[wi] |= code << (slot * bit_width_);
    ++size_;
  }

  uint64_t Get(size_t i) const {
    assert(i < size_);
    size_t wi = i / per_word_;
    int slot = static_cast<int>(i % per_word_);
    uint64_t mask = bit_width_ == 64 ? ~uint64_t{0}
                                     : (uint64_t{1} << bit_width_) - 1;
    return (words_[wi] >> (slot * bit_width_)) & mask;
  }

  /// Decodes codes [begin, begin+count) into out[0..count), a whole word at
  /// a time: one division locates the first word, then every code costs
  /// one shift and one mask.
  void Decode(size_t begin, size_t count, uint64_t* out) const {
    assert(begin + count <= size_);
    if (count == 0) return;
    if (bit_width_ == 64) {
      std::memcpy(out, words_.data() + begin, count * sizeof(uint64_t));
      return;
    }
    const int w = bit_width_;
    const size_t per = static_cast<size_t>(per_word_);
    const uint64_t mask = (uint64_t{1} << w) - 1;
    const uint64_t* word = words_.data() + begin / per;
    size_t slot = begin % per;
    const uint64_t* const end = out + count;
    while (out < end) {
      uint64_t bits = *word++ >> (slot * w);
      const size_t take =
          std::min(per - slot, static_cast<size_t>(end - out));
      for (size_t k = 0; k < take; ++k) {
        out[k] = bits & mask;
        bits >>= w;
      }
      out += take;
      slot = 0;
    }
  }

 private:
  int bit_width_;
  int per_word_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dashdb

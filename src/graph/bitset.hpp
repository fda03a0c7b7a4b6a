// Fixed-capacity dynamic bitset used for DAG-reachability sets.
//
// Phase II of RFH repeatedly needs "the set of vertices whose routes can
// pass through p"; the sets pack into 64-bit words so union, intersection
// and difference are a row of word instructions and iteration over members
// (for_each_set_bit) costs O(words + ones) rather than one test per
// possible bit.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace wrsn::graph {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const noexcept { return bits_; }

  void set(std::size_t i) noexcept { words_[i >> 6] |= (1ULL << (i & 63)); }
  void reset(std::size_t i) noexcept { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool test(std::size_t i) const noexcept { return (words_[i >> 6] >> (i & 63)) & 1ULL; }
  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  Bitset& operator|=(const Bitset& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  Bitset& operator&=(const Bitset& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  /// Set difference: clears every bit that is set in `other`.
  Bitset& and_not(const Bitset& other) noexcept {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  std::size_t count() const noexcept {
    std::size_t total = 0;
    for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
    return total;
  }

  /// Calls `fn(i)` for every set bit i, in ascending order.  Word-level
  /// scan (countr_zero + clear-lowest), so sparse sets cost their popcount,
  /// not their capacity.
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        fn((wi << 6) + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

  friend bool operator==(const Bitset&, const Bitset&) = default;

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace wrsn::graph

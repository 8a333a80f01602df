// Word-packed node sets for the flood kernel. The frontier / next-frontier /
// touched sets are dense over [0, n) and iterated in ascending node order,
// which a 64-bit word scan does in n/64 loads with branch-free bit
// extraction.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/aligned.hpp"

namespace byz::util {

class Bitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  Bitset() = default;
  explicit Bitset(std::size_t n) { assign(n); }

  /// Resize to n bits, all cleared.
  void assign(std::size_t n) {
    size_ = n;
    words_.assign((n + kWordBits - 1) / kWordBits, 0);
  }

  std::size_t size() const { return size_; }
  std::size_t num_words() const { return words_.size(); }
  Word* words() { return words_.data(); }
  const Word* words() const { return words_.data(); }

  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i) { words_[i / kWordBits] |= Word{1} << (i % kWordBits); }
  void reset(std::size_t i) {
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  void clear() {
    if (!words_.empty())
      std::memset(words_.data(), 0, words_.size() * sizeof(Word));
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (Word w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  bool any() const {
    for (Word w : words_)
      if (w) return true;
    return false;
  }

  /// Visit set bits in ascending index order.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      Word w = words_[wi];
      while (w) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        f(wi * kWordBits + bit);
        w &= w - 1;
      }
    }
  }

 private:
  std::size_t size_ = 0;
  aligned_vector<Word> words_;
};

}  // namespace byz::util

// The word-packed frontier representation (util::Bitset) must agree with
// the plain vector representation bit for bit: same membership, same
// popcount, same ascending iteration order. The flood kernel leans on
// all three (membership for the touched set, popcount for the
// frontier histogram, ascending iteration for the canonical wavefront),
// so the boundary cases — sizes straddling a 64-bit word — get explicit
// coverage here.
#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace byz::util {
namespace {

std::vector<std::size_t> collect(const Bitset& bits) {
  std::vector<std::size_t> out;
  bits.for_each_set([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(BitsetFrontier, WordBoundarySizes) {
  for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                              std::size_t{65}}) {
    Bitset bits;
    bits.assign(n);
    EXPECT_EQ(bits.size(), n);
    EXPECT_EQ(bits.num_words(), (n + 63) / 64) << "n=" << n;
    EXPECT_FALSE(bits.any());

    // The last valid bit is settable and does not disturb its neighbors.
    bits.set(n - 1);
    EXPECT_TRUE(bits.test(n - 1));
    EXPECT_EQ(bits.count(), 1u);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_FALSE(bits.test(i)) << "n=" << n << " i=" << i;
    }
    const auto set = collect(bits);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0], n - 1);

    bits.reset(n - 1);
    EXPECT_FALSE(bits.any());
  }
}

TEST(BitsetFrontier, EmptyFrontier) {
  Bitset bits;
  bits.assign(130);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_FALSE(bits.any());
  EXPECT_TRUE(collect(bits).empty());

  // clear() on an already-empty set is a no-op.
  bits.clear();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(BitsetFrontier, FullFrontier) {
  for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{200}}) {
    Bitset bits;
    bits.assign(n);
    for (std::size_t i = 0; i < n; ++i) bits.set(i);
    EXPECT_EQ(bits.count(), n);
    EXPECT_TRUE(bits.any());

    // Iteration visits every member exactly once, ascending.
    const auto set = collect(bits);
    ASSERT_EQ(set.size(), n) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(set[i], i);

    bits.clear();
    EXPECT_EQ(bits.count(), 0u);
    EXPECT_FALSE(bits.any());
  }
}

TEST(BitsetFrontier, PopcountAndIterationMatchVectorRepresentation) {
  // Random membership at an awkward size: the bitset must agree with a
  // std::vector<bool> reference on membership, popcount, and the sorted
  // member list — the exact properties the kernel substitutes for the
  // scalar reference's frontier/touched vectors.
  Xoshiro256 rng(0xB17);
  for (const std::size_t n : {std::size_t{65}, std::size_t{257},
                              std::size_t{1000}}) {
    Bitset bits;
    bits.assign(n);
    std::vector<bool> ref(n, false);
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if ((rng() & 3) == 0) {
        bits.set(i);
        ref[i] = true;
        members.push_back(i);
      }
    }
    std::size_t ref_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits.test(i), ref[i]) << "n=" << n << " i=" << i;
      if (ref[i]) ++ref_count;
    }
    EXPECT_EQ(bits.count(), ref_count);
    EXPECT_EQ(collect(bits), members);
  }
}

TEST(BitsetFrontier, ReassignResizesAndClears) {
  Bitset bits;
  bits.assign(64);
  bits.set(63);
  bits.assign(65);  // grow across a word boundary
  EXPECT_EQ(bits.size(), 65u);
  EXPECT_EQ(bits.num_words(), 2u);
  EXPECT_EQ(bits.count(), 0u);  // assign() clears
  bits.set(64);
  bits.assign(63);  // shrink back below the boundary
  EXPECT_EQ(bits.num_words(), 1u);
  EXPECT_EQ(bits.count(), 0u);
}

}  // namespace
}  // namespace byz::util

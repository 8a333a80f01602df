#include "graph/categories.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace byz::graph {
namespace {

Overlay sample(NodeId n = 512, std::uint32_t d = 8, std::uint64_t seed = 31) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

TEST(PaperRadiusA, MatchesFormula) {
  // a = δ / (10 k log2(d-1)), radius = a log2 n.
  const double r = paper_radius_a(1 << 20, 8, 3, 0.5);
  EXPECT_NEAR(r, 0.5 / (10 * 3 * std::log2(7.0)) * 20.0, 1e-12);
}

TEST(RandomByzMask, ExactCount) {
  util::Xoshiro256 rng(3);
  const auto mask = random_byzantine_mask(1000, 37, rng);
  std::uint32_t count = 0;
  for (const bool b : mask) count += b ? 1 : 0;
  EXPECT_EQ(count, 37u);
}

TEST(RandomByzMask, ZeroAndAll) {
  util::Xoshiro256 rng(4);
  const auto none = random_byzantine_mask(50, 0, rng);
  for (const bool b : none) EXPECT_FALSE(b);
  const auto all = random_byzantine_mask(50, 50, rng);
  for (const bool b : all) EXPECT_TRUE(b);
}

TEST(RandomByzMask, CountAboveNThrows) {
  util::Xoshiro256 rng(5);
  EXPECT_THROW((void)random_byzantine_mask(10, 11, rng), std::invalid_argument);
}

TEST(RandomByzMask, ApproximatelyUniform) {
  // Node 0 should be Byzantine in about count/n of the trials.
  int hits = 0;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    util::Xoshiro256 rng(t);
    const auto mask = random_byzantine_mask(100, 20, rng);
    hits += mask[0] ? 1 : 0;
  }
  EXPECT_NEAR(hits, 400, 80);
}

TEST(Categories, PartitionInvariants) {
  const Overlay o = sample();
  util::Xoshiro256 rng(7);
  const auto byz = random_byzantine_mask(o.num_nodes(), 16, rng);
  const auto cat = classify_categories(o, byz, /*ltl_radius=*/1,
                                       /*category_radius=*/1);
  const std::uint64_t n = o.num_nodes();
  EXPECT_EQ(cat.byz + cat.honest, n);
  EXPECT_EQ(cat.ltl + cat.nlt, n);
  EXPECT_EQ(cat.safe + cat.unsafe_, n);
  EXPECT_EQ(cat.bus + cat.byz_safe, n);
  EXPECT_EQ(cat.byz, 16u);
  // Bad = Byz ∪ NLT.
  EXPECT_GE(cat.bad, cat.byz);
  EXPECT_GE(cat.bad, cat.nlt);
  EXPECT_LE(cat.bad, cat.byz + cat.nlt);
}

TEST(Categories, ByzSafeImpliesNoBadNearby) {
  const Overlay o = sample(256, 6, 33);
  util::Xoshiro256 rng(9);
  const auto byz = random_byzantine_mask(o.num_nodes(), 8, rng);
  const std::uint32_t radius = 1;
  const auto cat = classify_categories(o, byz, 1, radius);
  // Spot-check definition: a byz-safe node has no bad node within G-radius.
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    if (!cat.is_byz_safe[v]) continue;
    EXPECT_FALSE(byz[v] || !cat.is_ltl[v]);
    for (const NodeId w : o.g().neighbors(v)) {
      EXPECT_FALSE(byz[w] || !cat.is_ltl[w])
          << "byz-safe node " << v << " has bad G-neighbor " << w;
    }
  }
}

TEST(Categories, NoByzantineMeansBadEqualsNlt) {
  const Overlay o = sample(256, 8, 35);
  const std::vector<bool> byz(o.num_nodes(), false);
  const auto cat = classify_categories(o, byz, 1, 1);
  EXPECT_EQ(cat.byz, 0u);
  EXPECT_EQ(cat.bad, cat.nlt);
  EXPECT_EQ(cat.bus, cat.unsafe_);
}

TEST(Categories, SafeSupersetOfByzSafe) {
  // Bad ⊇ NLT, so dist(v,Bad) <= dist(v,NLT): Byz-safe ⊆ Safe.
  const Overlay o = sample(512, 8, 37);
  util::Xoshiro256 rng(11);
  const auto byz = random_byzantine_mask(o.num_nodes(), 32, rng);
  const auto cat = classify_categories(o, byz, 1, 1);
  for (NodeId v = 0; v < o.num_nodes(); ++v) {
    if (cat.is_byz_safe[v]) {
      EXPECT_TRUE(cat.is_safe[v]);
    }
  }
  EXPECT_LE(cat.byz_safe, cat.safe);
}

TEST(ByzChain, NoByzantineIsZero) {
  const Overlay o = sample(128, 6, 39);
  const std::vector<bool> byz(o.num_nodes(), false);
  EXPECT_EQ(longest_byzantine_chain(o.h_simple(), byz, 10), 0u);
}

TEST(ByzChain, SingleNodeIsOne) {
  const Overlay o = sample(128, 6, 41);
  std::vector<bool> byz(o.num_nodes(), false);
  byz[5] = true;
  EXPECT_EQ(longest_byzantine_chain(o.h_simple(), byz, 10), 1u);
}

TEST(ByzChain, AdjacentPairIsTwo) {
  const Overlay o = sample(128, 6, 43);
  std::vector<bool> byz(o.num_nodes(), false);
  byz[0] = true;
  byz[o.h_simple().neighbors(0)[0]] = true;
  EXPECT_EQ(longest_byzantine_chain(o.h_simple(), byz, 10), 2u);
}

TEST(ByzChain, CapRespected) {
  const Overlay o = sample(64, 6, 45);
  const std::vector<bool> byz(o.num_nodes(), true);  // everyone Byzantine
  EXPECT_EQ(longest_byzantine_chain(o.h_simple(), byz, 5), 5u);
}

TEST(ByzChain, Observation6HoldsAtScale) {
  // n = 4096, δ = 0.6, d = 8, k = 3: kδ = 1.8 > 1, so chains of length >= 3
  // should essentially never occur.
  const Overlay o = sample(4096, 8, 47);
  const auto b = static_cast<NodeId>(std::pow(4096.0, 0.4));
  int violations = 0;
  for (std::uint64_t t = 0; t < 10; ++t) {
    util::Xoshiro256 rng(t + 100);
    const auto byz = random_byzantine_mask(o.num_nodes(), b, rng);
    if (longest_byzantine_chain(o.h_simple(), byz, 10) >= o.k()) ++violations;
  }
  EXPECT_LE(violations, 1);
}

}  // namespace
}  // namespace byz::graph

// The flood kernel's contract: bitwise-identical to the scalar reference
// oracle (run_flood_subphase_reference) — same per-node state, same
// instrumentation counters, same hierarchical digest trail, same
// wavefronts handed to live hooks. The reference is the specification;
// these tests are the property suite that keeps the kernel honest across
// randomized overlays, Byzantine sets, injections, crashes, mid-subphase
// churn, and word-boundary sizes.
#include "protocols/flooding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/categories.hpp"
#include "obs/digest.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

using SubphaseFn = decltype(&run_flood_subphase);
constexpr SubphaseFn kReference = &run_flood_subphase_reference;
constexpr SubphaseFn kKernel = &run_flood_subphase;

Overlay sample(NodeId n, std::uint32_t d, std::uint64_t seed) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

/// One subphase execution through `fn`, with a digester attached so the
/// trail comparison exercises the kernel's round-digest fold.
struct SubphaseRun {
  FloodWorkspace ws;
  sim::Instrumentation instr;
  obs::RunDigester digester;

  SubphaseRun(SubphaseFn fn, const Overlay& overlay,
              const std::vector<bool>& byz, const std::vector<bool>& crashed,
              const Verifier& verifier, std::span<const Color> gen,
              std::span<const Injection> inj, FloodParams params) {
    params.digest = &digester;
    digester.begin_phase(1);
    digester.begin_subphase(1);
    fn(overlay, byz, crashed, verifier, params, gen, inj, ws, instr);
    digester.close_subphase();
    digester.close_phase();
    digester.close_run();
  }
};

void expect_bitwise_equal(const SubphaseRun& ref, const SubphaseRun& run) {
  EXPECT_EQ(ref.ws.known, run.ws.known);
  EXPECT_EQ(ref.ws.fresh, run.ws.fresh);
  EXPECT_EQ(ref.ws.best_before, run.ws.best_before);
  EXPECT_EQ(ref.ws.last_step, run.ws.last_step);
  EXPECT_EQ(ref.instr, run.instr);
  // Vacuity: both trails hold the subphase's rounds.
  EXPECT_GT(ref.digester.trail().rounds.size(), 0u);
  EXPECT_EQ(ref.digester.trail().rounds.size(),
            run.digester.trail().rounds.size());
  const auto div =
      obs::first_divergence(ref.digester.trail(), run.digester.trail());
  EXPECT_FALSE(div.diverged())
      << "level=" << obs::to_string(div.level) << " phase=" << div.phase
      << " subphase=" << div.subphase << " round=" << div.round;
  EXPECT_EQ(ref.digester.trail().run_digest, run.digester.trail().run_digest);
}

/// Runs the reference and the kernel once each, checks them bitwise equal,
/// and returns the reference's instrumentation so the caller can pin what
/// the case was built to exercise.
sim::Instrumentation expect_kernel_matches_reference(
    const Overlay& overlay, const std::vector<bool>& byz,
    const std::vector<bool>& crashed, const Verifier& verifier,
    std::span<const Color> gen, std::span<const Injection> inj,
    const FloodParams& params) {
  const SubphaseRun ref(kReference, overlay, byz, crashed, verifier, gen, inj,
                        params);
  const SubphaseRun run(kKernel, overlay, byz, crashed, verifier, gen, inj,
                        params);
  expect_bitwise_equal(ref, run);
  return ref.instr;
}

TEST(FloodParallel, RandomizedSubphasesMatchReference) {
  // Randomized overlays / Byzantine sets / colors / injections: the
  // reference and the kernel must agree bit for bit, including the
  // commutatively folded round digests.
  struct Shape {
    NodeId n;
    std::uint32_t d;
    std::uint64_t seed;
    std::uint32_t steps;
  };
  const Shape shapes[] = {
      {256, 6, 11, 3}, {301, 8, 22, 4}, {512, 6, 33, 3}};
  for (const auto& shape : shapes) {
    const Overlay overlay = sample(shape.n, shape.d, shape.seed);
    util::Xoshiro256 rng(shape.seed ^ 0xF100D);
    const auto byz =
        graph::random_byzantine_mask(shape.n, shape.n / 32, rng);
    std::vector<bool> crashed(shape.n, false);
    const Verifier verifier(overlay, byz, {});

    std::vector<Color> gen(shape.n);
    for (NodeId v = 0; v < shape.n; ++v) {
      gen[v] = byz[v] ? 0 : util::geometric_color(rng);
    }
    // Injections from Byzantine nodes across the step range: step-1
    // free floods, mid-subphase chain checks, and late fabrications that
    // must be caught — the accept() paths the kernel runs after its sender
    // sweep.
    std::vector<Injection> inj;
    for (NodeId v = 0; v < shape.n && inj.size() < 8; ++v) {
      if (!byz[v]) continue;
      const auto step =
          static_cast<std::uint32_t>(1 + (rng() % shape.steps));
      inj.push_back({v, step, static_cast<Color>(50 + (rng() % 100))});
    }

    FloodParams params;
    params.steps = shape.steps;
    expect_kernel_matches_reference(overlay, byz, crashed, verifier, gen, inj,
                                    params);
  }
}

TEST(FloodParallel, WordBoundarySizesMatchReference) {
  // n = 63/64/65: the frontier straddles (or exactly fills) one 64-bit
  // word, exercising the packed representation's tail handling.
  for (const NodeId n : {NodeId{63}, NodeId{64}, NodeId{65}}) {
    const Overlay overlay = sample(n, 4, 900 + n);
    util::Xoshiro256 rng(n);
    const std::vector<bool> byz(n, false);
    std::vector<bool> crashed(n, false);
    crashed[n - 1] = true;  // the last id: the tail bit must stay clear
    const Verifier verifier(overlay, byz, {});
    std::vector<Color> gen(n);
    for (auto& c : gen) c = util::geometric_color(rng);

    FloodParams params;
    params.steps = 3;
    expect_kernel_matches_reference(overlay, byz, crashed, verifier, gen, {},
                                    params);
  }
}

TEST(FloodParallel, CrashesAndSuppressedByzantinesMatchReference) {
  // The non-default kernel branches: crashed nodes silent and Byzantine
  // forwarding disabled.
  const NodeId n = 256;
  const Overlay overlay = sample(n, 6, 44);
  util::Xoshiro256 rng(44);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  std::vector<bool> crashed(n, false);
  for (NodeId v = 0; v < n; v += 7) crashed[v] = true;
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (NodeId v = 0; v < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  FloodParams params;
  params.steps = 4;
  params.byz_forward = false;
  expect_kernel_matches_reference(overlay, byz, crashed, verifier, gen, {},
                                  params);
}

TEST(FloodParallel, VerificationDisabledBooksNoTrafficAndCountsInjections) {
  // BRC's Verifier config: conformant sends book no verification traffic,
  // while injections are still counted attempted and accepted.
  const NodeId n = 600;
  const Overlay overlay = sample(n, 6, 88);
  util::Xoshiro256 rng(88);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  const std::vector<bool> crashed(n, false);
  VerificationConfig cfg;
  cfg.enabled = false;
  const Verifier verifier(overlay, byz, cfg);
  std::vector<Color> gen(n);
  for (NodeId v = 0; v < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  std::vector<Injection> inj;
  for (NodeId v = 0; v < n && inj.size() < 12; ++v) {
    if (byz[v]) inj.push_back({v, 1 + (v % 4), static_cast<Color>(70 + v)});
  }

  FloodParams params;
  params.steps = 4;
  const sim::Instrumentation instr = expect_kernel_matches_reference(
      overlay, byz, crashed, verifier, gen, inj, params);
  EXPECT_GT(instr.token_messages, 0u);
  EXPECT_EQ(instr.verify_messages, 0u);
  EXPECT_EQ(instr.verify_bytes, 0u);
  EXPECT_GT(instr.injections_attempted, 0u);
  EXPECT_EQ(instr.injections_accepted, instr.injections_attempted);
  EXPECT_EQ(instr.injections_caught, 0u);
}

TEST(FloodParallel, ZeroValueInjectionsMatchReference) {
  // A zero-value injection is audited like any other token but folds
  // nothing: its receivers must not join the step's touched set. Sparse
  // generators leave most of its receivers untouched otherwise, so a
  // spurious touch shows in the receiver digest terms.
  const NodeId n = 600;
  const Overlay overlay = sample(n, 6, 99);
  util::Xoshiro256 rng(99);
  const auto byz = graph::random_byzantine_mask(n, n / 16, rng);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n, 0);
  for (NodeId v = 0; v < n; v += 97) {
    if (!byz[v]) gen[v] = util::geometric_color(rng);
  }
  std::vector<Injection> inj;
  std::uint32_t zeros = 0;
  for (NodeId v = 0; v < n && inj.size() < 16; ++v) {
    if (!byz[v]) continue;
    const Color value = (inj.size() % 2 == 0) ? 0 : static_cast<Color>(40 + v);
    zeros += value == 0 ? 1 : 0;
    inj.push_back({v, 1 + static_cast<std::uint32_t>(inj.size() % 3), value});
  }
  ASSERT_GT(zeros, 0u);

  FloodParams params;
  params.steps = 3;
  const sim::Instrumentation instr = expect_kernel_matches_reference(
      overlay, byz, crashed, verifier, gen, inj, params);
  EXPECT_GT(instr.verify_messages, 0u);
}

TEST(FloodParallel, InjectionsIntoByzantineReceiversMatchReference) {
  // Byzantine receivers absorb injected colors unaudited: an injector
  // whose whole H-neighborhood is Byzantine books no audit at all.
  const NodeId n = 512;
  const Overlay overlay = sample(n, 6, 111);
  util::Xoshiro256 rng(111);
  auto byz = graph::random_byzantine_mask(n, n / 32, rng);
  const NodeId hub = 200;
  byz[hub] = true;
  for (const NodeId w : overlay.h_simple().neighbors(hub)) byz[w] = true;
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (NodeId v = 0; v < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  std::vector<Injection> inj = {{hub, 1, 500}, {hub, 2, 900}, {hub, 3, 0}};
  for (const NodeId w : overlay.h_simple().neighbors(hub)) {
    inj.push_back({w, 2, static_cast<Color>(300 + w)});
  }

  FloodParams params;
  params.steps = 3;
  const sim::Instrumentation instr = expect_kernel_matches_reference(
      overlay, byz, crashed, verifier, gen, inj, params);
  EXPECT_GT(instr.injections_attempted, 0u);

  // The hub's own injection reaches only Byzantine receivers, so it is
  // never audited; those receivers then relay it conformantly at step 3.
  const std::vector<Injection> hub_only = {{hub, 2, 900}};
  const std::vector<Color> silent(n, 0);
  const sim::Instrumentation hub_instr = expect_kernel_matches_reference(
      overlay, byz, crashed, verifier, silent, hub_only, params);
  EXPECT_GT(hub_instr.token_messages, 0u);
  EXPECT_EQ(hub_instr.injections_attempted, 0u);
}

TEST(FloodParallel, ByzantineForwardersBesideCrashSetMatchReference) {
  // Byzantine relays (byz_forward) send conformant tokens booked like any
  // sender's, next to a crash set that must neither receive nor be audited:
  // every H-neighbor of a few Byzantine nodes is crashed.
  const NodeId n = 600;
  const Overlay overlay = sample(n, 6, 122);
  util::Xoshiro256 rng(122);
  const auto byz = graph::random_byzantine_mask(n, n / 8, rng);
  std::vector<bool> crashed(n, false);
  std::uint32_t walled = 0;
  for (NodeId v = 0; v < n && walled < 4; ++v) {
    if (!byz[v]) continue;
    for (const NodeId w : overlay.h_simple().neighbors(v)) {
      if (!byz[w]) crashed[w] = true;
    }
    ++walled;
  }
  for (NodeId v = 3; v < n; v += 11) crashed[v] = true;
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (NodeId v = 0; v < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  std::vector<Injection> inj;
  for (NodeId v = n - 1; v > 0 && inj.size() < 6; --v) {
    if (byz[v]) inj.push_back({v, 2 + (v % 3), static_cast<Color>(80 + v)});
  }

  FloodParams params;
  params.steps = 4;
  params.byz_forward = true;
  const sim::Instrumentation instr = expect_kernel_matches_reference(
      overlay, byz, crashed, verifier, gen, inj, params);
  EXPECT_GT(instr.verify_messages, 0u);
}

/// Test-local live topology over a static overlay whose last id is a
/// scheduled joiner: absent until step 2 of the subphase, when it enters
/// and the first honest node of the wavefront departs (the frontier-
/// targeting adversary in miniature; `keep_leaver` picks it but suppresses
/// the departure). Neighbor lists are the overlay's; presence alone gates
/// delivery. Records every wavefront it is handed.
class OneJoinOneLeaveHooks final : public MidRunHooks {
 public:
  OneJoinOneLeaveHooks(const Overlay& overlay, const std::vector<bool>& byz,
                       const Verifier& verifier, bool keep_leaver = false)
      : overlay_(overlay),
        byz_(byz),
        verifier_(verifier),
        keep_leaver_(keep_leaver),
        alive_(overlay.num_nodes()) {
    for (NodeId v = 0; v < joiner(); ++v) alive_.set(v);
  }

  [[nodiscard]] NodeId node_bound() const override {
    return overlay_.num_nodes();
  }
  [[nodiscard]] const util::Bitset& alive_set() const override {
    return alive_;
  }
  [[nodiscard]] bool departed(NodeId v) const override {
    return !keep_leaver_ && leaver_.has_value() && v == *leaver_;
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const override {
    return overlay_.h_simple().neighbors(v);
  }
  void begin_round(const RoundClock& clock,
                   std::span<const NodeId> frontier) override {
    frontiers.emplace_back(frontier.begin(), frontier.end());
    if (clock.step != 2) return;
    alive_.set(joiner());
    for (const NodeId u : frontier) {
      if (!byz_[u]) {
        leaver_ = u;
        if (!keep_leaver_) alive_.reset(u);
        break;
      }
    }
  }
  [[nodiscard]] bool wants_frontier() const override { return true; }
  [[nodiscard]] const Verifier* begin_phase(
      std::uint32_t /*phase*/, std::vector<NodeId>& /*admitted*/) override {
    return &verifier_;
  }

  [[nodiscard]] NodeId joiner() const { return overlay_.num_nodes() - 1; }
  [[nodiscard]] std::optional<NodeId> leaver() const { return leaver_; }

  std::vector<std::vector<NodeId>> frontiers;

 private:
  const Overlay& overlay_;
  const std::vector<bool>& byz_;
  const Verifier& verifier_;
  bool keep_leaver_;
  util::Bitset alive_;
  std::optional<NodeId> leaver_;
};

TEST(FloodParallel, LiveHooksMidSubphaseChurnMatchesReference) {
  // Live hooks at the subphase level: one departure and one joiner at step
  // 2 with wants_frontier() on. The kernel must hand begin_round the same
  // canonical wavefront as the reference every round and land on the same
  // state, counters and digest trail.
  const NodeId n = 257;
  const Overlay overlay = sample(n, 6, 66);
  util::Xoshiro256 rng(66);
  const auto byz = graph::random_byzantine_mask(n, n / 32, rng);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    gen[v] = byz[v] ? 0 : util::geometric_color(rng);
  }
  gen[n - 1] = 0;  // the joiner never generates mid-subphase
  std::vector<Injection> inj;
  for (NodeId v = 0; v < n && inj.size() < 4; ++v) {
    if (byz[v]) inj.push_back({v, 2 + (v % 3), static_cast<Color>(60 + v)});
  }

  FloodParams params;
  params.steps = 4;
  params.clock = {4, 1, 1, 100};
  OneJoinOneLeaveHooks ref_hooks(overlay, byz, verifier);
  params.live = &ref_hooks;
  const SubphaseRun ref(kReference, overlay, byz, crashed, verifier, gen, inj,
                        params);
  ASSERT_EQ(ref_hooks.frontiers.size(), params.steps);
  ASSERT_TRUE(ref_hooks.leaver().has_value());
  const NodeId leaver = *ref_hooks.leaver();
  EXPECT_TRUE(std::ranges::find(ref_hooks.frontiers[1], leaver) !=
              ref_hooks.frontiers[1].end());
  for (std::size_t r = 2; r < ref_hooks.frontiers.size(); ++r) {
    EXPECT_TRUE(std::ranges::find(ref_hooks.frontiers[r], leaver) ==
                ref_hooks.frontiers[r].end())
        << "departed node on the round-" << r + 1 << " wavefront";
  }
  EXPECT_GT(ref.ws.known[ref_hooks.joiner()], 0u)
      << "the joiner never received: the entry path is untested";
  // Vacuity: the departure must matter, or the packed presence test on
  // the kernel's sender and receiver paths is not exercised below.
  OneJoinOneLeaveHooks kept_hooks(overlay, byz, verifier,
                                  /*keep_leaver=*/true);
  params.live = &kept_hooks;
  const SubphaseRun kept(kReference, overlay, byz, crashed, verifier, gen,
                         inj, params);
  EXPECT_EQ(kept_hooks.leaver(), ref_hooks.leaver());
  EXPECT_FALSE(kept.instr == ref.instr)
      << "suppressing the departure changed nothing";

  OneJoinOneLeaveHooks hooks(overlay, byz, verifier);
  params.live = &hooks;
  const SubphaseRun run(kKernel, overlay, byz, crashed, verifier, gen, inj,
                        params);
  expect_bitwise_equal(ref, run);
  EXPECT_EQ(ref_hooks.frontiers, hooks.frontiers);
  EXPECT_EQ(ref_hooks.leaver(), hooks.leaver());
}

/// Live hooks whose alive set is one bit short of node_bound().
class ShortAliveSetHooks final : public MidRunHooks {
 public:
  ShortAliveSetHooks(const Overlay& overlay, const Verifier& verifier)
      : overlay_(overlay),
        verifier_(verifier),
        alive_(overlay.num_nodes() - 1) {}

  [[nodiscard]] NodeId node_bound() const override {
    return overlay_.num_nodes();
  }
  [[nodiscard]] const util::Bitset& alive_set() const override {
    return alive_;
  }
  [[nodiscard]] bool departed(NodeId /*v*/) const override { return false; }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const override {
    return overlay_.h_simple().neighbors(v);
  }
  void begin_round(const RoundClock& /*clock*/,
                   std::span<const NodeId> /*frontier*/) override {}
  [[nodiscard]] const Verifier* begin_phase(
      std::uint32_t /*phase*/, std::vector<NodeId>& /*admitted*/) override {
    return &verifier_;
  }

 private:
  const Overlay& overlay_;
  const Verifier& verifier_;
  util::Bitset alive_;
};

TEST(FloodParallel, AliveSetOfTheWrongSizeIsRejected) {
  const NodeId n = 65;
  const Overlay overlay = sample(n, 6, 68);
  const std::vector<bool> byz(n, false);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  const std::vector<Color> gen(n, 1);
  ShortAliveSetHooks hooks(overlay, verifier);
  FloodParams params;
  params.steps = 2;
  params.live = &hooks;
  for (const SubphaseFn fn : {kReference, kKernel}) {
    FloodWorkspace ws;
    sim::Instrumentation instr;
    EXPECT_THROW(
        fn(overlay, byz, crashed, verifier, params, gen, {}, ws, instr),
        std::invalid_argument);
  }
}

}  // namespace
}  // namespace byz::proto

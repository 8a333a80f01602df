// The lane-fused flood's contract: one run_flood_lanes call over S lanes
// equals S run_flood_subphase_reference calls made in lane order — every
// lane's known/best_before/last_step, the summed Instrumentation, and the
// digest trail once the caller replays each lane's rounds in subphase
// order — on a static overlay and under live hooks that do not churn.
// Callers split more than kMaxFloodLanes lanes into passes, and so does
// this suite, so lane counts on both sides of the cap are covered.
#include "protocols/flooding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "graph/categories.hpp"
#include "obs/digest.hpp"
#include "util/rng.hpp"

namespace byz::proto {
namespace {

using graph::NodeId;
using graph::Overlay;
using graph::OverlayParams;

Overlay sample(NodeId n, std::uint32_t d, std::uint64_t seed) {
  OverlayParams p;
  p.n = n;
  p.d = d;
  p.seed = seed;
  return Overlay::build(p);
}

/// One phase's worth of independent subphases over a fixed overlay, crash
/// set and Verifier.
struct LaneCase {
  const Overlay* overlay = nullptr;
  std::vector<bool> byz;
  std::vector<bool> crashed;
  const Verifier* verifier = nullptr;
  FloodParams params;
  std::vector<std::vector<Color>> gen;         ///< per lane, per node
  std::vector<std::vector<Injection>> inject;  ///< per lane
  /// false = the fused side keeps only the running max (BRC's workspace).
  bool step_maxima = true;
};

/// Per-lane outputs of one side, plus its counters and digest trail.
struct LaneOutcome {
  std::vector<std::vector<Color>> known, best_before, last_step;

  void add_lane(std::span<const Color> k, std::span<const Color> b,
                std::span<const Color> s) {
    known.emplace_back(k.begin(), k.end());
    best_before.emplace_back(b.begin(), b.end());
    last_step.emplace_back(s.begin(), s.end());
  }
  sim::Instrumentation instr;
  obs::DigestTrail trail;
};

LaneOutcome run_reference(const LaneCase& c) {
  LaneOutcome out;
  obs::RunDigester digester;
  digester.begin_phase(1);
  for (std::size_t j = 0; j < c.gen.size(); ++j) {
    FloodWorkspace ws;
    FloodParams params = c.params;
    params.digest = &digester;
    digester.begin_subphase(static_cast<std::uint32_t>(j + 1));
    run_flood_subphase_reference(*c.overlay, c.byz, c.crashed, *c.verifier,
                                 params, c.gen[j], c.inject[j], ws,
                                 out.instr);
    digester.close_subphase();
    out.add_lane(ws.known, ws.best_before, ws.last_step);
  }
  digester.close_phase();
  digester.close_run();
  out.trail = digester.trail();
  return out;
}

/// Reads lane `lane` of a row array.
std::vector<Color> lane_of(const FloodWorkspace& ws,
                           std::span<const Color> rows, std::uint32_t lane) {
  const auto n = static_cast<NodeId>(rows.size() / ws.stride());
  std::vector<Color> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = rows[ws.at(v, lane)];
  return out;
}

LaneOutcome run_fused(const LaneCase& c) {
  LaneOutcome out;
  obs::RunDigester digester;
  digester.begin_phase(1);
  const auto n = static_cast<NodeId>(c.byz.size());
  const auto total = static_cast<std::uint32_t>(c.gen.size());
  FloodWorkspace ws;
  std::vector<Injection> injections;
  std::vector<std::uint32_t> lane_begin;
  for (std::uint32_t first = 0; first < total; first += kMaxFloodLanes) {
    const std::uint32_t lanes = std::min(kMaxFloodLanes, total - first);
    ws.ensure(n, lanes, c.step_maxima);
    injections.clear();
    lane_begin.assign(1, 0);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      for (NodeId v = 0; v < n; ++v) {
        ws.known[ws.at(v, l)] = c.gen[first + l][v];
      }
      injections.insert(injections.end(), c.inject[first + l].begin(),
                        c.inject[first + l].end());
      lane_begin.push_back(static_cast<std::uint32_t>(injections.size()));
    }
    FloodParams params = c.params;
    params.digest = &digester;
    if (lanes == 1) digester.begin_subphase(first + 1);
    run_flood_lanes(*c.overlay, c.byz, c.crashed, *c.verifier, params,
                    injections, lane_begin, ws, out.instr);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      if (lanes > 1) {
        digester.begin_subphase(first + l + 1);
        replay_lane_rounds(ws, l, digester);
      }
      digester.close_subphase();
      out.known.push_back(lane_of(ws, ws.known, l));
      if (c.step_maxima) {
        out.best_before.push_back(lane_of(ws, ws.best_before, l));
        out.last_step.push_back(lane_of(ws, ws.last_step, l));
      }
    }
  }
  digester.close_phase();
  digester.close_run();
  out.trail = digester.trail();
  return out;
}

void expect_fused_matches_reference(const LaneCase& c,
                                    const std::string& label) {
  SCOPED_TRACE(label);
  const LaneOutcome ref = run_reference(c);
  const LaneOutcome fused = run_fused(c);
  ASSERT_EQ(ref.known.size(), fused.known.size());
  for (std::size_t j = 0; j < ref.known.size(); ++j) {
    EXPECT_EQ(ref.known[j], fused.known[j]) << "lane " << j;
    if (!c.step_maxima) continue;
    EXPECT_EQ(ref.best_before[j], fused.best_before[j]) << "lane " << j;
    EXPECT_EQ(ref.last_step[j], fused.last_step[j]) << "lane " << j;
  }
  EXPECT_EQ(ref.instr, fused.instr);
  // Vacuity: the trail has one round per lane and step.
  EXPECT_EQ(ref.trail.rounds.size(), c.gen.size() * c.params.steps);
  const auto div = obs::first_divergence(ref.trail, fused.trail);
  EXPECT_FALSE(div.diverged())
      << "level=" << obs::to_string(div.level) << " subphase=" << div.subphase
      << " round=" << div.round;
}

/// A random phase: per-lane colors of varied density (a lane may have no
/// generator at all), and per-lane Byzantine injections of value 0, huge
/// values, and steps past the subphase's last.
LaneCase random_case(const Overlay& overlay, const std::vector<bool>& byz,
                     const std::vector<bool>& crashed,
                     const Verifier& verifier, std::uint32_t lanes,
                     std::uint32_t steps, bool byz_forward,
                     util::Xoshiro256& rng) {
  const NodeId n = overlay.num_nodes();
  LaneCase c;
  c.overlay = &overlay;
  c.byz = byz;
  c.crashed = crashed;
  c.verifier = &verifier;
  c.params.steps = steps;
  c.params.byz_forward = byz_forward;
  std::vector<NodeId> byz_ids;
  for (NodeId v = 0; v < n; ++v) {
    if (byz[v]) byz_ids.push_back(v);
  }
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint64_t density = rng.below(4);  // 0 = silent lane
    std::vector<Color> gen(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (density == 0 || rng.below(4) >= density) continue;
      // Byzantine nodes generate their honest draw in some lanes.
      if (byz[v] && rng.coin()) continue;
      gen[v] = util::geometric_color(rng);
    }
    c.gen.push_back(std::move(gen));
    std::vector<Injection> inj;
    const std::uint64_t count = byz_ids.empty() ? 0 : rng.below(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      const NodeId from = byz_ids[rng.below(byz_ids.size())];
      const auto step = static_cast<std::uint32_t>(1 + rng.below(steps + 2));
      Color value = 0;
      switch (rng.below(4)) {
        case 0: value = 0; break;
        case 1: value = std::numeric_limits<Color>::max() -
                        static_cast<Color>(rng.below(3)); break;
        case 2: value = 1'000'000 + static_cast<Color>(rng.below(10)); break;
        default: value = static_cast<Color>(1 + rng.below(40)); break;
      }
      inj.push_back({from, step, value});
    }
    c.inject.push_back(std::move(inj));
  }
  return c;
}

TEST(FloodLanes, FusedPassesMatchReferenceCallsInOrder) {
  struct Shape {
    NodeId n;
    std::uint32_t d;
  };
  const Shape shapes[] = {{63, 4},  {64, 6},  {65, 8},  {127, 4},
                          {128, 8}, {129, 6}, {300, 8}, {600, 6}};
  const std::uint32_t lane_counts[] = {1, 2, 7, 15, 16, 17, 33};
  util::Xoshiro256 rng(0x1A4E5);
  std::uint64_t case_id = 0;
  for (const Shape& shape : shapes) {
    const Overlay overlay = sample(shape.n, shape.d, 500 + shape.n);
    for (const std::uint32_t lanes : lane_counts) {
      ++case_id;
      // Alternate the branches: Byzantine relays on/off, verification
      // on/off, with and without a crash set.
      const bool byz_forward = case_id % 2 == 0;
      const bool verify = case_id % 3 != 0;
      const bool crashes = case_id % 4 != 1;
      const auto byz = graph::random_byzantine_mask(
          shape.n, 2 + static_cast<NodeId>(rng.below(shape.n / 8)), rng);
      std::vector<bool> crashed(shape.n, false);
      if (crashes) {
        for (NodeId v = 0; v < shape.n; ++v) {
          crashed[v] = !byz[v] && rng.below(9) == 0;
        }
      }
      VerificationConfig cfg;
      cfg.enabled = verify;
      const Verifier verifier(overlay, byz, cfg);
      const auto steps = static_cast<std::uint32_t>(1 + rng.below(5));
      LaneCase c = random_case(overlay, byz, crashed, verifier, lanes, steps,
                               byz_forward, rng);
      const std::string label =
          "n=" + std::to_string(shape.n) + " d=" + std::to_string(shape.d) +
          " lanes=" + std::to_string(lanes) +
          " steps=" + std::to_string(steps) +
          " byz_forward=" + std::to_string(byz_forward) +
          " verify=" + std::to_string(verify) +
          " crashes=" + std::to_string(crashes);
      expect_fused_matches_reference(c, label);
      // BRC's workspace: the running max alone.
      c.step_maxima = false;
      expect_fused_matches_reference(c, label + " running max only");
    }
  }
}

TEST(FloodLanes, MutedByzantineRelaysSendInNoLane) {
  // Byzantine nodes that do not relay must stay silent in every lane,
  // including the ones where they received a color and would otherwise
  // join the frontier; every lane carries traffic, so a lane that leaks
  // shows in the token count.
  const NodeId n = 512;
  const Overlay overlay = sample(n, 8, 77);
  util::Xoshiro256 rng(77);
  const auto byz = graph::random_byzantine_mask(n, n / 6, rng);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  for (const std::uint32_t lanes : {2u, 9u, 16u}) {
    LaneCase c;
    c.overlay = &overlay;
    c.byz = byz;
    c.crashed = crashed;
    c.verifier = &verifier;
    c.params.steps = 4;
    c.params.byz_forward = false;
    for (std::uint32_t l = 0; l < lanes; ++l) {
      std::vector<Color> gen(n, 0);
      for (NodeId v = 0; v < n; ++v) {
        if (!byz[v] && rng.below(3) == 0) gen[v] = util::geometric_color(rng);
      }
      c.gen.push_back(std::move(gen));
      c.inject.emplace_back();
    }
    expect_fused_matches_reference(c, "lanes=" + std::to_string(lanes));
  }
}

TEST(FloodLanes, VerificationIsBookedPerSendingLane) {
  // Every lane floods the same colors, so a sender sends in all of them
  // at once: the audit must bill each lane's deliveries.
  const NodeId n = 256;
  const Overlay overlay = sample(n, 6, 31);
  util::Xoshiro256 rng(31);
  const std::vector<bool> byz(n, false);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  std::vector<Color> gen(n);
  for (auto& color : gen) color = util::geometric_color(rng);
  LaneCase c;
  c.overlay = &overlay;
  c.byz = byz;
  c.crashed = crashed;
  c.verifier = &verifier;
  c.params.steps = 3;
  const std::uint32_t lanes = 5;
  c.gen.assign(lanes, gen);
  c.inject.assign(lanes, {});
  expect_fused_matches_reference(c, "identical lanes");
  const LaneOutcome one = run_reference(
      LaneCase{&overlay, byz, crashed, &verifier, c.params, {gen}, {{}}});
  const LaneOutcome fused = run_fused(c);
  EXPECT_GT(one.instr.verify_messages, 0u);
  EXPECT_EQ(fused.instr.verify_messages, lanes * one.instr.verify_messages);
  EXPECT_EQ(fused.instr.token_messages, lanes * one.instr.token_messages);
}

/// Live hooks over a static overlay whose membership never changes:
/// `absent` nodes neither send nor receive. `churns` is what the hooks
/// report to the kernel; begin_round only counts its calls.
class StaticHooks final : public MidRunHooks {
 public:
  StaticHooks(const Overlay& overlay, const Verifier& verifier, bool churns,
              const std::vector<bool>& absent = {})
      : overlay_(overlay),
        verifier_(verifier),
        churns_(churns),
        alive_(overlay.num_nodes()) {
    for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
      if (absent.empty() || !absent[v]) alive_.set(v);
    }
  }
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
                   std::span<const NodeId> /*frontier*/) override {
    ++rounds_begun;
  }
  [[nodiscard]] bool churns() const override { return churns_; }
  [[nodiscard]] const Verifier* begin_phase(
      std::uint32_t /*phase*/, std::vector<NodeId>& /*admitted*/) override {
    return &verifier_;
  }

  std::uint64_t rounds_begun = 0;

 private:
  const Overlay& overlay_;
  const Verifier& verifier_;
  bool churns_;
  util::Bitset alive_;
};

TEST(FloodLanes, NonChurningHooksFuseLikeOneLaneAtATime) {
  // Hooks that never change membership (a live run on an empty schedule)
  // let the run fuse its subphases: one call over 2-16 lanes under them
  // equals the same lanes flooded one at a time, in order, under the same
  // hooks, and calls no begin_round. Some nodes are absent throughout, so
  // the presence mask is exercised in every lane.
  struct Shape {
    NodeId n;
    std::uint32_t d;
  };
  const Shape shapes[] = {{64, 6}, {129, 8}, {300, 4}, {600, 8}};
  const std::uint32_t lane_counts[] = {2, 3, 8, 11, 16};
  util::Xoshiro256 rng(0x10CC);
  std::uint64_t case_id = 0;
  for (const Shape& shape : shapes) {
    const Overlay overlay = sample(shape.n, shape.d, 900 + shape.n);
    for (const std::uint32_t lanes : lane_counts) {
      ++case_id;
      const bool byz_forward = case_id % 2 == 0;
      const auto byz = graph::random_byzantine_mask(
          shape.n, 2 + static_cast<NodeId>(rng.below(shape.n / 8)), rng);
      std::vector<bool> crashed(shape.n, false);
      std::vector<bool> absent(shape.n, false);
      for (NodeId v = 0; v < shape.n; ++v) {
        crashed[v] = !byz[v] && rng.below(9) == 0;
        absent[v] = rng.below(10) == 0;
      }
      const Verifier verifier(overlay, byz, {});
      StaticHooks hooks(overlay, verifier, /*churns=*/false, absent);
      const auto steps = static_cast<std::uint32_t>(1 + rng.below(5));
      LaneCase c = random_case(overlay, byz, crashed, verifier, lanes, steps,
                               byz_forward, rng);
      c.params.live = &hooks;
      const std::string label =
          "n=" + std::to_string(shape.n) + " d=" + std::to_string(shape.d) +
          " lanes=" + std::to_string(lanes) +
          " steps=" + std::to_string(steps) +
          " byz_forward=" + std::to_string(byz_forward);
      expect_fused_matches_reference(c, label);
      hooks.rounds_begun = 0;
      (void)run_fused(c);
      EXPECT_EQ(hooks.rounds_begun, 0u) << label;
    }
  }
}

TEST(FloodLanes, RejectsInputsItCannotFuse) {
  const NodeId n = 70;
  const Overlay overlay = sample(n, 6, 5);
  const std::vector<bool> byz(n, false);
  const std::vector<bool> crashed(n, false);
  const Verifier verifier(overlay, byz, {});
  FloodWorkspace ws;
  EXPECT_THROW(ws.ensure(n, 0), std::invalid_argument);
  EXPECT_THROW(ws.ensure(n, kMaxFloodLanes + 1), std::invalid_argument);

  ws.ensure(n, 3);
  sim::Instrumentation instr;
  FloodParams params;
  params.steps = 2;
  const std::vector<Injection> inj = {{1, 1, 5}};
  // lane_begin must have lanes + 1 entries covering the injections.
  const std::vector<std::uint32_t> short_split = {0, 1};
  const std::vector<std::uint32_t> loose_split = {0, 0, 0, 0};
  const std::vector<std::uint32_t> split = {0, 1, 1, 1};
  EXPECT_THROW(run_flood_lanes(overlay, byz, crashed, verifier, params, inj,
                               short_split, ws, instr),
               std::invalid_argument);
  EXPECT_THROW(run_flood_lanes(overlay, byz, crashed, verifier, params, inj,
                               loose_split, ws, instr),
               std::invalid_argument);
  // Hooks that churn change membership between subphases: one lane only.
  StaticHooks churning(overlay, verifier, /*churns=*/true);
  params.live = &churning;
  EXPECT_THROW(run_flood_lanes(overlay, byz, crashed, verifier, params, inj,
                               split, ws, instr),
               std::invalid_argument);
  StaticHooks fixed(overlay, verifier, /*churns=*/false);
  params.live = &fixed;
  EXPECT_NO_THROW(run_flood_lanes(overlay, byz, crashed, verifier, params,
                                  inj, split, ws, instr));
  // A workspace sized for another node count.
  params.live = nullptr;
  ws.ensure(n - 1, 3);
  EXPECT_THROW(run_flood_lanes(overlay, byz, crashed, verifier, params, inj,
                               split, ws, instr),
               std::invalid_argument);
}

}  // namespace
}  // namespace byz::proto

// Oracle for the mid-run Verifier refresh. Under readmit-next-phase the
// LiveOverlayFeed refreshes its Verifier at phase boundaries by
// recomputing only the rows its splices marked (dynamics/midrun.hpp). The
// E26 engine<->fastpath oracle cannot see a wrong row: both tiers read the
// same feed. This suite can. It drives run_counting_with through a hooks
// wrapper that, at EVERY readmit boundary, compares the ball row and
// usable chain of each alive run id with a fresh MutableOverlay::snapshot()
// (its ball-count pass's Overlay::ball_row, and verifier_chain_len), which shares
// no code with the feed's live BFS. The schedules are randomized
// over sybil joins, frontier-directed leaves, boundary join storms, leaves
// deferred at the membership floor, joiners that leave before admission,
// both chain models and k from 1 to paper k + 2; the suite asserts that
// each case occurred. A second case pins the refresh radius: one honest
// join recomputes only the rows within w-1 hops of its splice, where
// w = max(k-1, 1) is the number of witness columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/midrun_schedule.hpp"
#include "dynamics/midrun.hpp"
#include "graph/categories.hpp"
#include "protocols/fastpath.hpp"
#include "protocols/verification.hpp"

namespace byz {
namespace {

using graph::NodeId;

/// How often each schedule case occurred over a batch of trials.
struct Coverage {
  std::uint64_t refreshes_checked = 0;     ///< boundaries after a refresh
  std::uint64_t long_chains_compared = 0;  ///< chain >= 2 after a refresh
  std::uint64_t sybils_admitted = 0;
  std::uint64_t frontier_leaves = 0;
  std::uint64_t deferred_mid_run = 0;
  std::uint64_t left_before_admission = 0;
  std::uint64_t rows_recomputed = 0;  ///< what the feed actually redid
  std::uint64_t rows_full = 0;        ///< what full refreshes would redo
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Forwards every call to the feed; at each boundary it checks the
/// returned Verifier against the snapshot oracle.
class OracleHooks final : public proto::MidRunHooks {
 public:
  OracleHooks(dynamics::LiveOverlayFeed& feed,
              const dynamics::MutableOverlay& overlay,
              const std::vector<bool>& stable_byz, proto::ChainModel model,
              NodeId n0, Coverage& cov)
      : feed_(feed),
        overlay_(overlay),
        stable_byz_(stable_byz),
        model_(model),
        n0_(n0),
        cov_(cov),
        admitted_(feed.node_bound(), 0) {}

  [[nodiscard]] NodeId node_bound() const override {
    return feed_.node_bound();
  }
  [[nodiscard]] const util::Bitset& alive_set() const override {
    return feed_.alive_set();
  }
  [[nodiscard]] bool departed(NodeId v) const override {
    return feed_.departed(v);
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const override {
    return feed_.neighbors(v);
  }
  [[nodiscard]] bool wants_frontier() const override {
    return feed_.wants_frontier();
  }

  void begin_round(const proto::RoundClock& clock,
                   std::span<const NodeId> frontier) override {
    const std::uint64_t deferred = feed_.stats().events_deferred;
    feed_.begin_round(clock, frontier);
    if (feed_.stats().events_deferred > deferred) ++cov_.deferred_mid_run;
    for (NodeId r = n0_; r < feed_.node_bound(); ++r) {
      if (feed_.departed(r) && admitted_[r] == 0) {
        admitted_[r] = 2;
        ++cov_.left_before_admission;
      }
    }
  }

  [[nodiscard]] const proto::Verifier* begin_phase(
      std::uint32_t phase, std::vector<NodeId>& admitted) override {
    const std::size_t before = admitted.size();
    const std::uint64_t refreshes = feed_.stats().verifier_refreshes;
    const proto::Verifier* verifier = feed_.begin_phase(phase, admitted);
    for (std::size_t i = before; i < admitted.size(); ++i) {
      admitted_[admitted[i]] = 1;
      if (feed_.run_byz()[admitted[i]]) ++cov_.sybils_admitted;
    }
    check_rows(*verifier, phase, feed_.stats().verifier_refreshes > refreshes);
    return verifier;
  }

 private:
  void check_rows(const proto::Verifier& verifier, std::uint32_t phase,
                  bool refreshed) {
    const auto snap = overlay_.snapshot();
    std::vector<bool> dense_byz(snap.dense_to_stable.size());
    for (std::size_t i = 0; i < dense_byz.size(); ++i) {
      dense_byz[i] = stable_byz_[snap.dense_to_stable[i]];
    }
    NodeId alive_rows = 0;
    for (NodeId r = 0; r < feed_.node_bound(); ++r) {
      if (!feed_.alive(r)) continue;
      ++alive_rows;
      const NodeId d = snap.to_dense(feed_.run_to_stable()[r]);
      if (d == graph::kInvalidNode) {
        note_mismatch(phase, r, "alive run id missing from the snapshot");
        continue;
      }
      const auto row = snap.overlay.ball_row(d);
      const auto live = verifier.ball_row(r);
      if (!std::equal(live.begin(), live.end(), row.begin(), row.end())) {
        note_mismatch(phase, r, "ball row");
      }
      const std::uint32_t chain =
          proto::verifier_chain_len(snap.overlay, dense_byz, d, model_);
      if (verifier.usable_chain(r) != chain) {
        note_mismatch(phase, r, "usable chain");
      }
      if (refreshed && chain >= 2) ++cov_.long_chains_compared;
    }
    if (alive_rows != snap.overlay.num_nodes()) {
      note_mismatch(phase, 0, "alive set differs from the overlay's");
    }
    if (refreshed) {
      ++cov_.refreshes_checked;
      cov_.rows_full += alive_rows;
    }
  }

  void note_mismatch(std::uint32_t phase, NodeId r, const char* what) {
    if (cov_.mismatches++ == 0) {
      std::ostringstream os;
      os << what << " differs at phase " << phase << ", run id " << r;
      cov_.first_mismatch = os.str();
    }
  }

  dynamics::LiveOverlayFeed& feed_;
  const dynamics::MutableOverlay& overlay_;
  const std::vector<bool>& stable_byz_;
  proto::ChainModel model_;
  NodeId n0_;
  Coverage& cov_;
  std::vector<std::uint8_t> admitted_;  ///< 1 admitted, 2 left before
};

struct TrialShape {
  NodeId n0 = 0;
  std::uint32_t d = 0;
  std::uint32_t k = 0;  ///< 0 = paper k
  proto::ChainModel model = proto::ChainModel::kStrict;
  adv::MidRunScheduleStrategy strategy = adv::MidRunScheduleStrategy::kUniform;
  std::uint32_t epochs = 0;
};

/// Runs `shape.epochs` readmit epochs on one overlay through OracleHooks.
/// Epoch budgets are random; leaves are capped so the post-run flush can
/// always apply every deferred leave.
void run_trial(const TrialShape& shape, std::uint64_t seed, Coverage& cov) {
  dynamics::MutableOverlay overlay(shape.n0, shape.d, shape.k,
                                   util::mix_seed(seed, 1));
  util::Xoshiro256 draw(util::mix_seed(seed, 2));
  const auto byz_count = static_cast<NodeId>(draw.below(shape.n0 / 3 + 1));
  std::vector<bool> stable_byz =
      graph::random_byzantine_mask(shape.n0, byz_count, draw);
  util::Xoshiro256 churn_rng(util::mix_seed(seed, 3));

  proto::ProtocolConfig cfg;
  cfg.verification.chain_model = shape.model;
  dynamics::MidRunConfig mid_cfg;
  mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
  mid_cfg.schedule_strategy = shape.strategy;
  const auto strategy = adv::make_strategy(adv::StrategyKind::kFakeColor);

  for (std::uint32_t e = 0; e < shape.epochs; ++e) {
    const NodeId alive = overlay.num_alive();
    dynamics::ChurnEpoch epoch;
    epoch.joins = static_cast<std::uint32_t>(draw.below(7));
    epoch.sybil_joins = static_cast<std::uint32_t>(draw.below(4));
    // Tiny overlays spend the whole leave budget, so leaves that strike
    // before the joins meet the membership floor mid-run.
    const std::uint32_t max_leaves =
        alive + epoch.joins + epoch.sybil_joins - 4;
    epoch.leaves = max_leaves;
    if (alive >= 12) {
      const std::uint32_t cap = std::min<std::uint32_t>(max_leaves, 8);
      epoch.leaves = static_cast<std::uint32_t>(draw.below(cap + 1));
    }
    const std::uint64_t horizon =
        dynamics::expected_horizon_rounds(alive, shape.d, cfg.schedule);
    const auto schedule = adv::derive_adversarial_schedule(
        epoch, horizon, util::mix_seed(seed, 10 + e), shape.strategy,
        shape.d, cfg.schedule);

    dynamics::LiveOverlayFeed feed(overlay, stable_byz, schedule, mid_cfg,
                                   cfg.verification,
                                   adv::ChurnAdversary::kNone, churn_rng);
    OracleHooks hooks(feed, overlay, stable_byz, shape.model, alive, cov);
    proto::RunControls controls;
    controls.midrun = &hooks;
    (void)proto::run_counting_with(feed.snapshot_overlay(), feed.run_byz(),
                                   *strategy, cfg,
                                   util::mix_seed(seed, 20 + e), controls);
    feed.flush_remaining();
    cov.frontier_leaves += feed.stats().frontier_leaves;
    cov.rows_recomputed += feed.stats().rows_recomputed;
  }
}

TEST(LiveVerifierOracle, IncrementalRefreshMatchesSnapshotRows) {
  constexpr std::uint32_t kTrials = 180;
  constexpr std::uint32_t kDegrees[] = {4, 6, 8};
  constexpr adv::MidRunScheduleStrategy kStrategies[] = {
      adv::MidRunScheduleStrategy::kUniform,
      adv::MidRunScheduleStrategy::kFrontierLeaves,
      adv::MidRunScheduleStrategy::kBoundaryJoinStorm};
  Coverage strict;
  Coverage rewired;
  util::Xoshiro256 shapes(0x11E7);
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    TrialShape shape;
    // A third of the trials stay tiny so leaves hit the membership floor
    // and the few joiners are likely departure victims.
    const bool tiny = t % 3 == 0;
    const auto size = static_cast<NodeId>(shapes.below(tiny ? 6 : 113));
    shape.n0 = (tiny ? 5 : 16) + size;
    shape.d = kDegrees[shapes.below(3)];
    // Paper k; a deeper k so both marking radii (w-1 for counts, k-1 for
    // chains) span more hops; or k = 1, the one k with w = k.
    const auto deeper = static_cast<std::uint32_t>(shapes.below(4));
    shape.k = deeper == 0   ? 0
              : deeper == 3 ? 1
                            : graph::paper_k(shape.d) + deeper;
    shape.model =
        t % 2 == 0 ? proto::ChainModel::kStrict : proto::ChainModel::kRewired;
    shape.strategy = kStrategies[shapes.below(3)];
    shape.epochs = 1 + static_cast<std::uint32_t>(shapes.below(3));
    Coverage& cov =
        shape.model == proto::ChainModel::kStrict ? strict : rewired;
    run_trial(shape, util::mix_seed(0x11E7, t), cov);
  }

  for (const Coverage* cov : {&strict, &rewired}) {
    const char* model = cov == &strict ? "strict" : "rewired";
    EXPECT_EQ(cov->mismatches, 0u) << model << ": " << cov->first_mismatch;
    EXPECT_GT(cov->refreshes_checked, 0u) << model;
    EXPECT_GT(cov->long_chains_compared, 0u) << model;
    EXPECT_GT(cov->sybils_admitted, 0u) << model;
    EXPECT_GT(cov->frontier_leaves, 0u) << model;
    EXPECT_GT(cov->deferred_mid_run, 0u) << model;
    EXPECT_GT(cov->left_before_admission, 0u) << model;
    // The refresh is incremental: fewer rows than a full refresh at each
    // of the same boundaries would recompute.
    EXPECT_LT(cov->rows_recomputed, cov->rows_full) << model;
  }
}

TEST(LiveVerifierRefresh, OneHonestJoinRecomputesOnlyTheWitnessRadius) {
  // n0 = 4096, d = 8, paper k = 3, so w = 2. One honest join at round 0
  // splices d/2 ring edges: at most d alive endpoints plus the joiner, d+1
  // sources with at most d+1 rows each within w-1 = 1 hop. Without
  // Byzantine nodes no chain widens the mark, so the one refresh (at the
  // phase-2 boundary) recomputes at most (d+1)^2 = 81 rows; a refresh
  // radius of k-1 = 2 hops would mark several hundred.
  constexpr NodeId kN0 = 4096;
  constexpr std::uint32_t kD = 8;
  for (const std::uint64_t seed : {1, 2, 3}) {
    dynamics::MutableOverlay overlay(kN0, kD, 0, seed);
    std::vector<bool> stable_byz(kN0, false);
    dynamics::ChurnSchedule schedule;
    schedule.events.push_back({0, dynamics::MidRunEventKind::kJoin});
    dynamics::MidRunConfig mid_cfg;
    mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
    util::Xoshiro256 churn_rng(util::mix_seed(seed, 3));
    const auto strategy = adv::make_strategy(adv::StrategyKind::kHonest);
    const auto out = dynamics::run_counting_midrun(
        overlay, stable_byz, *strategy, proto::ProtocolConfig{},
        util::mix_seed(seed, 4), schedule, mid_cfg,
        adv::ChurnAdversary::kNone, churn_rng);
    EXPECT_EQ(out.stats.joins, 1u) << "seed=" << seed;
    EXPECT_EQ(out.stats.verifier_refreshes, 1u) << "seed=" << seed;
    EXPECT_GE(out.stats.rows_recomputed, 1u) << "seed=" << seed;
    EXPECT_LE(out.stats.rows_recomputed, (kD + 1) * (kD + 1))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace byz

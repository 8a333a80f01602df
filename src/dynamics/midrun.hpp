// Mid-protocol churn: run Algorithm 2 while the overlay mutates under it.
//
// PRs 2-3 only ever churn the overlay BETWEEN estimation runs; this module
// closes the ROADMAP's remaining dynamics item by churning DURING one. A
// ChurnSchedule places an epoch's join/leave events on individual flood
// rounds; LiveOverlayFeed replays them against the MutableOverlay exactly
// when the flood kernel reaches those rounds (proto::MidRunHooks), so
// departed nodes drop messages from their departure round and joiners are
// spliced in mid-flight. What the PROTOCOL does about it is the
// MembershipPolicy (protocols/verification.hpp):
//
//   kTreatAsSilent      the in-flight run keeps its run-start view: the
//                       flood routes over the run-start edges, joiners are
//                       invisible until the next run, departures are pure
//                       silence, and the run-start Verifier serves the
//                       whole run. The overlay itself still mutates — the
//                       policy is the protocol's reaction, not the
//                       network's behavior.
//   kReadmitNextPhase   the flood resolves neighbors against the LIVE
//                       rings (departure splices create pred-succ edges
//                       mid-run, joiners relay from entry), and at each
//                       phase boundary pending joiners are admitted as
//                       generating participants under a Verifier refreshed
//                       against the live topology. The refresh recomputes
//                       only the ball rows within w-1 H-hops of a splice
//                       applied since the last boundary (w = max(k-1, 1),
//                       the witness columns the audit bills) and the chains
//                       of the Byzantine nodes within k-1 hops (see
//                       LiveOverlayFeed).
//
// Model notes (documented deviations from a fully general treatment):
//   * Joiners skip the Algorithm-2 setup stage (adjacency exchange + crash
//     rule) — they were not present for it; the crash rule only ever
//     applies to run-start members.
//   * Scheduled SYBIL joiners are Byzantine for bookkeeping and relay like
//     any Byzantine node once admitted, but plan no injections this run:
//     the strategy's World spans run-start members only. They attack from
//     the next epoch's run onward.
//   * Events scheduled past the run's termination round are flushed after
//     the run, so an epoch always ends in the same overlay state as the
//     between-runs path (the trace's n_after invariant holds either way).
//
// Correctness anchors:
//   E24  with an empty schedule the feed is a pure pass-through and
//        run_counting_midrun is BITWISE identical — statuses, estimates,
//        round counts, every instrumentation counter — to
//        proto::run_counting on the same snapshot, under both policies.
//   E26  at NONZERO mid-run churn, the message-level sim::Engine driven by
//        an identical feed (run_counting_midrun_engine) produces a bitwise
//        identical MidRunOutcome for every rate/policy/strategy — the two
//        tiers cross-check each other's mid-run membership machinery, so
//        fastpath-only behavior is no longer unverifiable.
//   E28  the COMPOSED tier: mid-run churn epoch after epoch, with the
//        per-epoch engine oracle on. Each run starts from a fresh
//        MutableOverlay::snapshot(); the feed's run-start Verifier rows are
//        that snapshot's own ball counts (graph::Overlay::ball_row), and
//        its G is built by the setup stage's first read.
//
// Adversarial schedules (adversary/midrun_schedule.hpp) reuse this replay
// machinery unchanged: derive_adversarial_schedule shapes WHEN the same
// event budget strikes, and MidRunConfig::schedule_strategy switches the
// leave-victim policy to the observed flood wavefront (the feed records
// the frontier each begin_round hands it).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/midrun_schedule.hpp"
#include "adversary/strategies.hpp"
#include "dynamics/churn_schedule.hpp"
#include "dynamics/churn_trace.hpp"
#include "dynamics/mutable_overlay.hpp"
#include "obs/digest.hpp"
#include "protocols/estimator.hpp"
#include "protocols/fastpath.hpp"
#include "protocols/midrun.hpp"

namespace byz::dynamics {

/// Spreads one trace epoch's {joins, sybil_joins, leaves} over the rounds
/// [0, horizon_rounds) with a SplitMix64-derived stream of `seed` —
/// deterministic in (epoch, horizon_rounds, seed) alone, so mid-run trials
/// are bitwise reproducible for any --jobs. horizon_rounds should be the
/// run's EXPECTED round count (see expected_horizon_rounds); events the
/// run never reaches are flushed after it.
[[nodiscard]] ChurnSchedule derive_schedule(const ChurnEpoch& epoch,
                                            std::uint64_t horizon_rounds,
                                            std::uint64_t seed);

/// The flood rounds a run on n nodes of degree d is expected to execute:
/// cumulative rounds through the typical decision phase
/// ceil(log2 n / log2(d-1)) + 2. Used as the schedule horizon so events
/// actually land mid-run instead of piling past termination.
[[nodiscard]] std::uint64_t expected_horizon_rounds(
    graph::NodeId n, std::uint32_t d, const proto::ScheduleConfig& schedule);

struct MidRunConfig {
  proto::MembershipPolicy policy = proto::MembershipPolicy::kReadmitNextPhase;
  /// Victim policy for leave events (adversary/midrun_schedule.hpp): under
  /// kFrontierLeaves the feed records the wavefront handed to each
  /// begin_round and departures strike honest nodes ON it
  /// (adv::pick_frontier_departure); every other strategy departs through
  /// the ordinary churn adversary. The schedule's TIMING is the caller's
  /// business (derive_adversarial_schedule) — the feed replays whatever
  /// rounds it is given.
  adv::MidRunScheduleStrategy schedule_strategy =
      adv::MidRunScheduleStrategy::kUniform;
  /// Protocol backend executing the run (null = the Algorithm-2 fastpath,
  /// run_counting_with). Every backend rides the same LiveOverlayFeed,
  /// flush, and departed-reconcile plumbing. The message-level engine
  /// tier (run_counting_midrun_engine / engine oracle) is Algorithm-2
  /// machinery and throws std::invalid_argument on a non-null backend.
  /// NOTE for non-algo2 backends without verification traffic (BRC): hand
  /// the feed a disabled-verification ProtocolConfig, or the feed will
  /// bill live verifier rebuilds.
  const proto::Estimator* backend = nullptr;
};

struct MidRunStats {
  std::uint64_t events_applied = 0;   ///< during the run, at their round
  std::uint64_t events_flushed = 0;   ///< after the run (it ended early)
  std::uint64_t events_deferred = 0;  ///< leaves postponed to flush (floor)
  std::uint64_t joins = 0;            ///< honest + sybil joins applied total
  std::uint64_t leaves = 0;
  std::uint64_t admitted = 0;           ///< joiners admitted at boundaries
  std::uint64_t verifier_refreshes = 0; ///< live Verifier rebuilds
  /// Ball/chain rows recomputed by those rebuilds: the alive rows within
  /// w-1 H-hops (w = max(k-1, 1)) of a splice applied since the previous
  /// boundary, plus the alive Byzantine rows within k-1 hops.
  std::uint64_t rows_recomputed = 0;
  std::uint64_t frontier_leaves = 0;    ///< departures that hit the wavefront

  bool operator==(const MidRunStats&) const = default;
};

/// Optional input to a mid-run run (the default value is the standalone
/// behavior): `snapshot` is a run-start snapshot to execute on INSTEAD of
/// the feed's own MutableOverlay::snapshot(), so a caller that already
/// holds one does not build a second. It must be that overlay's current
/// snapshot (only its size is checked) and outlive the feed.
struct MidRunComposed {
  const MutableOverlay::Snapshot* snapshot = nullptr;
};

/// MutableOverlay-backed implementation of proto::MidRunHooks (see file
/// comment). Owns the run-id space: snapshot dense ids occupy [0, n0) and
/// scheduled joiners are pre-assigned [n0, node_bound()) in schedule
/// order. Grows `stable_byz` as joiners splice in, exactly like the
/// between-runs replay loop does.
///
/// Presence is one util::Bitset over run ids (alive_set()), updated in
/// place by the events begin_round applies.
///
/// Live Verifier refresh (kReadmitNextPhase): a row holds the witness
/// counts |B_H(v, r)| for r = 1..w, w = graph::witness_width(k) =
/// max(k-1, 1), and for a Byzantine v its usable chain: the strict chain (a
/// simple Byzantine path of at most k hops ending at v) or the rewired
/// count (Byzantine nodes within k-1 hops), all over the live alive-only
/// adjacency. Witness-path argument: a value
/// read off the paths of at most r hops from v can change across a splice
/// only if one of those paths, before or after it, crosses an edge the
/// splice added or removed. The prefix before the FIRST changed edge uses
/// unchanged edges only, has at most r-1 hops, and ends at a splice
/// endpoint. So the counts (r = w) can change only within w-1 hops of an
/// endpoint, and the chains (r = k for strict paths, k-1 for the rewired
/// count) only for Byzantine nodes within k-1 hops. Each splice marks
/// exactly those rows with one multi-source BFS of depth k-1 in the
/// post-splice adjacency, from the alive touched endpoints plus the
/// joiner: every node it reaches within w-1 hops, and the Byzantine nodes
/// it reaches beyond. The next boundary recomputes the marked rows that
/// are still alive, each with one BFS of depth w, which also counts the
/// Byzantine nodes within k-1 <= w hops that the rewired chain needs:
/// O(marked rows × w-ball) per refresh instead of O(n × k-ball). The run
/// starts from a copy of the snapshot's ball counts for [0, n0) plus
/// chains for its Byzantine members; each Verifier views the feed's table
/// rather than copying it.
class LiveOverlayFeed final : public proto::MidRunHooks {
 public:
  /// `composed` (optional, must outlive the feed) supplies the run-start
  /// snapshot — see MidRunComposed.
  /// `digester` (optional; same instance the run itself is handed) lets
  /// the feed fold membership changes into the current round digest and
  /// record join/leave flight events. Pure read-side.
  LiveOverlayFeed(MutableOverlay& overlay, std::vector<bool>& stable_byz,
                  ChurnSchedule schedule, const MidRunConfig& config,
                  proto::VerificationConfig verification,
                  adv::ChurnAdversary adversary, util::Xoshiro256& rng,
                  const MidRunComposed* composed = nullptr,
                  obs::RunDigester* digester = nullptr);

  // proto::MidRunHooks
  [[nodiscard]] graph::NodeId node_bound() const override { return nb_; }
  [[nodiscard]] const util::Bitset& alive_set() const override {
    return alive_;
  }
  [[nodiscard]] bool departed(graph::NodeId v) const override {
    return departed_[v] != 0;
  }
  [[nodiscard]] std::span<const graph::NodeId> neighbors(
      graph::NodeId v) const override {
    return adj_[v];
  }
  void begin_round(const proto::RoundClock& clock,
                   std::span<const graph::NodeId> frontier) override;
  [[nodiscard]] bool wants_frontier() const override {
    return config_.schedule_strategy ==
           adv::MidRunScheduleStrategy::kFrontierLeaves;
  }
  [[nodiscard]] const proto::Verifier* begin_phase(
      std::uint32_t phase, std::vector<graph::NodeId>& admitted) override;

  /// Applies every not-yet-applied event (the run terminated before their
  /// rounds), joins first among the deferred leaves' floor guard. After
  /// this the overlay state is independent of how far the run got.
  void flush_remaining();

  /// The run-start snapshot the protocol executes on (run ids < n0 are
  /// its dense ids) — the feed's own, or the one MidRunComposed supplies.
  [[nodiscard]] const graph::Overlay& snapshot_overlay() const noexcept {
    return snap_->overlay;
  }
  /// Byzantine mask over the run-id space (snapshot members + scheduled
  /// joiners), fixed at construction. This is the mask the protocol run
  /// must be handed.
  [[nodiscard]] const std::vector<bool>& run_byz() const noexcept {
    return run_byz_;
  }
  /// Stable id of each run id (joiner slots are kInvalidNode until their
  /// event applies; all resolved after flush_remaining()).
  [[nodiscard]] const std::vector<graph::NodeId>& run_to_stable()
      const noexcept {
    return run_to_stable_;
  }
  [[nodiscard]] const MidRunStats& stats() const noexcept { return stats_; }

 private:
  void apply_event(const MidRunEvent& event);
  void apply_join(bool byzantine);
  bool apply_leave();  ///< false = deferred (membership floor)
  void rebuild_adjacency(graph::NodeId run_id);
  /// Marks for the next refresh the alive rows within w-1 live hops of
  /// `sources` (run ids; dead or unmapped ones are skipped) and the alive
  /// Byzantine rows within k-1 hops.
  void mark_dirty_rows(std::span<const graph::NodeId> sources);
  void recompute_row(graph::NodeId run_id);
  void rebuild_verifier();

  MutableOverlay* overlay_;
  std::vector<bool>* stable_byz_;
  ChurnSchedule schedule_;
  MidRunConfig config_;
  proto::VerificationConfig verification_;
  adv::ChurnAdversary adversary_;
  util::Xoshiro256* rng_;
  const MidRunComposed* composed_;
  obs::RunDigester* digester_;

  MidRunStats stats_;
  graph::NodeId n0_ = 0;  ///< snapshot size (run ids < n0_ are members)
  graph::NodeId nb_ = 0;  ///< n0_ + scheduled joins
  std::size_t next_event_ = 0;
  std::vector<MidRunEvent> deferred_;  ///< floor-guarded leaves
  graph::NodeId next_join_run_id_ = 0;

  std::optional<MutableOverlay::Snapshot> snapshot_;  ///< owned rebuild
  const MutableOverlay::Snapshot* snap_ = nullptr;    ///< the one in use
  std::vector<graph::NodeId> run_to_stable_;
  std::vector<graph::NodeId> stable_to_run_;  ///< by stable id; kInvalidNode
  std::vector<bool> run_byz_;
  util::Bitset alive_;  ///< presence over run ids; see alive_set()
  std::vector<std::uint8_t> departed_;
  std::vector<std::vector<graph::NodeId>> adj_;  ///< run-id simple H view

  /// Stable ids of the wavefront observed at the most recent begin_round
  /// (kFrontierLeaves only; empty otherwise) — the target pool for
  /// frontier-directed departures applied that round.
  std::vector<graph::NodeId> frontier_stable_;

  std::uint32_t k_ = 0;
  std::uint32_t w_ = 0;  ///< graph::witness_width(k_): columns per row
  bool rows_dirty_ = false;  ///< a splice since the last refresh
  std::vector<graph::NodeId> pending_admit_;
  /// nb_ * w_ cumulative ball counts; sized once, so the Verifier's view
  /// stays valid for the feed's lifetime.
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint8_t> chains_;     ///< nb_ usable-chain lengths
  std::optional<proto::Verifier> verifier_;
  /// Rows marked since the last refresh: a byte mask over run ids plus the
  /// marked ids in marking order (the refresh walks the list).
  std::vector<std::uint8_t> row_marked_;
  std::vector<graph::NodeId> marked_rows_;
  // BFS scratch for live ball rows and for marking; all zero between uses.
  std::vector<std::uint8_t> bfs_mark_;
  std::vector<graph::NodeId> bfs_queue_;
  // Strict-chain DFS scratch: the path stack and its on-path mask, which
  // the DFS clears as it pops, so it is all zero between rows.
  struct ChainFrame {
    graph::NodeId v = graph::kInvalidNode;
    std::size_t next = 0;
  };
  std::vector<ChainFrame> chain_stack_;
  std::vector<std::uint8_t> on_path_;
};

struct MidRunOutcome {
  proto::RunResult run;  ///< in run-id space (node_bound ids)
  std::vector<graph::NodeId> run_to_stable;
  std::vector<bool> run_byz;
  MidRunStats stats;

  /// Full bitwise identity over all four members — the relation the E26
  /// oracle and the epoch driver's engine_match assert.
  bool operator==(const MidRunOutcome&) const = default;
};

/// Snapshots `overlay` (or adopts `composed->snapshot`), runs the counting
/// protocol with `schedule` applied mid-run under `config.policy`, then
/// flushes the schedule's tail so the overlay ends in the same state as
/// the between-runs path. `stable_byz` grows with every join (sybil
/// joiners marked Byzantine), `rng` advances exactly one draw per
/// adversary decision — both identical to the between-runs replay, so a
/// driver can alternate modes per epoch. `composed` (nullable) supplies
/// the run-start snapshot — see MidRunComposed.
[[nodiscard]] MidRunOutcome run_counting_midrun(
    MutableOverlay& overlay, std::vector<bool>& stable_byz,
    adv::Strategy& strategy, const proto::ProtocolConfig& cfg,
    std::uint64_t color_seed, const ChurnSchedule& schedule,
    const MidRunConfig& config, adv::ChurnAdversary adversary,
    util::Xoshiro256& rng, const MidRunComposed* composed = nullptr,
    obs::RunDigester* digester = nullptr);

/// The same run executed by the message-level sim::Engine instead of the
/// array fast path — identical feed, identical rng/byz evolution, and (the
/// E26 oracle) an identical MidRunOutcome bit for bit: the two tiers must
/// agree under NONZERO mid-run churn, not just at the E24 empty-schedule
/// anchor. A composed snapshot threads through identically.
[[nodiscard]] MidRunOutcome run_counting_midrun_engine(
    MutableOverlay& overlay, std::vector<bool>& stable_byz,
    adv::Strategy& strategy, const proto::ProtocolConfig& cfg,
    std::uint64_t color_seed, const ChurnSchedule& schedule,
    const MidRunConfig& config, adv::ChurnAdversary adversary,
    util::Xoshiro256& rng, const MidRunComposed* composed = nullptr,
    obs::RunDigester* digester = nullptr);

struct MidRunTierComparison {
  MidRunOutcome fastpath;
  MidRunOutcome engine;
  /// Full bitwise identity of the two outcomes: RunResult (statuses,
  /// estimates, phase/round/subphase counts, every instrumentation
  /// counter), the run→stable map, the Byzantine mask evolution, and the
  /// mid-run event bookkeeping.
  bool identical = false;
  // Audit mode only (compare_midrun_tiers called with an AuditConfig):
  // run-level digests of each tier, whether the two hierarchical trails
  // matched entry for entry, and — on any divergence, outcome or trail —
  // the rendered byzobs/forensics/v1 report plus the path it was written
  // to (empty if AuditConfig::out_dir was empty or the write failed).
  std::uint64_t run_digest_fastpath = 0;
  std::uint64_t run_digest_engine = 0;
  bool digests_identical = true;
  std::string forensics;
  std::string forensics_path;
};

/// Runs BOTH tiers from the identical initial state — each on its own
/// copy of (overlay, byz mask, churn rng), with a fresh strategy instance
/// per tier — and compares the outcomes bitwise. The inputs are left
/// untouched; this is the mid-run equivalence oracle E26 sweeps. With
/// `audit` attached both tiers also record hierarchical digest trails and
/// flight events, the trails are compared, and a forensics report is
/// emitted on any divergence (see MidRunTierComparison's audit fields) —
/// the outcomes themselves are bitwise unaffected (digesting is pure
/// read-side).
[[nodiscard]] MidRunTierComparison compare_midrun_tiers(
    const MutableOverlay& overlay, const std::vector<bool>& stable_byz,
    adv::StrategyKind strategy, const proto::ProtocolConfig& cfg,
    std::uint64_t color_seed, const ChurnSchedule& schedule,
    const MidRunConfig& config, adv::ChurnAdversary adversary,
    const util::Xoshiro256& rng, const obs::AuditConfig* audit = nullptr);

}  // namespace byz::dynamics

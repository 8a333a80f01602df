// Mid-protocol churn: the protocol-side interface for overlays that mutate
// WHILE a counting run is in flight (ROADMAP "mid-protocol churn"; the
// dynamics layer implements it over MutableOverlay in dynamics/midrun.*).
//
// A static run freezes one Overlay snapshot for the whole run. MidRunHooks
// instead lets run_counting_with resolve the topology PER ROUND:
//
//   * node_bound() fixes the id space up front — every node that is alive
//     at run start plus every joiner the round schedule will ever splice in.
//     Ids of not-yet-joined nodes are inert (absent) until their round.
//   * begin_round() is invoked by the flood kernel before the sends of each
//     flood step; the implementation applies the join/leave events scheduled
//     for that round, after which alive_set()/neighbors() answer for the NEW
//     topology. Departed nodes drop messages from their departure round on;
//     joiners receive and relay from their entry round on ("flood from
//     entry"). Presence is one packed set rather than a per-node call, so
//     the flood kernel reads it once per round and tests every sender and
//     receiver from its words.
//   * begin_phase() is invoked by the run loop at each phase boundary. The
//     implementation applies its MembershipPolicy (verification.hpp): under
//     kReadmitNextPhase it reports the joiners to admit as generating
//     participants and returns a Verifier refreshed against the live
//     topology; under kTreatAsSilent it admits nobody and keeps the
//     run-start Verifier.
//   * churns() is false when no event will ever apply (an empty round
//     schedule). The membership is then fixed for the whole run, so the
//     run floods up to kMaxFloodLanes subphases per kernel pass, as a
//     static run does, and the kernel calls no begin_round.
//
// Contract (E24, tests/sim/midrun_equivalence_test.cpp): with an EMPTY
// round schedule the hooks are pure pass-throughs and run_counting_with
// must produce a RunResult bitwise identical — status, estimates, phase and
// round counts, every instrumentation counter — to the plain static run on
// the same snapshot. A snapshot-churn epoch is such a run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "protocols/verification.hpp"
#include "util/bitset.hpp"

namespace byz::proto {

/// Position of one flood step in the run: phase i (1-based), subphase j
/// within it (1-based), step t within the subphase (1-based, t <= i), and
/// the 0-based global round counter the churn schedule is keyed on.
struct RoundClock {
  std::uint32_t phase = 1;
  std::uint32_t subphase = 1;
  std::uint32_t step = 1;
  std::uint64_t round = 0;
};

/// Live-topology callbacks for a mutating overlay (see file comment).
/// Implemented by dynamics::LiveOverlayFeed; the protocol layer only ever
/// talks to this interface, so protocols/ stays independent of dynamics/.
class MidRunHooks {
 public:
  virtual ~MidRunHooks() = default;

  /// Upper bound of the run's id space: nodes alive at run start occupy
  /// [0, n); scheduled joiners are pre-assigned ids [n, node_bound()).
  /// Fixed for the whole run.
  [[nodiscard]] virtual graph::NodeId node_bound() const = 0;

  /// The nodes present in the overlay as of the last begin_round(), over
  /// [0, node_bound()) (the flood kernel rejects any other size). Joiners
  /// are absent until their entry round; departed nodes are absent forever
  /// after. The reference stays valid for the hooks' lifetime and changes
  /// only inside begin_round.
  [[nodiscard]] virtual const util::Bitset& alive_set() const = 0;

  /// Is v present as of the last begin_round()? One bit of alive_set().
  [[nodiscard]] bool alive(graph::NodeId v) const {
    return alive_set().test(v);
  }

  /// True iff v WAS present and has left (distinguishes a departure from a
  /// joiner whose entry round has not arrived — both are !alive()).
  [[nodiscard]] virtual bool departed(graph::NodeId v) const = 0;

  /// v's current H-neighbors (simple view, dedup'd). Only meaningful while
  /// alive(v); resolved against the live rings, so splices applied by
  /// begin_round are visible immediately.
  [[nodiscard]] virtual std::span<const graph::NodeId> neighbors(
      graph::NodeId v) const = 0;

  /// Applies every churn event scheduled for clock.round. Called by the
  /// flood kernel before that round's sends; monotone in clock.round.
  ///
  /// `frontier` is the round's flood wavefront: the sorted run-ids of the
  /// protocol-conformant senders of this round — nodes whose running
  /// maximum improved in the previous step (at step 1, the color
  /// generators), minus crashed nodes, minus Byzantine ids when the
  /// strategy does not relay floods, minus nodes dead as of the PREVIOUS
  /// round (this round's events have not been applied yet — that is what
  /// this call is about to do). Both protocol tiers derive the identical
  /// set, so an implementation may key adversarial decisions on it (the
  /// adaptive adversary of the paper's model watches the wavefront; see
  /// adversary/midrun_schedule.hpp) without breaking engine↔fastpath
  /// equivalence. Derived only when wants_frontier() is true (empty span
  /// otherwise); only valid for the duration of the call.
  virtual void begin_round(const RoundClock& clock,
                           std::span<const graph::NodeId> frontier) = 0;

  /// Does this implementation consume begin_round's frontier? When false
  /// (the default for non-targeting schedules), BOTH tiers skip the
  /// wavefront derivation identically and hand begin_round an empty span
  /// — the gate depends only on the shared hooks instance, so tier
  /// equivalence is unaffected while the common path pays nothing.
  [[nodiscard]] virtual bool wants_frontier() const { return false; }

  /// Can begin_round change membership this run? False promises that
  /// begin_round never changes alive_set() or neighbors() and does nothing
  /// else the run observes, so the flood kernel may skip it and fuse
  /// subphases into lanes (see the file comment).
  [[nodiscard]] virtual bool churns() const { return true; }

  /// Phase boundary: applies the membership policy. Fills `admitted` with
  /// the joiner ids that become full (generating) participants this phase
  /// and returns the Verifier the phase's floods must use — refreshed
  /// against the live topology under kReadmitNextPhase, the frozen
  /// run-start Verifier under kTreatAsSilent. Never null.
  [[nodiscard]] virtual const Verifier* begin_phase(
      std::uint32_t phase, std::vector<graph::NodeId>& admitted) = 0;
};

}  // namespace byz::proto

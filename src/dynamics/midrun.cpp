#include "dynamics/midrun.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "protocols/schedule.hpp"
#include "protocols/verification.hpp"
#include "sim/engine.hpp"

namespace byz::dynamics {

using graph::NodeId;

namespace {

/// Seed-stream tag for schedule derivation (distinct from epoch_driver's).
constexpr std::uint64_t kScheduleStream = 0x31D0;

std::uint32_t count_kind(const ChurnSchedule& s, MidRunEventKind kind) {
  std::uint32_t c = 0;
  for (const auto& e : s.events) {
    if (e.kind == kind) ++c;
  }
  return c;
}

}  // namespace

std::uint32_t ChurnSchedule::joins() const noexcept {
  return count_kind(*this, MidRunEventKind::kJoin);
}
std::uint32_t ChurnSchedule::sybil_joins() const noexcept {
  return count_kind(*this, MidRunEventKind::kSybilJoin);
}
std::uint32_t ChurnSchedule::leaves() const noexcept {
  return count_kind(*this, MidRunEventKind::kLeave);
}

ChurnSchedule derive_schedule(const ChurnEpoch& epoch,
                              std::uint64_t horizon_rounds,
                              std::uint64_t seed) {
  if (horizon_rounds == 0) horizon_rounds = 1;
  ChurnSchedule out;
  util::Xoshiro256 rng(util::mix_seed(seed, kScheduleStream));
  const auto emit = [&](std::uint32_t count, MidRunEventKind kind) {
    for (std::uint32_t i = 0; i < count; ++i) {
      out.events.push_back({rng.below(horizon_rounds), kind});
    }
  };
  // Generation order joins -> sybil joins -> leaves; the stable sort keeps
  // that order within a round, matching the trace's bookkeeping order.
  emit(epoch.joins, MidRunEventKind::kJoin);
  emit(epoch.sybil_joins, MidRunEventKind::kSybilJoin);
  emit(epoch.leaves, MidRunEventKind::kLeave);
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const MidRunEvent& a, const MidRunEvent& b) {
                     return a.round < b.round;
                   });
  return out;
}

std::uint64_t expected_horizon_rounds(NodeId n, std::uint32_t d,
                                      const proto::ScheduleConfig& schedule) {
  const double logs = std::log2(static_cast<double>(n)) /
                      std::log2(static_cast<double>(d) - 1.0);
  const auto decide_phase =
      static_cast<std::uint32_t>(std::ceil(logs)) + 2;
  return proto::rounds_through_phase(decide_phase, d, schedule);
}

LiveOverlayFeed::LiveOverlayFeed(MutableOverlay& overlay,
                                 std::vector<bool>& stable_byz,
                                 ChurnSchedule schedule,
                                 const MidRunConfig& config,
                                 proto::VerificationConfig verification,
                                 adv::ChurnAdversary adversary,
                                 util::Xoshiro256& rng,
                                 const MidRunComposed* composed,
                                 obs::RunDigester* digester)
    : overlay_(&overlay),
      stable_byz_(&stable_byz),
      schedule_(std::move(schedule)),
      config_(config),
      verification_(verification),
      adversary_(adversary),
      rng_(&rng),
      composed_(composed),
      digester_(digester) {
  if (stable_byz.size() != overlay.id_bound()) {
    throw std::invalid_argument("LiveOverlayFeed: stable mask size mismatch");
  }
  // Run-start snapshot: the injected one or our own.
  if (composed_ != nullptr && composed_->snapshot != nullptr) {
    snap_ = composed_->snapshot;
    if (snap_->overlay.num_nodes() != overlay.num_alive() ||
        snap_->dense_to_stable.size() != overlay.num_alive()) {
      throw std::invalid_argument(
          "LiveOverlayFeed: composed snapshot does not match the overlay's "
          "alive membership");
    }
  } else {
    snapshot_.emplace(overlay.snapshot());
    snap_ = &*snapshot_;
  }
  const auto& snap = *snap_;
  n0_ = snap.overlay.num_nodes();
  const std::uint32_t total_joins =
      schedule_.joins() + schedule_.sybil_joins();
  nb_ = n0_ + static_cast<NodeId>(total_joins);
  next_join_run_id_ = n0_;
  k_ = snap.overlay.k();
  w_ = graph::witness_width(k_);

  run_to_stable_.assign(nb_, graph::kInvalidNode);
  stable_to_run_.assign(overlay.id_bound(), graph::kInvalidNode);
  for (NodeId v = 0; v < n0_; ++v) {
    run_to_stable_[v] = snap.dense_to_stable[v];
    stable_to_run_[snap.dense_to_stable[v]] = v;
  }

  // The run-id Byzantine mask is fixed up front: snapshot members inherit
  // their stable flag; joiner slots are Byzantine iff their scheduled
  // event is a sybil join (slots are assigned in schedule order).
  run_byz_.assign(nb_, false);
  for (NodeId v = 0; v < n0_; ++v) {
    run_byz_[v] = stable_byz[snap.dense_to_stable[v]];
  }
  NodeId slot = n0_;
  for (const auto& e : schedule_.events) {
    if (e.kind == MidRunEventKind::kLeave) continue;
    run_byz_[slot++] = (e.kind == MidRunEventKind::kSybilJoin);
  }

  alive_.assign(nb_);
  for (NodeId v = 0; v < n0_; ++v) alive_.set(v);
  departed_.assign(nb_, 0);
  row_marked_.assign(nb_, 0);
  bfs_mark_.assign(nb_, 0);
  on_path_.assign(nb_, 0);

  adj_.resize(nb_);
  const auto& hs = snap.overlay.h_simple();
  for (NodeId v = 0; v < n0_; ++v) {
    const auto nbrs = hs.neighbors(v);
    adj_[v].assign(nbrs.begin(), nbrs.end());
  }

  // Run-start verifier state: exactly what the primary Verifier
  // constructor reads off the snapshot (E24's parity rests on it) — its
  // ball counts for [0, n0) and the chains of its Byzantine members.
  // Joiner rows stay 0 until a refresh recomputes them.
  rows_.assign(static_cast<std::size_t>(nb_) * w_, 0);
  const auto counts = snap.overlay.ball_counts();
  std::copy(counts.begin(), counts.end(), rows_.begin());
  chains_ = proto::verifier_chains(
      snap.overlay,
      std::vector<bool>(run_byz_.begin(), run_byz_.begin() + n0_),
      verification_.chain_model);
  chains_.resize(nb_, 0);
  verifier_.emplace(k_, rows_, chains_, verification_);
}

void LiveOverlayFeed::begin_round(const proto::RoundClock& clock,
                                  std::span<const graph::NodeId> frontier) {
  // Frontier targeting: remember the wavefront this round's departures
  // may strike, in stable-id space (the pool outlives the splices the
  // events below apply). Only the targeting strategy pays the copy.
  if (config_.schedule_strategy ==
      adv::MidRunScheduleStrategy::kFrontierLeaves) {
    frontier_stable_.clear();
    for (const NodeId r : frontier) {
      const NodeId s = run_to_stable_[r];
      if (s != graph::kInvalidNode) frontier_stable_.push_back(s);
    }
  }
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].round <= clock.round) {
    apply_event(schedule_.events[next_event_]);
    ++next_event_;
    ++stats_.events_applied;
  }
}

void LiveOverlayFeed::apply_event(const MidRunEvent& event) {
  switch (event.kind) {
    case MidRunEventKind::kJoin:
      apply_join(/*byzantine=*/false);
      return;
    case MidRunEventKind::kSybilJoin:
      apply_join(/*byzantine=*/true);
      return;
    case MidRunEventKind::kLeave:
      if (!apply_leave()) {
        deferred_.push_back(event);
        ++stats_.events_deferred;
        if (digester_ != nullptr) {
          digester_->note(obs::FlightEventKind::kLeave, 0, /*deferred=*/1);
        }
      }
      return;
  }
}

void LiveOverlayFeed::apply_join(bool byzantine) {
  const NodeId run_id = next_join_run_id_++;
  const auto anchors =
      adv::plan_join_anchors(*overlay_, *stable_byz_, adversary_, byzantine,
                             *rng_);
  // The splice replaces each (anchor, successor) ring edge; those are the
  // nodes whose H-neighborhoods change.
  std::vector<NodeId> touched;
  for (std::uint32_t c = 0; c < overlay_->num_cycles(); ++c) {
    touched.push_back(anchors[c]);
    touched.push_back(overlay_->successor(c, anchors[c]));
  }
  const NodeId stable = overlay_->join_at(anchors);
  stable_byz_->push_back(byzantine);
  if (run_byz_[run_id] != byzantine) {
    throw std::logic_error("LiveOverlayFeed: join slot/schedule mismatch");
  }
  stable_to_run_.resize(overlay_->id_bound(), graph::kInvalidNode);
  stable_to_run_[stable] = run_id;
  run_to_stable_[run_id] = stable;
  ++stats_.joins;
  // Membership evidence for forensics: fold the splice into the open round
  // digest (both tiers apply events inside the same begin_round) and leave
  // a flight event. Folds after close_run (the post-run flush) land in an
  // accumulator that is never read — identically in both tiers.
  if (digester_ != nullptr) {
    digester_->fold_round(obs::digest_member_term(run_id, 1));
    digester_->note(obs::FlightEventKind::kJoin, stable, run_id);
  }

  if (config_.policy == proto::MembershipPolicy::kTreatAsSilent) {
    // Invisible to the in-flight run: stays !alive, frozen adjacency.
    return;
  }
  alive_.set(run_id);
  pending_admit_.push_back(run_id);
  rebuild_adjacency(run_id);
  for (NodeId& t : touched) {
    t = stable_to_run_[t];  // run id from here on: a marking source
    if (t != graph::kInvalidNode) rebuild_adjacency(t);
  }
  touched.push_back(run_id);
  mark_dirty_rows(touched);
  rows_dirty_ = true;
}

bool LiveOverlayFeed::apply_leave() {
  // Membership floor: the trace clamp guarantees the epoch's END state,
  // but a mid-run reordering can hit the floor transiently; such leaves
  // are deferred to the flush (after the epoch's joins).
  if (overlay_->num_alive() <= 4) return false;
  const bool target_frontier =
      config_.schedule_strategy ==
      adv::MidRunScheduleStrategy::kFrontierLeaves;
  const NodeId victim =
      target_frontier
          ? adv::pick_frontier_departure(*overlay_, *stable_byz_,
                                         frontier_stable_, *rng_)
          : adv::pick_departure(*overlay_, *stable_byz_, adversary_, *rng_);
  if (target_frontier &&
      std::find(frontier_stable_.begin(), frontier_stable_.end(), victim) !=
          frontier_stable_.end()) {
    ++stats_.frontier_leaves;
  }
  std::vector<NodeId> touched;
  for (std::uint32_t c = 0; c < overlay_->num_cycles(); ++c) {
    touched.push_back(overlay_->predecessor(c, victim));
    touched.push_back(overlay_->successor(c, victim));
  }
  overlay_->leave(victim);
  const NodeId run_id = stable_to_run_[victim];
  if (run_id == graph::kInvalidNode) {
    throw std::logic_error("LiveOverlayFeed: departure of unmapped node");
  }
  alive_.reset(run_id);
  departed_[run_id] = 1;
  ++stats_.leaves;
  if (digester_ != nullptr) {
    digester_->fold_round(obs::digest_member_term(run_id, 2));
    digester_->note(obs::FlightEventKind::kLeave, run_id, 0);
  }
  // A joiner that departs before its admission boundary was never a
  // participant: drop it from the pending list so the admitted stats
  // count only nodes that actually became generators.
  std::erase(pending_admit_, run_id);

  if (config_.policy == proto::MembershipPolicy::kTreatAsSilent) {
    // Frozen view: neighbors keep listing the victim; the presence gate
    // (alive_set) in the kernel turns it into pure silence.
    return true;
  }
  adj_[run_id].clear();
  for (NodeId& t : touched) {
    t = stable_to_run_[t];  // run id from here on: a marking source
    if (t != graph::kInvalidNode) rebuild_adjacency(t);
  }
  // The victim is dead and reachable only over its removed edges; its ring
  // neighbours, all touched, stand in for it.
  mark_dirty_rows(touched);
  rows_dirty_ = true;
  return true;
}

void LiveOverlayFeed::rebuild_adjacency(NodeId run_id) {
  const NodeId stable = run_to_stable_[run_id];
  auto& row = adj_[run_id];
  row.clear();
  if (stable == graph::kInvalidNode || !overlay_->is_alive(stable)) return;
  for (std::uint32_t c = 0; c < overlay_->num_cycles(); ++c) {
    for (const NodeId s :
         {overlay_->successor(c, stable), overlay_->predecessor(c, stable)}) {
      const NodeId r = stable_to_run_[s];
      if (r != graph::kInvalidNode && r != run_id) row.push_back(r);
    }
  }
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
}

void LiveOverlayFeed::mark_dirty_rows(std::span<const NodeId> sources) {
  // Counts change only within w-1 hops, chains only for Byzantine nodes
  // within k-1 hops (w-1 <= k-1); the class comment gives the argument.
  bfs_queue_.clear();
  for (const NodeId s : sources) {
    if (s == graph::kInvalidNode || !alive_.test(s) || bfs_mark_[s] != 0) {
      continue;
    }
    bfs_mark_[s] = 1;
    bfs_queue_.push_back(s);
  }
  std::size_t head = 0;
  std::size_t near_end = bfs_queue_.size();  // end of the w-1 hop rows
  for (std::uint32_t depth = 1; depth < k_; ++depth) {
    const std::size_t level_end = bfs_queue_.size();
    while (head < level_end) {
      const NodeId u = bfs_queue_[head++];
      for (const NodeId w : adj_[u]) {
        if (bfs_mark_[w] != 0 || !alive_.test(w)) continue;
        bfs_mark_[w] = 1;
        bfs_queue_.push_back(w);
      }
    }
    if (depth < w_) near_end = bfs_queue_.size();
  }
  for (std::size_t i = 0; i < bfs_queue_.size(); ++i) {
    const NodeId u = bfs_queue_[i];
    bfs_mark_[u] = 0;
    if (i >= near_end && !run_byz_[u]) continue;
    if (row_marked_[u] == 0) {
      row_marked_[u] = 1;
      marked_rows_.push_back(u);
    }
  }
}

void LiveOverlayFeed::recompute_row(NodeId run_id) {
  // Bounded BFS of depth w on the live run-id adjacency: cumulative
  // |B_H(v, r)| for r = 1..w, and the usable Byzantine chain under the
  // configured model (the rewired count needs k-1 <= w hops) — the
  // live-topology equivalents of Overlay::ball_row and
  // proto::verifier_chain_len.
  bfs_queue_.clear();
  bfs_queue_.push_back(run_id);
  bfs_mark_[run_id] = 1;
  std::uint32_t cum = 1;
  std::uint32_t byz_within_k1 = 0;
  std::size_t head = 0;
  for (std::uint32_t depth = 1; depth <= w_; ++depth) {
    const std::size_t level_end = bfs_queue_.size();
    while (head < level_end) {
      const NodeId u = bfs_queue_[head++];
      for (const NodeId w : adj_[u]) {
        if (bfs_mark_[w] != 0 || !alive_.test(w)) continue;
        bfs_mark_[w] = 1;
        bfs_queue_.push_back(w);
        ++cum;
        if (depth <= k_ - 1 && run_byz_[w]) ++byz_within_k1;
      }
    }
    rows_[static_cast<std::size_t>(run_id) * w_ + (depth - 1)] = cum;
  }
  for (const NodeId u : bfs_queue_) bfs_mark_[u] = 0;

  std::uint8_t chain = 0;
  if (run_byz_[run_id]) {
    if (verification_.chain_model == proto::ChainModel::kRewired) {
      chain = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(1 + byz_within_k1, 255));
    } else {
      // Longest simple Byzantine-only path ending here, capped at k+1 —
      // iterative DFS over the live adjacency. The on-path mask is member
      // scratch: popped frames clear their entry, and a DFS stopped at the
      // cap clears what is left on the stack.
      chain_stack_.clear();
      chain_stack_.push_back({run_id});
      on_path_[run_id] = 1;
      std::uint32_t best = 1;
      const std::uint32_t cap = k_ + 1;
      while (!chain_stack_.empty() && best < cap) {
        ChainFrame& f = chain_stack_.back();
        if (f.next >= adj_[f.v].size()) {
          on_path_[f.v] = 0;
          chain_stack_.pop_back();
          continue;
        }
        const NodeId w = adj_[f.v][f.next++];
        if (!alive_.test(w) || !run_byz_[w] || on_path_[w] != 0) continue;
        on_path_[w] = 1;
        chain_stack_.push_back({w});
        best = std::max(best, static_cast<std::uint32_t>(chain_stack_.size()));
      }
      for (const ChainFrame& f : chain_stack_) on_path_[f.v] = 0;
      chain = static_cast<std::uint8_t>(std::min<std::uint32_t>(best, 255));
    }
  }
  chains_[run_id] = chain;
}

void LiveOverlayFeed::rebuild_verifier() {
  obs::Span span("dynamics.verifier_refresh");
  // Only the rows the splices since the last refresh marked can differ
  // from rows_; the rest are carried over as they are.
  std::uint64_t rows = 0;
  for (const NodeId v : marked_rows_) {
    row_marked_[v] = 0;
    if (!alive_.test(v)) continue;
    recompute_row(v);
    ++rows;
  }
  marked_rows_.clear();
  stats_.rows_recomputed += rows;
  span.arg("rows", rows);
  verifier_.emplace(k_, rows_, chains_, verification_);
  ++stats_.verifier_refreshes;
}

const proto::Verifier* LiveOverlayFeed::begin_phase(
    std::uint32_t /*phase*/, std::vector<NodeId>& admitted) {
  if (config_.policy == proto::MembershipPolicy::kReadmitNextPhase) {
    admitted.insert(admitted.end(), pending_admit_.begin(),
                    pending_admit_.end());
    stats_.admitted += pending_admit_.size();
    pending_admit_.clear();
    if (rows_dirty_) {
      rebuild_verifier();
      rows_dirty_ = false;
    }
  }
  return &*verifier_;
}

void LiveOverlayFeed::flush_remaining() {
  // The run is over: no wavefront exists for post-run departures to
  // target, so flushed leaves fall back to the ordinary victim pools.
  frontier_stable_.clear();
  while (next_event_ < schedule_.events.size()) {
    apply_event(schedule_.events[next_event_]);
    ++next_event_;
    ++stats_.events_flushed;
  }
  // Floor-deferred leaves: every join has been applied by now, so the
  // trace's end-of-epoch clamp guarantees these go through.
  const std::size_t deferred = deferred_.size();
  deferred_.clear();
  for (std::size_t i = 0; i < deferred; ++i) {
    if (!apply_leave()) {
      throw std::logic_error(
          "LiveOverlayFeed: deferred leave still blocked after flush "
          "(trace clamp violated)");
    }
  }
}

namespace {

MidRunOutcome run_midrun_tier(MutableOverlay& overlay,
                              std::vector<bool>& stable_byz,
                              adv::Strategy& strategy,
                              const proto::ProtocolConfig& cfg,
                              std::uint64_t color_seed,
                              const ChurnSchedule& schedule,
                              const MidRunConfig& config,
                              adv::ChurnAdversary adversary,
                              util::Xoshiro256& rng, bool use_engine,
                              const MidRunComposed* composed,
                              obs::RunDigester* digester) {
  LiveOverlayFeed feed(overlay, stable_byz, schedule, config,
                       cfg.verification, adversary, rng, composed, digester);
  MidRunOutcome out;
  if (use_engine) {
    if (config.backend != nullptr) {
      throw std::invalid_argument(
          "run_counting_midrun_engine: the message-level engine replays the "
          "Algorithm-2 stack only; MidRunConfig::backend must be null");
    }
    sim::Engine engine(feed.snapshot_overlay(), feed.run_byz(), strategy, cfg,
                       color_seed, &feed, digester);
    out.run = engine.run();
  } else {
    proto::RunControls controls;
    controls.midrun = &feed;
    controls.digester = digester;
    if (config.backend != nullptr) {
      out.run = config.backend->run(feed.snapshot_overlay(), feed.run_byz(),
                                    strategy, color_seed, controls);
    } else {
      out.run = proto::run_counting_with(feed.snapshot_overlay(),
                                         feed.run_byz(), strategy, cfg,
                                         color_seed, controls);
    }
  }
  feed.flush_remaining();
  // Reconcile statuses with the FLUSHED membership: events past the run's
  // termination still count for the epoch, so nodes that left during the
  // flush are kDeparted (their estimate is moot) and joiners spliced in by
  // the flush stay kUndecided members — exactly what the between-runs path
  // would report for a node that never saw this run.
  for (NodeId v = 0; v < feed.node_bound(); ++v) {
    if (!feed.departed(v)) continue;
    if (out.run.status[v] != proto::NodeStatus::kByzantine) {
      out.run.status[v] = proto::NodeStatus::kDeparted;
      out.run.estimate[v] = 0;
    }
  }
  out.run_to_stable = feed.run_to_stable();
  out.run_byz = feed.run_byz();
  out.stats = feed.stats();
  return out;
}

}  // namespace

MidRunOutcome run_counting_midrun(MutableOverlay& overlay,
                                  std::vector<bool>& stable_byz,
                                  adv::Strategy& strategy,
                                  const proto::ProtocolConfig& cfg,
                                  std::uint64_t color_seed,
                                  const ChurnSchedule& schedule,
                                  const MidRunConfig& config,
                                  adv::ChurnAdversary adversary,
                                  util::Xoshiro256& rng,
                                  const MidRunComposed* composed,
                                  obs::RunDigester* digester) {
  return run_midrun_tier(overlay, stable_byz, strategy, cfg, color_seed,
                         schedule, config, adversary, rng,
                         /*use_engine=*/false, composed, digester);
}

MidRunOutcome run_counting_midrun_engine(MutableOverlay& overlay,
                                         std::vector<bool>& stable_byz,
                                         adv::Strategy& strategy,
                                         const proto::ProtocolConfig& cfg,
                                         std::uint64_t color_seed,
                                         const ChurnSchedule& schedule,
                                         const MidRunConfig& config,
                                         adv::ChurnAdversary adversary,
                                         util::Xoshiro256& rng,
                                         const MidRunComposed* composed,
                                         obs::RunDigester* digester) {
  return run_midrun_tier(overlay, stable_byz, strategy, cfg, color_seed,
                         schedule, config, adversary, rng,
                         /*use_engine=*/true, composed, digester);
}

std::string midrun_repro_flags(adv::StrategyKind strategy,
                               const MidRunConfig& config,
                               const ChurnSchedule& schedule) {
  return "strategy=" + std::string(adv::to_string(strategy)) +
         " policy=" + proto::to_string(config.policy) +
         " schedule=" + adv::to_string(config.schedule_strategy) +
         " events=" + std::to_string(schedule.events.size());
}

MidRunTierComparison compare_midrun_tiers(const MutableOverlay& overlay,
                                          const std::vector<bool>& stable_byz,
                                          adv::StrategyKind strategy,
                                          const proto::ProtocolConfig& cfg,
                                          std::uint64_t color_seed,
                                          const ChurnSchedule& schedule,
                                          const MidRunConfig& config,
                                          adv::ChurnAdversary adversary,
                                          const util::Xoshiro256& rng,
                                          const obs::AuditConfig& audit) {
  MidRunTierComparison cmp;
  obs::AuditConfig named = audit;
  const std::string flags = midrun_repro_flags(strategy, config, schedule);
  named.flags = audit.flags.empty() ? flags : audit.flags + " " + flags;
  obs::OracleAudit oracle(named);
  {
    MutableOverlay fast_overlay = overlay;
    std::vector<bool> fast_byz = stable_byz;
    util::Xoshiro256 fast_rng = rng;
    auto fast_strategy = adv::make_strategy(strategy);
    cmp.fastpath = run_counting_midrun(
        fast_overlay, fast_byz, *fast_strategy, cfg, color_seed, schedule,
        config, adversary, fast_rng, nullptr, &oracle.a());
  }
  {
    MutableOverlay engine_overlay = overlay;
    std::vector<bool> engine_byz = stable_byz;
    util::Xoshiro256 engine_rng = rng;
    auto engine_strategy = adv::make_strategy(strategy);
    cmp.engine = run_counting_midrun_engine(
        engine_overlay, engine_byz, *engine_strategy, cfg, color_seed,
        schedule, config, adversary, engine_rng, nullptr, &oracle.b());
  }
  cmp.identical = cmp.fastpath == cmp.engine;
  cmp.verdict = oracle.judge(
      cmp.identical, audit.scenario.empty() ? "midrun" : audit.scenario);
  return cmp;
}

}  // namespace byz::dynamics

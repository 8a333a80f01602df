#include "protocols/brc/brc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "protocols/color.hpp"
#include "sim/world.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace byz::proto {

namespace {

using graph::NodeId;

/// Commitment-table stream tag: BRC draws from a DIFFERENT slice of the
/// coin table than Algorithm 2 on the same color_seed, so a cross-backend
/// comparison at one seed runs two statistically independent experiments —
/// their agreement (E32) is evidence, not shared randomness.
constexpr std::uint64_t kBrcSeedStream = 0xB5C0;

/// Committed color of node v for global repetition index `rep_idx`, with
/// `node_seed` = node_color_seed(brc_seed, v).
Color committed_color(std::uint64_t node_seed,
                      std::uint32_t rep_idx) noexcept {
  return color_at_node(node_seed, rep_idx);
}

std::uint32_t force_odd(std::uint32_t reps) {
  return reps % 2 == 0 ? reps + 1 : reps;
}

}  // namespace

std::uint32_t resolve_brc_max_batches(const graph::Overlay& overlay,
                                      const BrcConfig& cfg) {
  if (cfg.max_batches != 0) return cfg.max_batches;
  // Depth 2^m must cover the overlay's diameter estimate
  // ceil(log2 n / log2(d-1)) + 2 before the medians can saturate; three
  // further doublings absorb suppression-thinned routing and the
  // stabilization confirmation batch.
  const double n = overlay.num_nodes();
  const double d = overlay.params().d;
  const double diam =
      std::ceil(std::log2(std::max(2.0, n)) / std::log2(std::max(2.0, d - 1.0))) +
      2.0;
  const auto cover =
      static_cast<std::uint32_t>(std::ceil(std::log2(std::max(2.0, diam))));
  return cover + 3;
}

RunResult run_brc_counting(const graph::Overlay& overlay,
                           const std::vector<bool>& byz_mask,
                           adv::Strategy& strategy, const BrcConfig& cfg,
                           std::uint64_t color_seed,
                           const RunControls& controls) {
  const NodeId n = overlay.num_nodes();
  MidRunHooks* const midrun = controls.midrun;
  const NodeId nb = midrun ? midrun->node_bound() : n;
  if (nb < n || byz_mask.size() != nb) {
    throw std::invalid_argument("run_brc_counting: mask size mismatch");
  }

  obs::Span run_span("count.run");
  run_span.arg("n", n).arg("backend", "brc");

  RunResult result;
  result.status.assign(nb, NodeStatus::kUndecided);
  result.estimate.assign(nb, 0);

  const sim::World world = sim::World::make(overlay, byz_mask, color_seed);
  for (const NodeId b : world.byz_nodes) {
    result.status[b] = NodeStatus::kByzantine;
  }
  for (NodeId v = n; v < nb; ++v) {
    if (byz_mask[v]) result.status[v] = NodeStatus::kByzantine;
  }

  // No adjacency exchange, no crash rule: commitment recomputation replaces
  // witness interrogation, so there is no setup stage an adversary can lie
  // through and honest nodes are never kCrashed.
  const std::vector<bool> crashed(nb, false);

  // The kernel still wants a Verifier; BRC's is permissive (enabled=false —
  // zero interrogation traffic) because the commitment filter below runs
  // BEFORE injection delivery. It views the overlay's ball counts, which
  // the phase digest reads exactly as Algorithm 2's. Under mid-run churn
  // begin_phase owns it (the caller must hand the feed a
  // disabled-verification config).
  const Verifier* verifier = nullptr;
  std::optional<Verifier> owned_verifier;
  if (midrun == nullptr) {
    VerificationConfig vcfg;
    vcfg.enabled = false;
    owned_verifier.emplace(overlay, byz_mask, vcfg);
    verifier = &*owned_verifier;
  }

  const std::uint64_t brc_seed = util::mix_seed(color_seed, kBrcSeedStream);
  const std::uint32_t reps = force_odd(std::max(3u, cfg.reps_per_batch));
  const std::uint32_t max_batches = resolve_brc_max_batches(overlay, cfg);
  // Byzantine nodes participate with their committed colors unless the
  // strategy withholds (kSuppress); a fake-color strategy still relays, and
  // its forged injections are dropped by the commitment filter.
  const bool byz_participates =
      strategy.forwards_floods() || strategy.generates_honestly();

  std::vector<bool> active(nb, false);
  std::uint64_t active_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!byz_mask[v]) {
      active[v] = true;
      ++active_count;
    }
  }
  std::vector<std::uint8_t> participates;
  std::vector<NodeId> admitted;
  if (midrun != nullptr) {
    participates.assign(nb, 0);
    std::fill(participates.begin(), participates.begin() + n, 1);
  }

  FloodWorkspace ws;
  std::vector<Injection> planned;
  std::vector<Injection> conformant;
  std::vector<std::uint32_t> lane_begin;
  std::vector<Color> med(nb, 0);
  std::vector<Color> prev_med(nb, 0);
  std::vector<std::uint8_t> prev_valid(nb, 0);
  std::vector<Color> row(reps);
  std::uint64_t global_round = 0;
  // A static run floods up to kMaxFloodLanes repetitions of a batch in one
  // kernel call; a live run floods one at a time, since its membership
  // changes between the rounds of successive repetitions.
  const std::uint32_t pass_cap = midrun == nullptr ? kMaxFloodLanes : 1;
  // Per node, the batch's repetition maxima. A batch that fits one pass
  // (the default 15 repetitions of a static run) leaves them in the flood
  // workspace's lane rows; otherwise they are collected here, pass by pass.
  const bool one_pass = reps <= pass_cap;
  std::vector<Color> rep_max(
      one_pass ? 0 : static_cast<std::size_t>(nb) * reps, 0);

  obs::RunDigester* const dg = controls.digester;
  std::uint32_t batch = 0;
  while (batch < max_batches && active_count > 0) {
    ++batch;
    const std::uint32_t depth = 1u << batch;  // T_m = 2^m
    obs::Span batch_span("count.phase");
    batch_span.arg("phase", batch).arg("depth", depth).arg("active_in",
                                                           active_count);
    if (midrun != nullptr) {
      verifier = admit_at_phase_boundary(*midrun, batch, byz_mask, crashed,
                                         result.status, participates, active,
                                         active_count, admitted);
    }
    if (dg != nullptr) {
      dg->begin_phase(batch);
      dg->note(obs::FlightEventKind::kPhaseBegin, active_count,
               admitted.size());
      digest_phase_state(*dg, *verifier, result.status, result.estimate, nb);
    }
    result.subphases_scheduled += reps;

    for (std::uint32_t first = 1; first <= reps; first += pass_cap) {
      // Lane l floods repetition rep = first + l, coin index s.
      const std::uint32_t lanes = std::min(pass_cap, reps - first + 1);
      const std::uint32_t s0 = (batch - 1) * reps + (first - 1);

      // Every member floods its committed color every repetition — decided
      // nodes keep generating (they are still members; stragglers and
      // mid-run joiners need the full color mass to land in band). The
      // colors are drawn straight into the lane rows.
      ws.ensure(nb, lanes, /*step_maxima=*/false);
      std::array<Color, kMaxFloodLanes> member_max{};
      for (NodeId v = 0; v < nb; ++v) {
        const bool member =
            (midrun == nullptr || participates[v] != 0) &&
            result.status[v] != NodeStatus::kDeparted &&
            result.status[v] != NodeStatus::kCrashed;
        if (!member) continue;
        const bool floods = !byz_mask[v] || byz_participates;
        const std::uint64_t node_seed = node_color_seed(brc_seed, v);
        Color* lane_row = ws.known.data() + ws.at(v, 0);
        for (std::uint32_t l = 0; l < lanes; ++l) {
          const Color c = committed_color(node_seed, s0 + l);
          // The commitment of EVERY member (including a withholding
          // Byzantine node) caps what an adversary can claim: colluders
          // may reveal a withheld commitment, but cannot exceed the member
          // maximum.
          member_max[l] = std::max(member_max[l], c);
          if (floods) lane_row[l] = c;
        }
      }

      // Commitment filter: an injected value is deliverable only if some
      // certified member's committed color reaches it — anything larger
      // matches no commitment and is dropped at the first honest hop.
      // Inflation past the true member maximum is impossible by
      // construction; what passes the filter only pushes receivers TOWARD
      // the global maximum they must converge to anyway. A plan depends
      // only on the World and the repetition, so the pass's plans are
      // drawn before its flood.
      conformant.clear();
      lane_begin.assign(1, 0);
      for (std::uint32_t l = 0; l < lanes; ++l) {
        planned.clear();
        strategy.plan_subphase(world, {depth, first + l, s0 + l}, planned);
        for (const Injection& inj : planned) {
          if (inj.value <= member_max[l]) {
            conformant.push_back(inj);
          } else {
            ++result.instr.injections_attempted;
            ++result.instr.injections_caught;
          }
        }
        lane_begin.push_back(static_cast<std::uint32_t>(conformant.size()));
      }

      FloodParams params;
      params.steps = depth;
      params.byz_forward = strategy.forwards_floods();
      if (midrun != nullptr) {
        params.live = midrun;
        params.clock = {batch, first, 1, global_round};
      }
      if (dg != nullptr) {
        // One lane closes its rounds into the open subphase as they end.
        if (lanes == 1) dg->begin_subphase(first);
        params.digest = dg;
      }
      run_flood_lanes(overlay, byz_mask, crashed, *verifier, params,
                      conformant, lane_begin, ws, result.instr);
      global_round += std::uint64_t{depth} * lanes;
      result.subphases_executed += lanes;

      // Each repetition's bookkeeping, in repetition order.
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::uint32_t rep = first + l;
        obs::Span sub_span("count.subphase");
        sub_span.arg("phase", batch).arg("j", rep);
        if (!one_pass) {
          for (NodeId v = 0; v < nb; ++v) {
            rep_max[static_cast<std::size_t>(v) * reps + (rep - 1)] =
                ws.known[ws.at(v, l)];
          }
        }
        if (dg != nullptr) {
          if (lanes > 1) {
            dg->begin_subphase(rep);
            replay_lane_rounds(ws, l, *dg);
          }
          for (NodeId v = 0; v < nb; ++v) {
            dg->fold_subphase(
                obs::digest_state_term(v, ws.known[ws.at(v, l)]));
          }
          dg->close_subphase();
        }
      }
    }

    // Mid-run churn: reconcile departures before the decide sweep reads
    // this batch's medians.
    if (midrun != nullptr) {
      sweep_departed(*midrun, active, active_count, result, dg);
    }

    // Per-node batch median, then the saturation test: the median is exact
    // (odd rep count), so "stopped growing" is an integer comparison and
    // the whole run is deterministic bit for bit.
    std::uint64_t decided_now = 0;
    for (NodeId v = 0; v < nb; ++v) {
      if (!active[v]) continue;
      const Color* vals =
          one_pass ? ws.known.data() + ws.at(v, 0)
                   : rep_max.data() + static_cast<std::size_t>(v) * reps;
      std::copy(vals, vals + reps, row.begin());
      std::nth_element(row.begin(), row.begin() + reps / 2, row.end());
      med[v] = row[reps / 2];
      const bool stable =
          batch >= cfg.min_decide_batch && prev_valid[v] != 0 &&
          (med[v] >= prev_med[v] ? med[v] - prev_med[v]
                                 : prev_med[v] - med[v]) <= cfg.stability_slack;
      if (stable) {
        active[v] = false;
        --active_count;
        result.status[v] = NodeStatus::kDecided;
        result.estimate[v] = med[v];
        ++decided_now;
        if (dg != nullptr) dg->fold_phase(obs::digest_state_term(v, med[v]));
      } else {
        prev_med[v] = med[v];
        prev_valid[v] = 1;
      }
    }
    if (dg != nullptr) {
      dg->fold_phase(obs::mix2(decided_now, active_count));
      dg->close_phase();
    }
    BYZ_TRACE << "brc batch " << batch << " (depth " << depth << "): " << reps
              << " repetitions, " << decided_now << " nodes decided, "
              << active_count << " still active";
    batch_span.arg("decided", decided_now).arg("active_out", active_count);
  }
  result.phases_executed = batch;
  result.flood_rounds = result.instr.flood_rounds;
  if (dg != nullptr) {
    fold_run_outcome(*dg, result, nb);
  }
  run_span.arg("batches", batch).arg("rounds", result.instr.flood_rounds);
  return result;
}

namespace {

class BrcEstimator final : public Estimator {
 public:
  explicit BrcEstimator(BrcConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] std::string_view name() const override { return "brc"; }

  [[nodiscard]] EstimatorBound bound(
      const graph::Overlay& overlay) const override {
    // The decided median sits at the maximum of ~n geometric colors,
    // median log2 n + log2 e·ln 2 ≈ log2 n + 1.5, so the est/log2 n ratio
    // concentrates at 1 + Θ(1/log n): the additive Gumbel fluctuation and
    // the pre-coverage saturation slack shrink RELATIVE to log n as n
    // grows. Suppression only thins the maximum by O(|Byz|/n). The ε
    // outlier budget covers the information-starved tail: at d=4 a
    // Byzantine cut can shrink a node's effective ball enough that its
    // medians stabilize early on a small-ball maximum (measured worst case
    // ~3.3% of honest nodes at n=32768, d=4 under suppression — ε=0.08
    // keeps better than 2x margin), plus phase-cap stragglers and mid-run
    // joiners.
    const double log_n =
        std::log2(std::max(4.0, static_cast<double>(overlay.num_nodes())));
    EstimatorBound b;
    b.lo = std::max(0.50, 1.0 - 3.0 / log_n);
    b.hi = std::min(2.20, 1.0 + 4.5 / log_n);
    b.eps = 0.08;
    return b;
  }

  [[nodiscard]] RunResult run(const graph::Overlay& overlay,
                              const std::vector<bool>& byz_mask,
                              adv::Strategy& strategy,
                              std::uint64_t color_seed,
                              const RunControls& controls) const override {
    return run_brc_counting(overlay, byz_mask, strategy, cfg_, color_seed,
                            controls);
  }

 private:
  BrcConfig cfg_;
};

}  // namespace

std::unique_ptr<Estimator> make_brc_estimator(const ProtocolConfig& cfg) {
  BrcConfig brc;
  brc.max_batches = cfg.max_phase;  // 0 = auto, same convention
  return std::make_unique<BrcEstimator>(brc);
}

}  // namespace byz::proto

#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/trace.hpp"
#include "protocols/color.hpp"
#include "protocols/neighborhood.hpp"
#include "protocols/schedule.hpp"
#include "sim/world.hpp"

namespace byz::sim {

using graph::NodeId;
using proto::Color;

Engine::Engine(const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
               adv::Strategy& strategy, const proto::ProtocolConfig& cfg,
               std::uint64_t color_seed, proto::MidRunHooks* midrun,
               obs::RunDigester* digester)
    : overlay_(overlay),
      byz_(byz_mask),
      strategy_(strategy),
      cfg_(cfg),
      color_seed_(color_seed),
      midrun_(midrun),
      digester_(digester),
      nb_(midrun ? midrun->node_bound() : overlay.num_nodes()),
      world_(World::make(overlay, byz_mask, color_seed)) {
  if (nb_ < overlay.num_nodes() || byz_mask.size() != nb_) {
    throw std::invalid_argument("Engine: mask size mismatch");
  }
  if (midrun_ == nullptr) {
    owned_verifier_.emplace(overlay, byz_mask, cfg.verification);
    verifier_ = &*owned_verifier_;
  }
  nodes_.resize(nb_);
  inbox_.resize(nb_);
}

proto::RunResult Engine::run() {
  obs::Span run_span("engine.run");
  const NodeId n = overlay_.num_nodes();
  const std::uint32_t d = overlay_.params().d;
  run_span.arg("n", n);
  result_ = proto::RunResult{};
  result_.status.assign(nb_, proto::NodeStatus::kUndecided);
  result_.estimate.assign(nb_, 0);
  for (NodeId v = 0; v < nb_; ++v) {
    // Scheduled sybil joiners (ids past the snapshot) are Byzantine from
    // the start for bookkeeping, exactly as in the fast path.
    if (byz_[v]) result_.status[v] = proto::NodeStatus::kByzantine;
  }

  // --- Setup (Algorithm 2 lines 1-2): claims, conflicts, crashes. ---
  // Mid-run joiners skip setup: they were not present for the adjacency
  // exchange, so the claims and the crash rule span the snapshot only.
  proto::ClaimSet claims(overlay_);
  strategy_.setup_lies(world_, claims);
  if (cfg_.crash_rule) {
    // Reference path: run the full pairwise conflict detection per node
    // (the fast path uses the byz-pair shortcut; agreement is a test).
    const auto& g = overlay_.g();
    for (NodeId u = 0; u < n; ++u) {
      const auto len = claims.claimed(u, g).size();
      for (std::uint32_t e = 0; e < g.degree(u); ++e) {
        result_.instr.count_setup_list(len);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (byz_[v]) continue;
      if (proto::detects_conflict(claims, v)) {
        nodes_[v].crashed = true;
        result_.status[v] = proto::NodeStatus::kCrashed;
        ++result_.instr.crashes;
      }
    }
  }

  const std::uint32_t max_phase = proto::resolve_max_phase(overlay_, cfg_);
  active_.assign(nb_, 0);
  active_count_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!byz_[v] && !nodes_[v].crashed) {
      active_[v] = 1;
      ++active_count_;
    }
  }
  participates_.assign(nb_, 0);
  std::fill(participates_.begin(), participates_.begin() + n, 1);
  global_round_ = 0;
  std::vector<NodeId> admitted;

  std::uint32_t phase = 0;
  while (phase < max_phase && active_count_ > 0) {
    ++phase;
    obs::Span phase_span("engine.phase");
    phase_span.arg("phase", phase).arg("active_in", active_count_);
    if (midrun_ != nullptr) {
      // Phase boundary: the membership policy admits pending joiners (they
      // start generating this phase) and hands back the Verifier the
      // phase's floods must use (refreshed under kReadmitNextPhase).
      admitted.clear();
      verifier_ = midrun_->begin_phase(phase, admitted);
      for (const NodeId a : admitted) {
        if (a >= nb_ || participates_[a] != 0) continue;
        participates_[a] = 1;
        if (!byz_[a] && !nodes_[a].crashed &&
            result_.status[a] == proto::NodeStatus::kUndecided) {
          active_[a] = 1;
          ++active_count_;
        }
      }
    }
    if (digester_ != nullptr) {
      digester_->begin_phase(phase);
      digester_->note(obs::FlightEventKind::kPhaseBegin, active_count_,
                      admitted.size());
      proto::digest_phase_state(*digester_, *verifier_, result_.status,
                                result_.estimate, nb_);
    }
    for (auto& m : nodes_) m.fired_this_phase = false;
    const std::uint32_t subphases =
        proto::subphases_in_phase(phase, d, cfg_.schedule);
    result_.subphases_scheduled += subphases;
    for (std::uint32_t j = 1; j <= subphases; ++j) {
      run_subphase(phase, j,
                   proto::global_subphase_index(phase, j, d, cfg_.schedule));
    }

    // Mid-run churn: nodes that left the overlay during this phase are no
    // longer members — they take no estimate and leave the active set
    // before the decide sweep reads the fired flags.
    if (midrun_ != nullptr) {
      for (NodeId v = 0; v < nb_; ++v) {
        if (result_.status[v] == proto::NodeStatus::kDeparted ||
            !midrun_->departed(v)) {
          continue;
        }
        if (active_[v] != 0) {
          active_[v] = 0;
          --active_count_;
        }
        if (result_.status[v] != proto::NodeStatus::kByzantine) {
          result_.status[v] = proto::NodeStatus::kDeparted;
          result_.estimate[v] = 0;
          if (digester_ != nullptr) {
            digester_->fold_phase(obs::digest_state_term(v, 0xDE9));
          }
        }
      }
    }

    std::uint64_t decided_now = 0;
    for (NodeId v = 0; v < nb_; ++v) {
      if (active_[v] == 0 || nodes_[v].fired_this_phase) continue;
      active_[v] = 0;
      --active_count_;
      result_.status[v] = proto::NodeStatus::kDecided;
      result_.estimate[v] = phase;
      ++decided_now;
      if (digester_ != nullptr) {
        digester_->fold_phase(obs::digest_state_term(v, phase));
      }
    }
    if (digester_ != nullptr) {
      digester_->fold_phase(obs::mix2(decided_now, active_count_));
      digester_->close_phase();
    }
    phase_span.arg("active_out", active_count_);
  }
  result_.phases_executed = phase;
  result_.flood_rounds = result_.instr.flood_rounds;
  if (digester_ != nullptr) {
    for (NodeId v = 0; v < nb_; ++v) {
      digester_->fold_run(obs::digest_state_term(
          v, (static_cast<std::uint64_t>(result_.status[v]) << 32) |
                 result_.estimate[v]));
    }
    digester_->close_run();
  }
  run_span.arg("phases", phase).arg("rounds", result_.instr.flood_rounds);
  return result_;
}

void Engine::run_subphase(std::uint32_t phase, std::uint32_t j,
                          std::uint32_t s) {
  const auto& h = overlay_.h_simple();
  const bool byz_gen = strategy_.generates_honestly();
  const bool byz_fwd = strategy_.forwards_floods();
  const double threshold = proto::continue_threshold(phase, overlay_.params().d);

  // Draw colors: admitted active nodes generate; Byzantine machines track
  // the counterfactual honest draw when the strategy mimics the protocol.
  for (NodeId v = 0; v < nb_; ++v) {
    auto& m = nodes_[v];
    Color own = 0;
    const bool generates = (active_[v] != 0 || (byz_[v] && byz_gen)) &&
                           (midrun_ == nullptr || participates_[v] != 0);
    if (generates) own = proto::color_at(color_seed_, v, s);
    m.begin_subphase(own);
  }

  std::vector<proto::Injection> injections;
  strategy_.plan_subphase(world_, {phase, j, s}, injections);

  obs::Span sub_span("engine.subphase");
  sub_span.arg("phase", phase).arg("j", j);
  if (digester_ != nullptr) digester_->begin_subphase(j);
  std::vector<Color> recv(nb_, 0);
  for (std::uint32_t t = 1; t <= phase; ++t) {
    obs::Span round_span("engine.round");
    round_span.arg("step", t);
    // Mid-run churn: hand the hooks the canonical wavefront and let them
    // apply this round's events BEFORE the sends — so a node departing at
    // round r never sends at r and a joiner entering at r can receive at
    // r. The sender predicate below and the kernel's frontier derivation
    // are the same set, keeping both tiers bitwise equivalent.
    if (midrun_ != nullptr) {
      frontier_scratch_.clear();
      if (midrun_->wants_frontier()) {
        for (NodeId u = 0; u < nb_; ++u) {
          const auto& m = nodes_[u];
          if (m.crashed) continue;
          if (byz_[u] && !byz_fwd) continue;
          if (!midrun_->alive(u)) continue;
          const bool sends = (t == 1) ? (m.own > 0) : (m.fresh_step == t - 1);
          if (sends) frontier_scratch_.push_back(u);
        }
      }
      proto::RoundClock clock{phase, j, t, global_round_ + (t - 1)};
      midrun_->begin_round(clock, frontier_scratch_);
    }
    std::uint64_t sent_this_round = 0;

    // 1. Sends, based on state at the start of the step (forward-once).
    for (NodeId u = 0; u < nb_; ++u) {
      const auto& m = nodes_[u];
      if (m.crashed) continue;
      if (byz_[u] && !byz_fwd) continue;
      if (!present(u)) continue;
      const bool sends = (t == 1) ? (m.own > 0) : (m.fresh_step == t - 1);
      if (!sends) continue;
      // Same tagged term the kernel folds for its frontier senders; the
      // sender sets and relayed maxima agree bitwise (E26).
      if (digester_ != nullptr) {
        digester_->fold_round(obs::digest_sender_term(u, m.known));
      }
      const auto nbrs =
          midrun_ != nullptr ? midrun_->neighbors(u) : h.neighbors(u);
      result_.instr.count_token(nbrs.size());
      result_.instr.max_node_round_sends = std::max<std::uint64_t>(
          result_.instr.max_node_round_sends, nbrs.size());
      sent_this_round += nbrs.size();
      for (const NodeId v : nbrs) inbox_[v].push_back({u, m.known});
    }
    for (const auto& inj : injections) {
      if (inj.step != t || nodes_[inj.from].crashed) continue;
      if (!present(inj.from)) continue;
      const auto nbrs = midrun_ != nullptr ? midrun_->neighbors(inj.from)
                                           : h.neighbors(inj.from);
      result_.instr.count_token(nbrs.size());
      result_.instr.max_node_round_sends = std::max<std::uint64_t>(
          result_.instr.max_node_round_sends, nbrs.size());
      sent_this_round += nbrs.size();
      for (const NodeId v : nbrs) inbox_[v].push_back({inj.from, inj.value});
    }

    // 2. Delivery: each node drains its inbox; honest nodes verify every
    // token (sender state is still pre-close, so legit_fresh is exact).
    for (NodeId v = 0; v < nb_; ++v) {
      if (inbox_[v].empty()) continue;
      auto& m = nodes_[v];
      if (m.crashed || !present(v)) {
        inbox_[v].clear();
        continue;
      }
      for (const Token& tok : inbox_[v]) {
        if (!byz_[v]) {
          const auto& sm = nodes_[tok.from];
          const Color legit =
              (t == 1) ? sm.own : ((sm.fresh_step == t - 1) ? sm.known : 0);
          if (!verifier_->accept(tok.from, tok.color, t, legit, byz_[tok.from],
                                 result_.instr)) {
            continue;
          }
        }
        recv[v] = std::max(recv[v], tok.color);
      }
      inbox_[v].clear();
    }

    // 3. Close the step.
    for (NodeId v = 0; v < nb_; ++v) {
      if (recv[v] == 0) continue;
      // Ascending ids here, insertion order in the kernel: the XOR fold is
      // commutative, so the round digests still match.
      if (digester_ != nullptr) {
        digester_->fold_round(obs::digest_receiver_term(v, recv[v]));
      }
      auto& m = nodes_[v];
      if (t < phase) {
        m.best_before = std::max(m.best_before, recv[v]);
      } else {
        m.last_step = recv[v];
      }
      if (recv[v] > m.known) {
        m.known = recv[v];
        m.fresh_step = t;
      }
      recv[v] = 0;
    }
    if (digester_ != nullptr) digester_->close_round(sent_this_round);
    round_messages_.push_back(sent_this_round);
    round_span.arg("tokens", sent_this_round);
  }
  result_.instr.flood_rounds += phase;
  global_round_ += phase;
  ++result_.subphases_executed;

  // Line 18: evaluate the continuation predicate.
  for (NodeId v = 0; v < nb_; ++v) {
    auto& m = nodes_[v];
    if (active_[v] == 0 || m.fired_this_phase) continue;
    if (m.last_step > m.best_before &&
        static_cast<double>(m.last_step) > threshold) {
      m.fired_this_phase = true;
    }
  }
  if (digester_ != nullptr) {
    for (NodeId v = 0; v < nb_; ++v) {
      if (nodes_[v].fired_this_phase) {
        digester_->fold_subphase(obs::digest_state_term(v, 1));
      }
    }
    digester_->close_subphase();
  }
}

}  // namespace byz::sim

#include "protocols/flooding.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/trace.hpp"

namespace byz::proto {

using graph::NodeId;

namespace {

/// Row stride for `lanes` lanes: 1, or a whole number of 128-bit vectors.
std::uint32_t lane_stride(std::uint32_t lanes) {
  if (lanes <= 1) return 1;
  if (lanes <= 4) return 4;
  return lanes <= 8 ? 8 : 16;
}

}  // namespace

void FloodWorkspace::ensure(NodeId n, std::uint32_t lanes,
                            bool step_maxima) {
  if (lanes == 0 || lanes > kMaxFloodLanes) {
    throw std::invalid_argument("FloodWorkspace: lanes must lie in [1, 16]");
  }
  lanes_ = lanes;
  stride_ = lane_stride(lanes);
  step_maxima_ = step_maxima;
  const std::size_t cells = static_cast<std::size_t>(n) * stride_;
  known.assign(cells, 0);
  best_before.assign(step_maxima ? cells : 0, 0);
  last_step.assign(step_maxima ? cells : 0, 0);
  recv.assign(cells, 0);
  if (lanes == 1) {
    fresh.assign(n, 0);
  } else {
    fresh.clear();
  }
  live_frontier.clear();
}

namespace {

// ---------------------------------------------------------------------------
// Scalar reference — the oracle. This body is the original scalar
// implementation, kept verbatim apart from owning its frontier vectors; the
// kernel below must stay bitwise-equivalent to it
// (tests/protocols/flood_parallel_test.cpp, E30).
// ---------------------------------------------------------------------------

void run_subphase_reference(const graph::Overlay& overlay,
                            const std::vector<bool>& byz_mask,
                            const std::vector<bool>& crashed,
                            const Verifier& verifier,
                            const FloodParams& params,
                            std::span<const Color> gen_color,
                            std::span<const Injection> injections,
                            FloodWorkspace& ws, sim::Instrumentation& instr) {
  const MidRunHooks* live = params.live;
  const NodeId n = live ? live->node_bound() : overlay.num_nodes();
  const auto& h = overlay.h_simple();
  const auto present = [&](NodeId v) {
    return live == nullptr || live->alive(v);
  };
  std::vector<NodeId> frontier;
  std::vector<NodeId> next_frontier;
  std::vector<NodeId> touched;

  // Step 1 senders: every generating node broadcasts its own color.
  // (Mid-run joiners have gen_color 0 until a phase boundary admits them,
  // so they can never enter the frontier before being alive.)
  for (NodeId v = 0; v < n; ++v) {
    ws.known[v] = gen_color[v];
    if (gen_color[v] > 0 && !crashed[v]) frontier.push_back(v);
  }

  // Injections grouped by step (inputs are few; linear scan per step).
  for (std::uint32_t t = 1; t <= params.steps; ++t) {
    obs::Span round_span("flood.round");
    round_span.arg("step", t).arg("frontier", frontier.size());
    const std::uint64_t round_tokens_before = instr.token_messages;
    // Mid-run churn: apply the events scheduled for this round BEFORE its
    // sends, so a node departing at round r never sends at r and a joiner
    // entering at r can receive at r. The hooks also get the canonical
    // wavefront — the sorted set of protocol-conformant senders as of the
    // previous round's membership — so an adaptive churn adversary can
    // target the flood frontier; the message-level engine derives the
    // identical set, keeping the two tiers bitwise equivalent.
    if (live != nullptr) {
      ws.live_frontier.clear();
      if (live->wants_frontier()) {
        for (const NodeId u : frontier) {
          if (crashed[u]) continue;
          if (byz_mask[u] && !params.byz_forward) continue;
          if (!live->alive(u)) continue;
          ws.live_frontier.push_back(u);
        }
        std::sort(ws.live_frontier.begin(), ws.live_frontier.end());
      }
      RoundClock clock = params.clock;
      clock.step = t;
      clock.round = params.clock.round + (t - 1);
      params.live->begin_round(clock, ws.live_frontier);
    }
    touched.clear();
    auto deliver = [&](NodeId receiver, NodeId sender, Color c, bool verify) {
      if (crashed[receiver] || !present(receiver)) return;
      if (byz_mask[receiver]) {
        // Byzantine receivers absorb knowledge without verification; their
        // counterfactual-honest state is tracked for legit-fresh checks.
        if (ws.recv[receiver] < c) {
          if (ws.recv[receiver] == 0) touched.push_back(receiver);
          ws.recv[receiver] = c;
        }
        return;
      }
      if (verify) {
        // legit_fresh for the sender: the value an honest node in its
        // position would forward this step.
        const Color legit =
            (t == 1) ? gen_color[sender]
                     : ((ws.fresh[sender] == t - 1) ? ws.known[sender] : 0);
        if (!verifier.accept(sender, c, t, legit, byz_mask[sender], instr)) {
          return;
        }
      }
      if (ws.recv[receiver] < c) {
        if (ws.recv[receiver] == 0) touched.push_back(receiver);
        ws.recv[receiver] = c;
      } else if (ws.recv[receiver] == 0) {
        // c could be 0 only from a degenerate injection; ignore.
      }
    };

    // Protocol-conformant sends from the frontier. A frontier member that
    // departed since it was enqueued is silently dropped — its messages
    // die with it.
    for (const NodeId u : frontier) {
      if (byz_mask[u] && !params.byz_forward) continue;
      if (!present(u)) continue;
      const auto nbrs = live ? live->neighbors(u) : h.neighbors(u);
      instr.count_token(nbrs.size());
      instr.max_node_round_sends =
          std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
      const Color c = ws.known[u];
      if (params.digest != nullptr) {
        params.digest->fold_round(obs::digest_sender_term(u, c));
      }
      for (const NodeId v : nbrs) deliver(v, u, c, /*verify=*/true);
    }
    // Byzantine injections scheduled for this step.
    for (const auto& inj : injections) {
      if (inj.step != t || crashed[inj.from]) continue;
      if (!present(inj.from)) continue;
      const auto nbrs =
          live ? live->neighbors(inj.from) : h.neighbors(inj.from);
      instr.count_token(nbrs.size());
      instr.max_node_round_sends =
          std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
      for (const NodeId v : nbrs) deliver(v, inj.from, inj.value, /*verify=*/true);
    }

    // Close the step: fold receive maxima into k_t bookkeeping and build
    // the next frontier from improvements.
    next_frontier.clear();
    for (const NodeId v : touched) {
      const Color r = ws.recv[v];
      ws.recv[v] = 0;
      // The commutative XOR fold makes the digest independent of touched-
      // list order; the engine folds the same (receiver, max) set walking
      // node ids ascending.
      if (params.digest != nullptr) {
        params.digest->fold_round(obs::digest_receiver_term(v, r));
      }
      if (t < params.steps) {
        ws.best_before[v] = std::max(ws.best_before[v], r);
      } else {
        ws.last_step[v] = r;
      }
      if (r > ws.known[v]) {
        ws.known[v] = r;
        ws.fresh[v] = t;
        if (!crashed[v]) next_frontier.push_back(v);
      }
    }
    frontier.swap(next_frontier);
    if (params.digest != nullptr) {
      params.digest->close_round(instr.token_messages - round_tokens_before);
    }
    round_span.arg("tokens", instr.token_messages - round_tokens_before);
  }
}

// ---------------------------------------------------------------------------
// The kernel: word-packed sets, rounds swept word by word, ws.lanes()
// subphases side by side. Each lane is bitwise-equivalent to one call of
// the scalar reference, by construction:
//   * lanes share nothing but the union sets the sweeps walk. A frontier
//     node's lane mask says which lanes it sends in; the sender sweep
//     masks its known row down to those lanes and folds the result into
//     each live receiver's recv row with a lane-wise max, which is the
//     per-lane fold since 0 is below every color. The receiver tests
//     (crashed, alive, Byzantine) depend on no lane. Lane l's injections
//     fold into lane l only. The close sweep treats each lane of a
//     touched node alone: a lane was touched iff its recv value is
//     nonzero, so untouched lanes fold max(.., 0) and leave the rows as
//     they were;
//   * conformant frontier sends always satisfy c == legit_fresh (step 1:
//     c = known = the generated color; later steps: frontier membership
//     in a lane means known grew there in the previous step, so legit =
//     known = c) and c > 0 (step 1 sends only positive generated colors;
//     later a node joins a lane's frontier only when that lane's max
//     strictly grew). On that path accept() always returns true and only
//     adds |B_H(u, min(t, k-1))| round trips per honest receiver, so the
//     sweep calls no accept(): it counts each sender's honest receivers
//     once and books receivers × sending lanes in one
//     Verifier::book_conformant call. Tokens are degree × sending lanes.
//     The few Byzantine injections — whose accept() outcome feeds the
//     injection counters — are delivered after the sweep, one accept()
//     per honest receiver as in the reference, and fold nothing when their
//     value is 0. Their legit_fresh is the reference's: known in the
//     injector's lane if it is on that lane's frontier (it sends at this
//     step), else 0;
//   * receive folding is a commutative max, and the touched set is "v
//     received a nonzero accepted color this step", which is exactly the
//     reference's set of 0 -> c transitions, so a plain max and an
//     unconditional touched-bit OR reproduce it;
//   * receivers are tested against two word-packed sets built by the
//     step-1 sweep from the run's inputs — can-receive (not crashed) and
//     Byzantine. Under live hooks the kernel reads MidRunHooks::alive_set()
//     once per round, after begin_round has applied the round's events
//     (hooks that do not churn keep one set): it ANDs those words into the
//     frontier words, so a departed sender is skipped as the reference's
//     present(u) skips it, and forms the round's receiver set can-receive
//     AND alive, the reference's `crashed[v] || !present(v)` test in packed
//     form.
//     Injections test the same two sets. Crashed nodes are never
//     receivers, so they are never touched and never rejoin a frontier;
//   * the round digest is a commutative XOR fold, so the kernel's
//     ascending-id fold order gives the reference's value whatever order
//     its frontier and touched lists hold. Each lane's fold and token
//     count are kept apart, and replayed in lane order they give the
//     trail of one call per lane;
//   * the close sweep writes best_before/last_step/known and the
//     next-frontier word word-by-word, and every observable downstream of
//     frontier ITERATION ORDER is order-insensitive (the live wavefront is
//     explicitly canonical, and counters/digests commute), so
//     ascending-bitset order matches the reference's vectors bit for bit.
// Hooks that churn get one lane because begin_round changes membership
// between the rounds of one subphase and the next, which a side-by-side
// sweep would apply to every lane at once. Hooks that do not churn have
// one membership for every lane, and the kernel calls no begin_round.
// ---------------------------------------------------------------------------

template <std::uint32_t W>
void run_lanes_kernel(const graph::Overlay& overlay,
                      const std::vector<bool>& byz_mask,
                      const std::vector<bool>& crashed,
                      const Verifier& verifier, const FloodParams& params,
                      std::span<const Injection> injections,
                      std::span<const std::uint32_t> lane_begin,
                      FloodWorkspace& ws, sim::Instrumentation& instr) {
  MidRunHooks* const live = params.live;
  const NodeId n = live ? live->node_bound() : overlay.num_nodes();
  const auto& h = overlay.h_simple();
  const std::uint32_t lanes = ws.lanes();
  const std::uint32_t steps = params.steps;
  obs::RunDigester* const dg = params.digest;
  // Hooks that churn apply events in begin_round before each step; others
  // keep one membership for the whole call.
  const bool churning = live != nullptr && live->churns();
  // A one-lane call closes its rounds into the digester inline; a fused
  // call keeps them per lane for replay_lane_rounds.
  const bool record = dg != nullptr && lanes > 1;

  using Word = util::Bitset::Word;
  constexpr std::size_t kWordBits = util::Bitset::kWordBits;
  ws.frontier_bits.assign(n);
  ws.next_frontier_bits.assign(n);
  ws.touched_bits.assign(n);
  ws.can_receive_bits.assign(n);
  ws.byz_bits.assign(n);
  if (live != nullptr) ws.live_receive_bits.assign(n);
  if constexpr (W > 1) {
    ws.frontier_lanes.resize(n);
    ws.next_frontier_lanes.resize(n);
  }
  const std::size_t records = record ? std::size_t{lanes} * steps : 0;
  ws.round_folds.assign(records, 0);
  ws.round_tokens.assign(records, 0);
  const util::Bitset& can_receive = ws.can_receive_bits;
  const util::Bitset& byz = ws.byz_bits;
  const std::size_t num_words = ws.frontier_bits.num_words();
  Color* const known = ws.known.data();
  Color* const recv = ws.recv.data();
  Color* const best_before = ws.best_before.data();
  Color* const last_step = ws.last_step.data();
  // Presence (null on the static path): the hooks' set, which only
  // begin_round changes.
  const util::Bitset* const alive =
      live != nullptr ? &live->alive_set() : nullptr;

  // Step 1 senders: each node sends in the lanes where it generated a
  // color. Each word of the frontier and of the can-receive and Byzantine
  // sets is built locally and stored exactly once.
  {
    Word* fw = ws.frontier_bits.words();
    Word* rw = ws.can_receive_bits.words();
    Word* bw = ws.byz_bits.words();
    for (std::size_t wi = 0; wi < num_words; ++wi) {
      Word f = 0;
      Word r = 0;
      Word b = 0;
      const NodeId base = static_cast<NodeId>(wi * kWordBits);
      const NodeId end =
          std::min<NodeId>(n, base + static_cast<NodeId>(kWordBits));
      for (NodeId v = base; v < end; ++v) {
        const Word bit = Word{1} << (v - base);
        if (byz_mask[v]) b |= bit;
        if (crashed[v]) continue;
        r |= bit;
        if constexpr (W == 1) {
          if (known[v] > 0) f |= bit;
        } else {
          const Color* row = known + static_cast<std::size_t>(v) * W;
          unsigned m = 0;
          for (std::uint32_t l = 0; l < W; ++l) {
            m |= (row[l] > 0 ? 1u : 0u) << l;
          }
          if (m != 0) {
            f |= bit;
            ws.frontier_lanes[v] = static_cast<LaneMask>(m);
          }
        }
      }
      fw[wi] = f;
      rw[wi] = r;
      bw[wi] = b;
    }
  }

  for (std::uint32_t t = 1; t <= steps; ++t) {
    const std::size_t frontier_count = ws.frontier_bits.count();
    obs::Span round_span("flood.round");
    round_span.arg("step", t).arg("frontier", frontier_count).arg("lanes",
                                                                  lanes);
    const std::uint64_t round_tokens_before = instr.token_messages;
    // Per-lane round digest folds and token counts (kept only with a
    // digester attached).
    std::array<std::uint64_t, W> lane_fold{};
    std::array<std::uint64_t, W> lane_tokens{};
    if (churning) {
      ws.live_frontier.clear();
      if (live->wants_frontier()) {
        // Ascending bitset order IS the canonical sorted wavefront; presence
        // is still the previous round's here.
        ws.frontier_bits.for_each_set([&](std::size_t u) {
          if (crashed[u]) return;
          if (byz_mask[u] && !params.byz_forward) return;
          if (!alive->test(u)) return;
          ws.live_frontier.push_back(static_cast<NodeId>(u));
        });
      }
      RoundClock clock = params.clock;
      clock.step = t;
      clock.round = params.clock.round + (t - 1);
      live->begin_round(clock, ws.live_frontier);
    }
    if (alive != nullptr) {
      // Presence after this round's events.
      const Word* aw = alive->words();
      const Word* rw = can_receive.words();
      Word* lw = ws.live_receive_bits.words();
      for (std::size_t wi = 0; wi < num_words; ++wi) lw[wi] = rw[wi] & aw[wi];
    }
    const util::Bitset& receivers =
        alive != nullptr ? ws.live_receive_bits : can_receive;

    // Sender sweep over the union frontier's words: one adjacency read per
    // sender for all the lanes it sends in.
    {
      const Word* fw = ws.frontier_bits.words();
      for (std::size_t wi = 0; wi < num_words; ++wi) {
        Word w = fw[wi];
        if (alive != nullptr) w &= alive->words()[wi];
        while (w) {
          const NodeId u = static_cast<NodeId>(
              wi * kWordBits + static_cast<std::size_t>(std::countr_zero(w)));
          w &= w - 1;
          if (!params.byz_forward && byz.test(u)) continue;
          const auto nbrs = live ? live->neighbors(u) : h.neighbors(u);
          const unsigned m = W == 1 ? 1u : ws.frontier_lanes[u];
          const auto sending = static_cast<std::uint64_t>(std::popcount(m));
          instr.count_token(nbrs.size() * sending);
          instr.max_node_round_sends =
              std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
          const Color* krow = known + static_cast<std::size_t>(u) * W;
          std::array<Color, W> send;
          for (std::uint32_t l = 0; l < W; ++l) {
            send[l] = (m >> l) & 1u ? krow[l] : 0;
          }
          // c == legit_fresh in every sending lane (see the proof above);
          // at one lane, known grew in the previous step.
          assert(W > 1 || t == 1 || ws.fresh[u] == t - 1);
          if (dg != nullptr) {
            for (unsigned lm = m; lm != 0; lm &= lm - 1) {
              const auto l = static_cast<std::uint32_t>(std::countr_zero(lm));
              assert(send[l] > 0);
              lane_fold[l] ^= obs::digest_sender_term(u, send[l]);
              lane_tokens[l] += nbrs.size();
            }
          }
          std::uint64_t audited = 0;
          for (const NodeId v : nbrs) {
            if (!receivers.test(v)) continue;
            audited += byz.test(v) ? 0 : 1;
            Color* rrow = recv + static_cast<std::size_t>(v) * W;
            for (std::uint32_t l = 0; l < W; ++l) {
              rrow[l] = std::max(rrow[l], send[l]);
            }
            ws.touched_bits.set(v);
          }
          verifier.book_conformant(u, t, audited * sending, instr);
        }
      }
    }

    // Byzantine injections, lane by lane: few, and their accept() outcome
    // feeds the injection counters (the max fold commutes with the sweep's
    // and with other injections).
    for (std::uint32_t l = 0; l < lanes; ++l) {
      for (std::uint32_t i = lane_begin[l]; i < lane_begin[l + 1]; ++i) {
        const Injection& inj = injections[i];
        if (inj.step != t || crashed[inj.from]) continue;
        if (alive != nullptr && !alive->test(inj.from)) continue;
        const auto nbrs =
            live ? live->neighbors(inj.from) : h.neighbors(inj.from);
        instr.count_token(nbrs.size());
        instr.max_node_round_sends =
            std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
        lane_tokens[l] += nbrs.size();
        const bool on_frontier =
            ws.frontier_bits.test(inj.from) &&
            (W == 1 || ((ws.frontier_lanes[inj.from] >> l) & 1u) != 0);
        const Color legit =
            on_frontier ? known[static_cast<std::size_t>(inj.from) * W + l]
                        : 0;
        const bool from_byz = byz_mask[inj.from];
        for (const NodeId v : nbrs) {
          if (!receivers.test(v)) continue;
          // Byzantine receivers absorb the token unaudited.
          const bool accepted =
              byz.test(v) ||
              verifier.accept(inj.from, inj.value, t, legit, from_byz, instr);
          if (accepted && inj.value > 0) {
            Color& r = recv[static_cast<std::size_t>(v) * W + l];
            r = std::max(r, inj.value);
            ws.touched_bits.set(v);
          }
        }
      }
    }

    // Close sweep: each touched word also writes that word of the next
    // frontier (0 when nothing was touched) and is re-zeroed for the next
    // step.
    {
      const bool last = t == steps;
      const bool step_maxima = ws.step_maxima();
      Word* tw_words = ws.touched_bits.words();
      Word* nf_words = ws.next_frontier_bits.words();
      for (std::size_t wi = 0; wi < num_words; ++wi) {
        Word tw = tw_words[wi];
        Word next_w = 0;
        while (tw) {
          const std::size_t bit =
              static_cast<std::size_t>(std::countr_zero(tw));
          tw &= tw - 1;
          const NodeId v = static_cast<NodeId>(wi * kWordBits + bit);
          const std::size_t row = static_cast<std::size_t>(v) * W;
          std::array<Color, W> r;
          unsigned improved = 0;
          for (std::uint32_t l = 0; l < W; ++l) {
            r[l] = recv[row + l];
            recv[row + l] = 0;
            improved |= (r[l] > known[row + l] ? 1u : 0u) << l;
          }
          if (step_maxima && last) {
            for (std::uint32_t l = 0; l < W; ++l) last_step[row + l] = r[l];
          } else if (step_maxima) {
            for (std::uint32_t l = 0; l < W; ++l) {
              best_before[row + l] = std::max(best_before[row + l], r[l]);
            }
          }
          if (dg != nullptr) {
            for (std::uint32_t l = 0; l < lanes; ++l) {
              if (r[l] != 0) {
                lane_fold[l] ^= obs::digest_receiver_term(v, r[l]);
              }
            }
          }
          if (improved != 0) {
            for (std::uint32_t l = 0; l < W; ++l) {
              known[row + l] = std::max(known[row + l], r[l]);
            }
            next_w |= Word{1} << bit;
            if constexpr (W == 1) {
              ws.fresh[v] = t;
            } else {
              ws.next_frontier_lanes[v] = static_cast<LaneMask>(improved);
            }
          }
        }
        nf_words[wi] = next_w;
        tw_words[wi] = 0;
      }
    }

    std::swap(ws.frontier_bits, ws.next_frontier_bits);
    if constexpr (W > 1) std::swap(ws.frontier_lanes, ws.next_frontier_lanes);
    if (record) {
      for (std::uint32_t l = 0; l < lanes; ++l) {
        const std::size_t at = static_cast<std::size_t>(l) * steps + (t - 1);
        ws.round_folds[at] = lane_fold[l];
        ws.round_tokens[at] = lane_tokens[l];
      }
    } else if (dg != nullptr) {
      dg->fold_round(lane_fold[0]);
      dg->close_round(lane_tokens[0]);
    }
    round_span.arg("tokens", instr.token_messages - round_tokens_before);
  }
}

/// Argument checks every entry shares: the generated colors fill
/// `color_cells` cells of rows `stride` wide, one row per node. Returns
/// the run's id bound.
NodeId check_inputs(const graph::Overlay& overlay,
                    const std::vector<bool>& byz_mask,
                    const std::vector<bool>& crashed,
                    const FloodParams& params, std::size_t color_cells,
                    std::uint32_t stride) {
  const MidRunHooks* live = params.live;
  const NodeId n = live ? live->node_bound() : overlay.num_nodes();
  if (color_cells != std::size_t{n} * stride || byz_mask.size() != n ||
      crashed.size() != n) {
    throw std::invalid_argument("run_flood_subphase: size mismatch");
  }
  if (live != nullptr && live->alive_set().size() != n) {
    throw std::invalid_argument(
        "run_flood_subphase: alive_set size != node_bound");
  }
  return n;
}

/// The observability every entry shares: one flood.subphase span around
/// the call (pure read-side; inert unless obs::set_enabled) with its
/// steps, lanes and tokens, and the call's round count, steps × lanes.
template <typename Body>
void observed(const FloodParams& params, std::uint32_t lanes,
              sim::Instrumentation& instr, Body&& body) {
  obs::Span subphase_span("flood.subphase");
  subphase_span.arg("steps", params.steps).arg("lanes", lanes);
  const std::uint64_t tokens_before = instr.token_messages;

  body();

  const std::uint64_t rounds = std::uint64_t{params.steps} * lanes;
  instr.flood_rounds += rounds;
  subphase_span.arg("tokens", instr.token_messages - tokens_before);
}

}  // namespace

void run_flood_lanes(const graph::Overlay& overlay,
                     const std::vector<bool>& byz_mask,
                     const std::vector<bool>& crashed,
                     const Verifier& verifier, const FloodParams& params,
                     std::span<const Injection> injections,
                     std::span<const std::uint32_t> lane_begin,
                     FloodWorkspace& ws, sim::Instrumentation& instr) {
  const std::uint32_t lanes = ws.lanes();
  check_inputs(overlay, byz_mask, crashed, params, ws.known.size(),
               ws.stride());
  if (lane_begin.size() != lanes + std::size_t{1} || lane_begin.front() != 0 ||
      lane_begin.back() != injections.size() ||
      !std::is_sorted(lane_begin.begin(), lane_begin.end())) {
    throw std::invalid_argument(
        "run_flood_lanes: lane_begin must split the injections by lane");
  }
  if (params.live != nullptr && params.live->churns() && lanes > 1) {
    throw std::invalid_argument(
        "run_flood_lanes: hooks that churn need one lane");
  }
  const auto kernel = [&] {
    switch (ws.stride()) {
      case 1: return &run_lanes_kernel<1>;
      case 4: return &run_lanes_kernel<4>;
      case 8: return &run_lanes_kernel<8>;
      default: return &run_lanes_kernel<16>;
    }
  }();
  observed(params, lanes, instr, [&] {
    kernel(overlay, byz_mask, crashed, verifier, params, injections,
           lane_begin, ws, instr);
  });
}

void replay_lane_rounds(const FloodWorkspace& ws, std::uint32_t lane,
                        obs::RunDigester& digester) {
  const std::size_t steps = ws.round_folds.size() / ws.lanes();
  for (std::size_t t = 0; t < steps; ++t) {
    digester.fold_round(ws.round_folds[lane * steps + t]);
    digester.close_round(ws.round_tokens[lane * steps + t]);
  }
}

void run_flood_subphase(const graph::Overlay& overlay,
                        const std::vector<bool>& byz_mask,
                        const std::vector<bool>& crashed,
                        const Verifier& verifier, const FloodParams& params,
                        std::span<const Color> gen_color,
                        std::span<const Injection> injections,
                        FloodWorkspace& ws, sim::Instrumentation& instr) {
  ws.ensure(
      check_inputs(overlay, byz_mask, crashed, params, gen_color.size(), 1));
  std::copy(gen_color.begin(), gen_color.end(), ws.known.begin());
  const std::array<std::uint32_t, 2> lane_begin = {
      0, static_cast<std::uint32_t>(injections.size())};
  run_flood_lanes(overlay, byz_mask, crashed, verifier, params, injections,
                  lane_begin, ws, instr);
}

void run_flood_subphase_reference(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    const std::vector<bool>& crashed, const Verifier& verifier,
    const FloodParams& params, std::span<const Color> gen_color,
    std::span<const Injection> injections, FloodWorkspace& ws,
    sim::Instrumentation& instr) {
  ws.ensure(
      check_inputs(overlay, byz_mask, crashed, params, gen_color.size(), 1));
  observed(params, 1, instr, [&] {
    run_subphase_reference(overlay, byz_mask, crashed, verifier, params,
                           gen_color, injections, ws, instr);
  });
}

}  // namespace byz::proto

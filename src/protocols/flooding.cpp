#include "protocols/flooding.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "obs/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace byz::proto {

using graph::NodeId;

void FloodWorkspace::ensure(NodeId n) {
  known.assign(n, 0);
  fresh.assign(n, 0);
  best_before.assign(n, 0);
  last_step.assign(n, 0);
  recv.assign(n, 0);
  live_frontier.clear();
}

namespace {

/// Per-round frontier-size histogram shared by the kernel and the reference.
const obs::Histogram& frontier_histogram() {
  static const obs::Histogram hist("flood.frontier");
  return hist;
}

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
    frontier_histogram().observe(frontier.size());
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
// The kernel: word-packed sets, rounds swept word by word. Bitwise-equivalent
// to the scalar reference by construction:
//   * conformant frontier sends always satisfy c == legit_fresh (step 1:
//     c = known = gen_color; later steps: frontier membership implies
//     fresh == t-1, so legit = known = c) and c > 0 (step 1 sends only
//     positive generated colors; later a node joins the frontier only when
//     its max strictly grew). On that path accept() always returns true
//     and only adds |B_H(u, min(t, k-1))| round trips per honest receiver,
//     so the sweep calls no accept(): it counts each sender's honest
//     receivers and books them in one Verifier::book_conformant call (a
//     debug assert re-checks c == legit_fresh). The few Byzantine
//     injections — whose accept() outcome feeds the injection counters —
//     are delivered after the sweep, one accept() per honest receiver as
//     in the reference, and fold nothing when their value is 0;
//   * receive folding is a commutative max, and the touched set is "v
//     received a nonzero accepted color this step", which is exactly the
//     reference's set of 0 -> c transitions, so a plain max and an
//     unconditional touched-bit OR reproduce it;
//   * receivers are tested against two word-packed sets built by the
//     step-1 sweep from the run's inputs — can-receive (not crashed) and
//     Byzantine. Under live hooks the kernel reads MidRunHooks::alive_set()
//     once per round, after begin_round has applied the round's events:
//     it ANDs those words into the frontier words, so a departed sender is
//     skipped as the reference's present(u) skips it, and forms the round's
//     receiver set can-receive AND alive, the reference's
//     `crashed[v] || !present(v)` test in packed form. Injections test the
//     same two sets;
//   * the round digest is a commutative XOR fold, so the kernel's
//     ascending-id fold order gives the reference's value whatever order
//     its frontier and touched lists hold;
//   * the close sweep writes best_before/last_step/known/fresh and the
//     next-frontier word word-by-word, and every observable downstream of
//     frontier ITERATION ORDER is order-insensitive (the live wavefront is
//     explicitly canonical, and counters/digests commute), so
//     ascending-bitset order matches the reference's vectors bit for bit.
// ---------------------------------------------------------------------------

void run_subphase_kernel(const graph::Overlay& overlay,
                         const std::vector<bool>& byz_mask,
                         const std::vector<bool>& crashed,
                         const Verifier& verifier, const FloodParams& params,
                         std::span<const Color> gen_color,
                         std::span<const Injection> injections,
                         FloodWorkspace& ws, sim::Instrumentation& instr) {
  const MidRunHooks* live = params.live;
  const NodeId n = live ? live->node_bound() : overlay.num_nodes();
  const auto& h = overlay.h_simple();

  using Word = util::Bitset::Word;
  constexpr std::size_t kWordBits = util::Bitset::kWordBits;
  ws.frontier_bits.assign(n);
  ws.next_frontier_bits.assign(n);
  ws.touched_bits.assign(n);
  ws.can_receive_bits.assign(n);
  ws.byz_bits.assign(n);
  if (live != nullptr) ws.live_receive_bits.assign(n);
  const util::Bitset& can_receive = ws.can_receive_bits;
  const util::Bitset& byz = ws.byz_bits;
  const std::size_t num_words = ws.frontier_bits.num_words();

  const auto fold = [&](NodeId v, Color c) {
    ws.recv[v] = std::max(ws.recv[v], c);
    ws.touched_bits.set(v);
  };

  // Step 1 senders: each word of the frontier and of the can-receive and
  // Byzantine sets is built locally and stored exactly once.
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
        ws.known[v] = gen_color[v];
        if (crashed[v]) continue;
        r |= bit;
        if (gen_color[v] > 0) f |= bit;
      }
      fw[wi] = f;
      rw[wi] = r;
      bw[wi] = b;
    }
  }

  for (std::uint32_t t = 1; t <= params.steps; ++t) {
    const std::size_t frontier_count = ws.frontier_bits.count();
    obs::Span round_span("flood.round");
    round_span.arg("step", t).arg("frontier", frontier_count);
    frontier_histogram().observe(frontier_count);
    const std::uint64_t round_tokens_before = instr.token_messages;
    // Presence after this round's events (null on the static path).
    const util::Bitset* alive = nullptr;
    if (live != nullptr) {
      ws.live_frontier.clear();
      if (live->wants_frontier()) {
        // Ascending bitset order IS the canonical sorted wavefront; presence
        // is still the previous round's here.
        const util::Bitset& was_alive = live->alive_set();
        ws.frontier_bits.for_each_set([&](std::size_t u) {
          if (crashed[u]) return;
          if (byz_mask[u] && !params.byz_forward) return;
          if (!was_alive.test(u)) return;
          ws.live_frontier.push_back(static_cast<NodeId>(u));
        });
      }
      RoundClock clock = params.clock;
      clock.step = t;
      clock.round = params.clock.round + (t - 1);
      params.live->begin_round(clock, ws.live_frontier);
      alive = &live->alive_set();
      const Word* aw = alive->words();
      const Word* rw = can_receive.words();
      Word* lw = ws.live_receive_bits.words();
      for (std::size_t wi = 0; wi < num_words; ++wi) lw[wi] = rw[wi] & aw[wi];
    }
    const util::Bitset& receivers =
        alive != nullptr ? ws.live_receive_bits : can_receive;

    // Sender sweep over frontier words.
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
          instr.count_token(nbrs.size());
          instr.max_node_round_sends =
              std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
          const Color c = ws.known[u];
          // c == legit_fresh, spelled out for c = known[u].
          assert(c > 0 && (t == 1 ? c == gen_color[u] : ws.fresh[u] == t - 1));
          if (params.digest != nullptr) {
            params.digest->fold_round(obs::digest_sender_term(u, c));
          }
          std::uint64_t audited = 0;
          for (const NodeId v : nbrs) {
            if (!receivers.test(v)) continue;
            audited += byz.test(v) ? 0 : 1;
            fold(v, c);
          }
          verifier.book_conformant(u, t, audited, instr);
        }
      }
    }

    // Byzantine injections: few, and their accept() outcome feeds the
    // injection counters (the max fold commutes with the sweep's and with
    // other injections).
    for (const auto& inj : injections) {
      if (inj.step != t || crashed[inj.from]) continue;
      if (alive != nullptr && !alive->test(inj.from)) continue;
      const auto nbrs =
          live ? live->neighbors(inj.from) : h.neighbors(inj.from);
      instr.count_token(nbrs.size());
      instr.max_node_round_sends =
          std::max<std::uint64_t>(instr.max_node_round_sends, nbrs.size());
      const Color legit =
          (t == 1) ? gen_color[inj.from]
                   : ((ws.fresh[inj.from] == t - 1) ? ws.known[inj.from] : 0);
      const bool from_byz = byz_mask[inj.from];
      for (const NodeId v : nbrs) {
        if (!receivers.test(v)) continue;
        // Byzantine receivers absorb the token unaudited.
        const bool accepted =
            byz.test(v) ||
            verifier.accept(inj.from, inj.value, t, legit, from_byz, instr);
        if (accepted && inj.value > 0) fold(v, inj.value);
      }
    }

    // Close sweep: each touched word also writes that word of the next
    // frontier (0 when nothing was touched) and is re-zeroed for the next
    // step.
    {
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
          const Color r = ws.recv[v];
          ws.recv[v] = 0;
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
            if (!crashed[v]) next_w |= Word{1} << bit;
          }
        }
        nf_words[wi] = next_w;
        tw_words[wi] = 0;
      }
    }

    std::swap(ws.frontier_bits, ws.next_frontier_bits);
    if (params.digest != nullptr) {
      params.digest->close_round(instr.token_messages - round_tokens_before);
    }
    round_span.arg("tokens", instr.token_messages - round_tokens_before);
  }
}

using SubphaseBody = decltype(&run_flood_subphase);

/// The contract both implementations share: argument checks, workspace
/// reset, observability, and the subphase's round count.
void run_checked(SubphaseBody body, const graph::Overlay& overlay,
                 const std::vector<bool>& byz_mask,
                 const std::vector<bool>& crashed, const Verifier& verifier,
                 const FloodParams& params, std::span<const Color> gen_color,
                 std::span<const Injection> injections, FloodWorkspace& ws,
                 sim::Instrumentation& instr) {
  const MidRunHooks* live = params.live;
  const NodeId n = live ? live->node_bound() : overlay.num_nodes();
  if (gen_color.size() != n || byz_mask.size() != n || crashed.size() != n) {
    throw std::invalid_argument("run_flood_subphase: size mismatch");
  }
  if (live != nullptr && live->alive_set().size() != n) {
    throw std::invalid_argument(
        "run_flood_subphase: alive_set size != node_bound");
  }
  ws.ensure(n);

  // Observability (pure read-side; inert unless obs::set_enabled). The
  // subphase span carries the flood geometry; each round span carries the
  // frontier it sent from and the token volume the sends produced.
  static const obs::Counter obs_rounds("flood.rounds");
  static const obs::Counter obs_tokens("flood.tokens");
  obs::Span subphase_span("flood.subphase");
  subphase_span.arg("steps", params.steps);
  const std::uint64_t subphase_tokens_before = instr.token_messages;

  body(overlay, byz_mask, crashed, verifier, params, gen_color, injections, ws,
       instr);

  instr.flood_rounds += params.steps;
  obs_rounds.add(params.steps);
  obs_tokens.add(instr.token_messages - subphase_tokens_before);
  subphase_span.arg("tokens", instr.token_messages - subphase_tokens_before);
}

}  // namespace

void run_flood_subphase(const graph::Overlay& overlay,
                        const std::vector<bool>& byz_mask,
                        const std::vector<bool>& crashed,
                        const Verifier& verifier, const FloodParams& params,
                        std::span<const Color> gen_color,
                        std::span<const Injection> injections,
                        FloodWorkspace& ws, sim::Instrumentation& instr) {
  run_checked(&run_subphase_kernel, overlay, byz_mask, crashed, verifier,
              params, gen_color, injections, ws, instr);
}

void run_flood_subphase_reference(
    const graph::Overlay& overlay, const std::vector<bool>& byz_mask,
    const std::vector<bool>& crashed, const Verifier& verifier,
    const FloodParams& params, std::span<const Color> gen_color,
    std::span<const Injection> injections, FloodWorkspace& ws,
    sim::Instrumentation& instr) {
  run_checked(&run_subphase_reference, overlay, byz_mask, crashed, verifier,
              params, gen_color, injections, ws, instr);
}

}  // namespace byz::proto

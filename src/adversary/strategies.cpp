#include "adversary/strategies.hpp"

#include <algorithm>
#include <stdexcept>

namespace byz::adv {

using graph::NodeId;

void Strategy::setup_lies(const sim::World&, proto::ClaimSet&) {}
void Strategy::plan_subphase(const sim::World&, const SubphaseRef&,
                             std::vector<proto::Injection>&) {}

namespace {

/// Byzantine nodes execute the protocol faithfully. The run must then match
/// the Byzantine-free analysis of §3.2 exactly (equivalence-tested).
class HonestStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "honest"; }
  [[nodiscard]] bool generates_honestly() const override { return true; }
};

/// The color attack of §1.2/§3.3: flood values far above the continuation
/// threshold. Step-1 injections are unauditable (generation claims) but
/// arrive too early to keep the termination predicate alive at large i;
/// final-step injections would keep every node running forever, which is
/// exactly what the L-edge verification blocks (Lemma 16).
class FakeColorStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "fake-color"; }
  void plan_subphase(const sim::World& world, const SubphaseRef& ref,
                     std::vector<proto::Injection>& out) override {
    for (const NodeId b : world.byz_nodes) {
      out.push_back({b, 1, huge_color(ref.phase)});
      if (ref.phase >= 2) {
        out.push_back({b, ref.phase, huge_color(ref.phase) + 1});
      }
    }
  }
};

/// Blackhole: Byzantine nodes neither generate nor relay.
class SuppressStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "suppress"; }
  [[nodiscard]] bool forwards_floods() const override { return false; }
};

/// The Figure-1 attack: each Byzantine node rewrites its claimed adjacency
/// to graft a fake child (a non-existent id) while suppressing one real
/// honest neighbor — the degree bookkeeping of Lemma 15's proof. The
/// suppressed honest edge is what the crash rule catches.
class TopologyLiarStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "topology-liar"; }
  void setup_lies(const sim::World& world, proto::ClaimSet& claims) override {
    const NodeId n = world.overlay->num_nodes();
    graph::RowScratch scratch;
    for (const NodeId b : world.byz_nodes) {
      std::vector<NodeId> lie;
      for (const graph::BallEntry& e : world.overlay->g_row(b, scratch)) {
        lie.push_back(e.node);
      }
      // Suppress the first honest neighbor (pretend the edge to it is
      // absent) and graft a fabricated node id beyond the real id space.
      const auto it = std::find_if(lie.begin(), lie.end(), [&](NodeId w) {
        return !world.is_byz(w);
      });
      if (it != lie.end()) {
        *it = n + b;  // fabricated id; never a real channel
      }
      claims.set_claim(b, std::move(lie));
    }
  }
  [[nodiscard]] bool generates_honestly() const override { return true; }
};

/// Claims an empty adjacency list: every honest G-neighbor sees the
/// contradiction (it KNOWS the channel exists) and crashes. Maximizes
/// |Crashed|; E10 then checks Lemma 14 on the surviving Core.
class CrashMaximizerStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "crash-max"; }
  void setup_lies(const sim::World& world, proto::ClaimSet& claims) override {
    for (const NodeId b : world.byz_nodes) {
      claims.set_claim(b, {});
    }
  }
  [[nodiscard]] bool generates_honestly() const override { return true; }
};

/// Everything at once: crash-maximizing lies, no relaying, and fake colors
/// at both the start and the end of every subphase.
class AdaptiveStrategy final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "adaptive"; }
  void setup_lies(const sim::World& world, proto::ClaimSet& claims) override {
    for (const NodeId b : world.byz_nodes) {
      claims.set_claim(b, {});
    }
  }
  void plan_subphase(const sim::World& world, const SubphaseRef& ref,
                     std::vector<proto::Injection>& out) override {
    for (const NodeId b : world.byz_nodes) {
      out.push_back({b, 1, huge_color(ref.phase)});
      if (ref.phase >= 2) {
        // Probe every late step, not just the last: maximally stresses the
        // verifier.
        out.push_back({b, ref.phase, huge_color(ref.phase) + 1});
        if (ref.phase >= 3) {
          out.push_back({b, ref.phase - 1, huge_color(ref.phase) + 2});
        }
      }
    }
  }
  [[nodiscard]] bool forwards_floods() const override { return false; }
};

}  // namespace

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kHonest: return "honest";
    case StrategyKind::kFakeColor: return "fake-color";
    case StrategyKind::kSuppress: return "suppress";
    case StrategyKind::kTopologyLiar: return "topology-liar";
    case StrategyKind::kCrashMaximizer: return "crash-max";
    case StrategyKind::kAdaptive: return "adaptive";
  }
  return "unknown";
}

std::vector<StrategyKind> all_strategies() {
  return {StrategyKind::kHonest,         StrategyKind::kFakeColor,
          StrategyKind::kSuppress,       StrategyKind::kTopologyLiar,
          StrategyKind::kCrashMaximizer, StrategyKind::kAdaptive};
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kHonest: return std::make_unique<HonestStrategy>();
    case StrategyKind::kFakeColor: return std::make_unique<FakeColorStrategy>();
    case StrategyKind::kSuppress: return std::make_unique<SuppressStrategy>();
    case StrategyKind::kTopologyLiar:
      return std::make_unique<TopologyLiarStrategy>();
    case StrategyKind::kCrashMaximizer:
      return std::make_unique<CrashMaximizerStrategy>();
    case StrategyKind::kAdaptive: return std::make_unique<AdaptiveStrategy>();
  }
  throw std::invalid_argument("make_strategy: unknown kind");
}

void InjectionProbe::plan_subphase(const sim::World& world,
                                   const SubphaseRef& ref,
                                   std::vector<proto::Injection>& out) {
  if (ref.phase < step_) return;  // probe fires only once phases reach it
  for (const NodeId b : world.byz_nodes) {
    out.push_back({b, step_, value_});
  }
}

}  // namespace byz::adv

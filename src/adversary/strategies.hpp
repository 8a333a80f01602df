// Full-information adversary strategies. A Strategy drives every Byzantine
// node at the two points where the protocol can be attacked:
//   * setup (Algorithm 2 lines 1-2): adjacency-claim lies — including the
//     Figure-1 chain concoction — which the crash rule converts into
//     crash failures of honest neighbors rather than deception (Lemma 15);
//   * subphases: token injections (colors), filtered by the Verifier
//     acceptance rule at every honest receiver (Lemma 16);
// plus the standing choice of whether Byzantine nodes relay the flood at
// all (suppression).
//
// Strategies read the World — complete knowledge of the topology, every
// node's state, and every honest coin including FUTURE subphases — which is
// the paper's full-information model made concrete.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "protocols/flooding.hpp"
#include "protocols/neighborhood.hpp"
#include "sim/world.hpp"

namespace byz::adv {

/// Identifies one subphase for planning purposes.
struct SubphaseRef {
  std::uint32_t phase = 1;          ///< i (also the number of steps)
  std::uint32_t subphase = 1;       ///< j within the phase, 1-based
  std::uint32_t global_index = 0;   ///< index into the coin table
};

class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Installs adjacency-claim lies into `claims` (default: truthful).
  virtual void setup_lies(const sim::World& world, proto::ClaimSet& claims);

  /// Appends the token injections of the given subphase to `out`
  /// (default: none). A plan must depend only on the World and `ref`, not
  /// on earlier calls or on how earlier subphases went: static runs draw
  /// the plans of all the subphases they flood side by side (a phase's,
  /// or a BRC batch's repetitions) before the flood, in subphase order.
  virtual void plan_subphase(const sim::World& world, const SubphaseRef& ref,
                             std::vector<proto::Injection>& out);

  /// Do Byzantine nodes relay the honest flood? (false = blackhole)
  [[nodiscard]] virtual bool forwards_floods() const { return true; }

  /// Do Byzantine nodes draw and flood their honest colors at step 1?
  [[nodiscard]] virtual bool generates_honestly() const { return false; }
};

enum class StrategyKind : std::uint8_t {
  kHonest,          ///< Byzantine nodes follow the protocol (§3.1 baseline)
  kFakeColor,       ///< inject huge colors at step 1 and at the final step
  kSuppress,        ///< relay nothing, generate nothing (blackhole)
  kTopologyLiar,    ///< Figure-1 chain concoction at setup
  kCrashMaximizer,  ///< lies engineered to crash every honest G-neighbor
  kAdaptive,        ///< crash-maximize + fake colors + selective suppression
};

[[nodiscard]] const char* to_string(StrategyKind kind);
[[nodiscard]] std::vector<StrategyKind> all_strategies();
[[nodiscard]] std::unique_ptr<Strategy> make_strategy(StrategyKind kind);

/// Parameterized probe used by E9: every subphase, each Byzantine node
/// injects `value` at step min(inject_step, phase). Measures the
/// acceptance/catch behavior of the Verifier as a function of the step.
class InjectionProbe final : public Strategy {
 public:
  InjectionProbe(std::uint32_t inject_step, proto::Color value)
      : step_(inject_step), value_(value) {}
  [[nodiscard]] std::string_view name() const override { return "probe"; }
  void plan_subphase(const sim::World& world, const SubphaseRef& ref,
                     std::vector<proto::Injection>& out) override;

 private:
  std::uint32_t step_;
  proto::Color value_;
};

/// A color far above anything n honest geometric draws reach w.h.p.
[[nodiscard]] constexpr proto::Color huge_color(std::uint32_t phase) noexcept {
  return 1'000'000u + phase;
}

}  // namespace byz::adv

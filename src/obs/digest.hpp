// Hierarchical state digests for divergence forensics.
//
// A RunDigester folds a streaming 64-bit digest of protocol state upward
// through the paper's own execution hierarchy — round -> subphase -> phase
// -> run — so the digest trails of two executions that should be bitwise
// identical (engine vs fastpath, composed vs monolithic) can be walked to
// the FIRST divergent phase/subphase/round instead of a boolean
// "divergences=1".
//
// The mix is a seeded splitmix64-style finalizer: deterministic, no RNG
// draws, no allocation past the trail vectors. Per-round folds are a
// commutative XOR of per-node terms because the two tiers visit the same
// close set in different orders (the fastpath iterates its touched list in
// insertion order, the engine iterates node ids ascending); everything
// above the round level folds sequentially at points both tiers reach in
// the same order. Recording is gated on POINTER ATTACHMENT, not on
// obs::enabled(): a null digester costs one branch, and an attached one
// produces the same trail in traced and untraced runs.
//
// Like every obs/ facility this is pure read-side (see obs.hpp): a
// digester observes the run, it never feeds anything back — an attached
// digester moves no outcome bit (tests/dynamics/forensics_test.cpp). An
// attached digester always records: a run that floods at least one round
// leaves a trail with rounds in it.
//
// Every engine<->fastpath oracle seam (dynamics::compare_midrun_tiers,
// run_churn's engine oracle, E24's static<->mid-run anchor) digests both
// of its tiers through one OracleAudit and passes only when the outcomes
// AND the trails match. Production runs attach no digester.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/recorder.hpp"

namespace byz::obs {

inline constexpr std::uint64_t kDigestSeed = 0xB12C0047D16E57ull;

/// splitmix64 finalizer: full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Order-dependent combine of two words (mix chains / labeled terms).
[[nodiscard]] constexpr std::uint64_t mix2(std::uint64_t a,
                                           std::uint64_t b) noexcept {
  return mix64(a ^ mix64(b ^ kDigestSeed));
}

// Per-node round terms, tagged by role so a sender term can never cancel
// a receiver term under the commutative XOR fold. Node ids are 32-bit.
[[nodiscard]] constexpr std::uint64_t digest_sender_term(
    std::uint64_t node, std::uint64_t value) noexcept {
  return mix2(0x51ull ^ (node << 8), value);
}
[[nodiscard]] constexpr std::uint64_t digest_receiver_term(
    std::uint64_t node, std::uint64_t value) noexcept {
  return mix2(0x52ull ^ (node << 8), value);
}
[[nodiscard]] constexpr std::uint64_t digest_member_term(
    std::uint64_t node, std::uint64_t value) noexcept {
  return mix2(0x53ull ^ (node << 8), value);
}
[[nodiscard]] constexpr std::uint64_t digest_state_term(
    std::uint64_t node, std::uint64_t value) noexcept {
  return mix2(0x54ull ^ (node << 8), value);
}

/// "0x" + 16 lowercase hex digits — digests travel through JSON as strings
/// so no reader coerces them through a double.
[[nodiscard]] std::string hex_u64(std::uint64_t value);

struct RoundDigest {
  std::uint32_t phase = 0;
  std::uint32_t subphase = 0;
  std::uint64_t round = 0;  ///< global round index (digester's own counter)
  std::uint64_t digest = 0;
};

struct SubphaseDigest {
  std::uint32_t phase = 0;
  std::uint32_t subphase = 0;
  std::uint64_t digest = 0;
};

struct PhaseDigest {
  std::uint32_t phase = 0;
  std::uint64_t digest = 0;
};

/// The full hierarchical trail of one execution. Two runs that should be
/// identical must produce entry-for-entry identical trails.
struct DigestTrail {
  std::vector<RoundDigest> rounds;
  std::vector<SubphaseDigest> subphases;
  std::vector<PhaseDigest> phases;
  std::uint64_t run_digest = 0;
  bool closed = false;  ///< close_run() reached
};

/// Where two trails first disagree, at the deepest level the hierarchy
/// can localize. kRun means every per-level entry matched but the run
/// fold differs (a run-level-only fold diverged); kNone means identical.
struct DigestDivergence {
  enum class Level : std::uint8_t { kNone, kRun, kPhase, kSubphase, kRound };
  Level level = Level::kNone;
  std::uint32_t phase = 0;
  std::uint32_t subphase = 0;
  std::uint64_t round = 0;
  [[nodiscard]] bool diverged() const noexcept { return level != Level::kNone; }
};

[[nodiscard]] const char* to_string(DigestDivergence::Level level);

/// Walks two trails top-down (phase list -> that phase's subphases -> that
/// subphase's rounds) to the first divergent entry. A missing entry (one
/// trail shorter) counts as a divergence at the first absent label.
[[nodiscard]] DigestDivergence first_divergence(const DigestTrail& a,
                                                const DigestTrail& b);

class RunDigester {
 public:
  explicit RunDigester(std::uint64_t seed = kDigestSeed);

  /// Optional flight recorder: the digester stamps events with its
  /// hierarchical clock and records round-close events itself.
  void attach_recorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] FlightRecorder* recorder() const noexcept { return recorder_; }

  /// Records a flight event stamped with the current phase/subphase/round.
  void note(FlightEventKind kind, std::uint64_t a, std::uint64_t b);

  void begin_phase(std::uint32_t phase);
  void begin_subphase(std::uint32_t subphase);

  /// Commutative fold into the current round (XOR of tagged terms).
  void fold_round(std::uint64_t term) noexcept { round_acc_ ^= term; }

  /// Seals the current round: mixes the round fold with the hierarchical
  /// position and the round's token count, appends the entry, and chains
  /// it into the enclosing subphase.
  void close_round(std::uint64_t tokens);

  /// Order-dependent fold into the current subphase (e.g. the fired set).
  void fold_subphase(std::uint64_t term) noexcept {
    subphase_acc_ = mix2(subphase_acc_, term);
  }
  void close_subphase();

  /// Order-dependent fold into the current phase (verifier rows, statuses,
  /// decide/departed sweeps).
  void fold_phase(std::uint64_t term) noexcept {
    phase_acc_ = mix2(phase_acc_, term);
  }
  void close_phase();

  /// Order-dependent fold into the run (final statuses and estimates).
  void fold_run(std::uint64_t term) noexcept { run_acc_ = mix2(run_acc_, term); }
  void close_run();

  [[nodiscard]] const DigestTrail& trail() const noexcept { return trail_; }

  /// Test-only fault injection: XOR `mask` into the digest of global round
  /// `round_index` when it closes. Perturbs the TRAIL only — protocol
  /// state is untouched — so forensics localization can be asserted
  /// against a known-injected round.
  void set_perturbation(std::uint64_t round_index,
                        std::uint64_t mask) noexcept {
    perturb_round_ = round_index;
    perturb_mask_ = mask;
  }

 private:
  std::uint64_t seed_;
  DigestTrail trail_;
  FlightRecorder* recorder_ = nullptr;
  std::uint32_t phase_ = 0;
  std::uint32_t subphase_ = 0;
  std::uint64_t round_index_ = 0;  ///< global index of the OPEN round
  std::uint64_t round_acc_ = 0;
  std::uint64_t subphase_acc_ = 0;
  std::uint64_t phase_acc_ = 0;
  std::uint64_t run_acc_ = 0;
  std::uint64_t perturb_round_ = ~std::uint64_t{0};
  std::uint64_t perturb_mask_ = 0;
};

/// An oracle comparison's audit settings: where its report goes, the
/// report's repro line, and a test-only trail perturbation.
struct AuditConfig {
  std::string out_dir;   ///< forensic report directory ("" = render only)
  std::string scenario;  ///< repro line: scenario name
  std::uint64_t seed = 0;
  std::string flags;     ///< repro line: config flags, human-readable
  // Test-only fault injection (see RunDigester::set_perturbation): which
  // tier's trail to perturb (0 = first/fastpath, 1 = second/engine,
  // -1 = none), at which global round, with which XOR mask.
  int perturb_tier = -1;
  std::uint64_t perturb_round = 0;
  std::uint64_t perturb_mask = 0;
};

/// Repro-line fields for a forensics report.
struct ForensicsInfo {
  std::string scenario;
  std::uint64_t seed = 0;
  std::string flags;
  std::string detail;  ///< headline: what the oracle saw diverge
  std::string tier_a = "fastpath";
  std::string tier_b = "engine";
};

/// byzobs/forensics/v1 JSON document: first divergent phase/subphase/round,
/// both digest trails (full phase level; subphase/round level scoped to
/// the divergent branch so the report stays bounded), both flight-recorder
/// tails, and a one-line repro.
[[nodiscard]] std::string forensics_json(const ForensicsInfo& info,
                                         const DigestTrail& a,
                                         const DigestTrail& b,
                                         const FlightRecorder* recorder_a,
                                         const FlightRecorder* recorder_b);

/// Writes a rendered report to `path`. False on I/O error.
bool write_forensics_file(const std::string& path, const std::string& doc);

/// What an oracle comparison found once both of its tiers ran.
struct OracleVerdict {
  bool passed = false;        ///< outcomes and digest trails both matched
  bool trails_match = false;  ///< trails matched entry for entry
  std::uint64_t run_digest_a = 0;
  std::uint64_t run_digest_b = 0;
  std::string forensics;       ///< byzobs/forensics/v1 report; "" if passed
  std::string forensics_path;  ///< where it was written; "" if not written
};

/// The digest half of one oracle comparison: a digester with its own
/// flight recorder for each tier, AuditConfig's perturbation applied. Run
/// tier a with a(), tier b with b(), then judge() the pair.
class OracleAudit {
 public:
  explicit OracleAudit(const AuditConfig& config,
                       std::string tier_a = "fastpath",
                       std::string tier_b = "engine");
  // The digesters point at the recorders beside them.
  OracleAudit(const OracleAudit&) = delete;
  OracleAudit& operator=(const OracleAudit&) = delete;

  [[nodiscard]] RunDigester& a() noexcept { return digester_a_; }
  [[nodiscard]] RunDigester& b() noexcept { return digester_b_; }

  /// Compares the two trails. Unless the outcomes and the trails both
  /// match, renders the report and, when AuditConfig::out_dir is set,
  /// writes it to <out_dir>/forensics_<file_tag>_<seed>_<h>.json, where
  /// <h> is 8 hex digits of a hash of AuditConfig::flags.
  [[nodiscard]] OracleVerdict judge(bool outcomes_match,
                                    const std::string& file_tag) const;

 private:
  AuditConfig config_;
  std::string tier_a_;
  std::string tier_b_;
  FlightRecorder recorder_a_;
  FlightRecorder recorder_b_;
  RunDigester digester_a_;
  RunDigester digester_b_;
};

}  // namespace byz::obs

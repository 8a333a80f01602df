#include "obs/digest.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace byz::obs {

std::string hex_u64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

const char* to_string(DigestDivergence::Level level) {
  switch (level) {
    case DigestDivergence::Level::kNone: return "none";
    case DigestDivergence::Level::kRun: return "run";
    case DigestDivergence::Level::kPhase: return "phase";
    case DigestDivergence::Level::kSubphase: return "subphase";
    case DigestDivergence::Level::kRound: return "round";
  }
  return "unknown";
}

DigestDivergence first_divergence(const DigestTrail& a, const DigestTrail& b) {
  using Level = DigestDivergence::Level;
  DigestDivergence out;

  // Phase level: first entry where label or digest disagrees, or where one
  // trail ends early.
  const std::size_t np = std::min(a.phases.size(), b.phases.size());
  bool phase_found = false;
  for (std::size_t i = 0; i < np && !phase_found; ++i) {
    if (a.phases[i].phase != b.phases[i].phase ||
        a.phases[i].digest != b.phases[i].digest) {
      out.phase = std::min(a.phases[i].phase, b.phases[i].phase);
      phase_found = true;
    }
  }
  if (!phase_found && a.phases.size() != b.phases.size()) {
    out.phase = (a.phases.size() > b.phases.size() ? a.phases : b.phases)[np]
                    .phase;
    phase_found = true;
  }
  if (!phase_found) {
    if (a.run_digest != b.run_digest || a.closed != b.closed) {
      out.level = Level::kRun;
    }
    return out;
  }
  out.level = Level::kPhase;

  // Subphase level, scoped to the divergent phase.
  std::vector<SubphaseDigest> sub_a, sub_b;
  for (const auto& s : a.subphases) {
    if (s.phase == out.phase) sub_a.push_back(s);
  }
  for (const auto& s : b.subphases) {
    if (s.phase == out.phase) sub_b.push_back(s);
  }
  const std::size_t ns = std::min(sub_a.size(), sub_b.size());
  bool sub_found = false;
  for (std::size_t i = 0; i < ns && !sub_found; ++i) {
    if (sub_a[i].subphase != sub_b[i].subphase ||
        sub_a[i].digest != sub_b[i].digest) {
      out.subphase = std::min(sub_a[i].subphase, sub_b[i].subphase);
      sub_found = true;
    }
  }
  if (!sub_found && sub_a.size() != sub_b.size()) {
    out.subphase = (sub_a.size() > sub_b.size() ? sub_a : sub_b)[ns].subphase;
    sub_found = true;
  }
  if (!sub_found) return out;
  out.level = Level::kSubphase;

  // Round level, scoped to the divergent subphase.
  std::vector<RoundDigest> rd_a, rd_b;
  for (const auto& r : a.rounds) {
    if (r.phase == out.phase && r.subphase == out.subphase) rd_a.push_back(r);
  }
  for (const auto& r : b.rounds) {
    if (r.phase == out.phase && r.subphase == out.subphase) rd_b.push_back(r);
  }
  const std::size_t nr = std::min(rd_a.size(), rd_b.size());
  for (std::size_t i = 0; i < nr; ++i) {
    if (rd_a[i].round != rd_b[i].round || rd_a[i].digest != rd_b[i].digest) {
      out.level = Level::kRound;
      out.round = std::min(rd_a[i].round, rd_b[i].round);
      return out;
    }
  }
  if (rd_a.size() != rd_b.size()) {
    out.level = Level::kRound;
    out.round = (rd_a.size() > rd_b.size() ? rd_a : rd_b)[nr].round;
  }
  return out;
}

RunDigester::RunDigester(std::uint64_t seed) : seed_(seed), run_acc_(seed) {}

void RunDigester::note(FlightEventKind kind, std::uint64_t a,
                       std::uint64_t b) {
  if (recorder_ == nullptr) return;
  recorder_->record({kind, phase_, subphase_, round_index_, a, b});
}

void RunDigester::begin_phase(std::uint32_t phase) {
  phase_ = phase;
  subphase_ = 0;
  phase_acc_ = mix2(seed_, phase);
}

void RunDigester::begin_subphase(std::uint32_t subphase) {
  subphase_ = subphase;
  subphase_acc_ = mix2(mix2(seed_, phase_), subphase);
  round_acc_ = 0;
}

void RunDigester::close_round(std::uint64_t tokens) {
  std::uint64_t digest =
      mix64(round_acc_ ^
            mix2(mix2(phase_, subphase_), mix2(round_index_, tokens)) ^ seed_);
  if (round_index_ == perturb_round_) digest ^= perturb_mask_;
  trail_.rounds.push_back({phase_, subphase_, round_index_, digest});
  subphase_acc_ = mix2(subphase_acc_, digest);
  if (recorder_ != nullptr) {
    recorder_->record({FlightEventKind::kRoundClose, phase_, subphase_,
                       round_index_, tokens, digest});
  }
  round_acc_ = 0;
  ++round_index_;
}

void RunDigester::close_subphase() {
  const std::uint64_t digest = mix64(subphase_acc_);
  trail_.subphases.push_back({phase_, subphase_, digest});
  phase_acc_ = mix2(phase_acc_, digest);
}

void RunDigester::close_phase() {
  const std::uint64_t digest = mix64(phase_acc_);
  trail_.phases.push_back({phase_, digest});
  run_acc_ = mix2(run_acc_, digest);
}

void RunDigester::close_run() {
  trail_.run_digest = mix64(run_acc_);
  trail_.closed = true;
}

namespace {

void append_tier_json(std::string& out, const std::string& name,
                      const DigestTrail& trail, const FlightRecorder* recorder,
                      const DigestDivergence& div) {
  using Level = DigestDivergence::Level;
  out += "    {\"name\": \"";
  detail::append_json_escaped(out, name);
  out += "\",\n     \"closed\": ";
  out += trail.closed ? "true" : "false";
  out += ",\n     \"run_digest\": \"" + hex_u64(trail.run_digest) + "\"";
  out += ",\n     \"phases_total\": " + std::to_string(trail.phases.size());
  out +=
      ",\n     \"subphases_total\": " + std::to_string(trail.subphases.size());
  out += ",\n     \"rounds_total\": " + std::to_string(trail.rounds.size());
  out += ",\n     \"phases\": [";
  for (std::size_t i = 0; i < trail.phases.size(); ++i) {
    if (i != 0) out += ", ";
    out += "{\"phase\": " + std::to_string(trail.phases[i].phase) +
           ", \"digest\": \"" + hex_u64(trail.phases[i].digest) + "\"}";
  }
  out += "]";
  // Subphase/round evidence is scoped to the divergent branch so the
  // report stays bounded on long runs.
  if (div.level == Level::kPhase || div.level == Level::kSubphase ||
      div.level == Level::kRound) {
    out += ",\n     \"divergent_phase_subphases\": [";
    bool first = true;
    for (const auto& s : trail.subphases) {
      if (s.phase != div.phase) continue;
      if (!first) out += ", ";
      first = false;
      out += "{\"subphase\": " + std::to_string(s.subphase) +
             ", \"digest\": \"" + hex_u64(s.digest) + "\"}";
    }
    out += "]";
  }
  if (div.level == Level::kSubphase || div.level == Level::kRound) {
    out += ",\n     \"divergent_subphase_rounds\": [";
    bool first = true;
    for (const auto& r : trail.rounds) {
      if (r.phase != div.phase || r.subphase != div.subphase) continue;
      if (!first) out += ", ";
      first = false;
      out += "{\"round\": " + std::to_string(r.round) + ", \"digest\": \"" +
             hex_u64(r.digest) + "\"}";
    }
    out += "]";
  }
  if (recorder != nullptr) {
    out += ",\n     \"flight_total\": " +
           std::to_string(recorder->total_recorded());
    out += ",\n     \"flight_tail\": " + flight_tail_json(*recorder);
  }
  out += "}";
}

}  // namespace

std::string forensics_json(const ForensicsInfo& info, const DigestTrail& a,
                           const DigestTrail& b,
                           const FlightRecorder* recorder_a,
                           const FlightRecorder* recorder_b) {
  const DigestDivergence div = first_divergence(a, b);
  std::string out;
  out += "{\n  \"schema\": \"byzobs/forensics/v1\",\n";
  out += "  \"scenario\": \"";
  detail::append_json_escaped(out, info.scenario);
  out += "\",\n  \"seed\": " + std::to_string(info.seed);
  out += ",\n  \"flags\": \"";
  detail::append_json_escaped(out, info.flags);
  out += "\",\n  \"detail\": \"";
  detail::append_json_escaped(out, info.detail);
  out += "\",\n  \"repro\": \"";
  std::string repro = "scenario=" + info.scenario +
                      " seed=" + std::to_string(info.seed);
  if (!info.flags.empty()) repro += " " + info.flags;
  detail::append_json_escaped(out, repro);
  out += "\",\n  \"first_divergence\": {\"level\": \"";
  out += to_string(div.level);
  out += "\", \"phase\": " + std::to_string(div.phase);
  out += ", \"subphase\": " + std::to_string(div.subphase);
  out += ", \"round\": " + std::to_string(div.round);
  out += "},\n  \"tiers\": [\n";
  append_tier_json(out, info.tier_a, a, recorder_a, div);
  out += ",\n";
  append_tier_json(out, info.tier_b, b, recorder_b, div);
  out += "\n  ]\n}\n";
  return out;
}

bool write_forensics_file(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

OracleAudit::OracleAudit(const AuditConfig& config, std::string tier_a,
                         std::string tier_b)
    : config_(config), tier_a_(std::move(tier_a)), tier_b_(std::move(tier_b)) {
  digester_a_.attach_recorder(&recorder_a_);
  digester_b_.attach_recorder(&recorder_b_);
  if (config.perturb_tier == 0) {
    digester_a_.set_perturbation(config.perturb_round, config.perturb_mask);
  } else if (config.perturb_tier == 1) {
    digester_b_.set_perturbation(config.perturb_round, config.perturb_mask);
  }
}

OracleVerdict OracleAudit::judge(bool outcomes_match,
                                 const std::string& file_tag) const {
  const DigestTrail& trail_a = digester_a_.trail();
  const DigestTrail& trail_b = digester_b_.trail();
  OracleVerdict verdict;
  verdict.trails_match = !first_divergence(trail_a, trail_b).diverged();
  verdict.passed = outcomes_match && verdict.trails_match;
  verdict.run_digest_a = trail_a.run_digest;
  verdict.run_digest_b = trail_b.run_digest;
  if (verdict.passed) return verdict;

  ForensicsInfo info;
  info.scenario = config_.scenario;
  info.seed = config_.seed;
  info.flags = config_.flags;
  info.detail = outcomes_match
                    ? "digest trails diverged (outcomes identical)"
                    : tier_a_ + " and " + tier_b_ + " outcomes diverged";
  info.tier_a = tier_a_;
  info.tier_b = tier_b_;
  verdict.forensics =
      forensics_json(info, trail_a, trail_b, &recorder_a_, &recorder_b_);
  if (!config_.out_dir.empty()) {
    const std::string path = config_.out_dir + "/forensics_" + file_tag +
                             "_" + std::to_string(config_.seed) + ".json";
    if (write_forensics_file(path, verdict.forensics)) {
      verdict.forensics_path = path;
    }
  }
  return verdict;
}

}  // namespace byz::obs

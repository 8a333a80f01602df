#include "bench_core/context.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "analysis/report.hpp"
#include "bench_core/registry.hpp"
#include "util/stats.hpp"

namespace byz::bench_core {

RunContext::RunContext(const ScenarioSpec& spec, const RunOptions& opts,
                       const TrialScheduler& scheduler)
    : spec_(spec),
      opts_(opts),
      scheduler_(scheduler),
      scale_(opts.scale),
      doc_(Json::object()) {
  // Only DETERMINISTIC content goes into the BENCH_<exp>.json doc: the
  // manifest must be bitwise identical for every --jobs value. Volatile run
  // facts (worker count, wall-time, observability) go into the RUNMETA
  // sidecar the orchestrator writes.
  doc_["schema"] = "byzbench/v1";
  doc_["experiment"] = spec.id;
  doc_["title"] = spec.title;
  doc_["scale"] = scale_;
  doc_["tables"] = Json::array();
  doc_["metrics"] = Json::object();
}

const std::string& RunContext::digest_out() const noexcept {
  return opts_.digest_out;
}

std::uint32_t RunContext::trials(std::uint32_t base) const {
  const double scaled = base * scale_;
  // Also false for NaN: the cast below is defined only for values that fit.
  if (!(scaled < 0x1p32)) {
    std::ostringstream msg;
    msg << "trials(" << base << ") at scale " << scale_
        << " is not a trial count in [1, 2^32 - 1]";
    throw std::invalid_argument(msg.str());
  }
  return scaled < 1.0 ? 1u : static_cast<std::uint32_t>(scaled);
}

std::uint32_t RunContext::max_exp(std::uint32_t fallback) const {
  std::uint32_t exp = analysis::env_max_exp(fallback);
  if (scale_ < 1.0) {
    const auto shrink =
        static_cast<std::uint32_t>(std::ceil(-std::log2(std::max(scale_, 1e-9))));
    exp = exp > shrink ? exp - shrink : 0;
  }
  return std::max(exp, 10u);
}

void RunContext::emit(const util::Table& table) {
  if (!opts_.quiet) analysis::emit(table);
  doc_["tables"].push_back(table_json(table));
}

void RunContext::line(const std::string& text) {
  if (!opts_.quiet) analysis::emit_line(text);
}

void RunContext::metric(const std::string& name, Json value) {
  doc_["metrics"][name] = std::move(value);
}

void RunContext::count_messages(const sim::Instrumentation& instr) {
  message_totals_.merge(instr);
  has_messages_ = true;
  doc_["metrics"]["messages"] = instrumentation_json(message_totals_);
}

void RunContext::record_accuracy(const std::string& name,
                                 std::span<const double> ratios) {
  doc_["metrics"]["accuracy"][name] = quantiles_json(ratios);
}

Json instrumentation_json(const sim::Instrumentation& instr) {
  Json j = Json::object();
  j["setup_messages"] = instr.setup_messages;
  j["token_messages"] = instr.token_messages;
  j["verify_messages"] = instr.verify_messages;
  j["total_messages"] = instr.total_messages();
  j["total_bytes"] = instr.total_bytes();
  j["flood_rounds"] = instr.flood_rounds;
  j["injections_attempted"] = instr.injections_attempted;
  j["injections_accepted"] = instr.injections_accepted;
  j["injections_caught"] = instr.injections_caught;
  j["crashes"] = instr.crashes;
  j["max_node_round_sends"] = instr.max_node_round_sends;
  return j;
}

Json quantiles_json(std::span<const double> sample) {
  Json j = Json::object();
  j["count"] = std::uint64_t{sample.size()};
  if (sample.empty()) return j;
  util::OnlineStats stats;
  for (const double v : sample) stats.add(v);
  j["mean"] = stats.mean();
  j["p10"] = util::percentile(sample, 0.10);
  j["p50"] = util::percentile(sample, 0.50);
  j["p90"] = util::percentile(sample, 0.90);
  j["min"] = stats.min();
  j["max"] = stats.max();
  return j;
}

Json table_json(const util::Table& table) {
  Json j = Json::object();
  j["title"] = table.title();
  Json columns = Json::array();
  for (const auto& c : table.header()) columns.push_back(c);
  j["columns"] = std::move(columns);
  Json rows = Json::array();
  for (const auto& r : table.rows()) {
    Json row = Json::array();
    for (const auto& cell : r) row.push_back(cell);
    rows.push_back(std::move(row));
  }
  j["rows"] = std::move(rows);
  Json notes = Json::array();
  for (const auto& n : table.notes()) notes.push_back(n);
  j["notes"] = std::move(notes);
  return j;
}

}  // namespace byz::bench_core

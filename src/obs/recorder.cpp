#include "obs/recorder.hpp"

namespace byz::obs {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kRoundClose: return "round_close";
    case FlightEventKind::kPhaseBegin: return "phase_begin";
    case FlightEventKind::kJoin: return "join";
    case FlightEventKind::kLeave: return "leave";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(const FlightEvent& event) noexcept {
  ring_[static_cast<std::size_t>(total_ % ring_.size())] = event;
  ++total_;
}

std::vector<FlightEvent> FlightRecorder::tail() const {
  std::vector<FlightEvent> out;
  const std::uint64_t kept =
      total_ < ring_.size() ? total_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = total_ - kept; i < total_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % ring_.size())]);
  }
  return out;
}

std::string flight_tail_json(const FlightRecorder& recorder) {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& e : recorder.tail()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"kind\": \"";
    out += to_string(e.kind);
    out += "\", \"phase\": " + std::to_string(e.phase);
    out += ", \"subphase\": " + std::to_string(e.subphase);
    out += ", \"round\": " + std::to_string(e.round);
    out += ", \"a\": " + std::to_string(e.a);
    out += ", \"b\": " + std::to_string(e.b);
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace byz::obs

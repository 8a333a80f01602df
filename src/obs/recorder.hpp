// Flight recorder: a bounded ring buffer of recent structured run events
// (round close, phase begin, membership changes) that is inert until a
// failure — nothing is rendered or written unless a divergence report asks
// for the tail. One recorder serves one run and is confined to the worker
// thread executing that run, so recording is a plain store into a
// preallocated ring: no locks, no atomics, no allocation past construction.
//
// Like every obs/ facility this is pure read-side (see obs.hpp): events
// describe protocol state, they never feed back into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace byz::obs {

enum class FlightEventKind : std::uint8_t {
  kRoundClose,  ///< a = token count this round, b = round digest
  kPhaseBegin,  ///< a = active count, b = admitted count
  kJoin,        ///< a = stable id, b = run id
  kLeave,       ///< a = run id, b = 1 if deferred (floor), else 0
  kNote,        ///< free-form marker (a, b caller-defined)
};

[[nodiscard]] const char* to_string(FlightEventKind kind);

/// One recorded event, stamped with the digester's hierarchical clock at
/// record time (phase/subphase/round; zero when outside the run loop).
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kNote;
  std::uint32_t phase = 0;
  std::uint32_t subphase = 0;
  std::uint64_t round = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

inline constexpr std::size_t kDefaultFlightCapacity = 256;

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultFlightCapacity);

  void record(const FlightEvent& event) noexcept;

  /// The retained events, oldest -> newest (at most capacity() entries).
  [[nodiscard]] std::vector<FlightEvent> tail() const;

  /// Total events ever recorded (>= tail().size(); the difference is how
  /// many the ring has evicted).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t total_ = 0;
};

/// JSON array rendering of a recorder's tail (oldest -> newest), used as
/// the "flight_tail" evidence block of a byzobs/forensics/v1 report.
[[nodiscard]] std::string flight_tail_json(const FlightRecorder& recorder);

}  // namespace byz::obs

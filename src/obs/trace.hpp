// Span tracer: RAII scoped spans buffered per-thread and exported as
// Chrome trace-event JSON ("traceEvents" of ph:"X" complete events),
// openable in Perfetto or chrome://tracing.
//
// A Span stamps steady-clock microseconds at construction and pushes one
// complete event into the calling thread's buffer at destruction; args
// attached in between land in the event's "args" object. Buffers are
// bounded (overflow is counted, never reallocated past the cap) and are
// moved into a retained list when their thread exits, so worker-pool
// spans survive the join. write_chrome_trace() merges every buffer,
// sorts by timestamp, and emits one JSON document with process/thread
// metadata records.
//
// Like every obs/ facility this is pure read-side (see obs.hpp): spans
// observe; they never influence protocol, RNG, or scheduling state. With
// the runtime switch off a Span is one relaxed load.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace byz::obs {

/// One recorded complete event (ph:"X").
struct TraceEvent {
  std::string name;
  std::uint64_t ts_us = 0;   ///< start, microseconds since process anchor
  std::uint64_t dur_us = 0;  ///< wall duration, microseconds
  std::uint32_t tid = 0;     ///< dense per-process thread index
  std::string args;          ///< pre-rendered JSON object body ("" = none)
};

/// Names the calling thread in the exported trace ("worker-3", ...).
void set_trace_thread_name(std::string_view name);

class Span {
 public:
  /// `name` must outlive the span (string literals at every call site).
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key to the event's args object. No-ops when inactive.
  Span& arg(const char* key, std::int64_t value);
  Span& arg(const char* key, double value);
  Span& arg(const char* key, const char* value);
  template <typename T>
    requires std::is_integral_v<T>
  Span& arg(const char* key, T value) {
    return arg(key, static_cast<std::int64_t>(value));
  }

 private:
  const char* name_;
  std::uint64_t start_us_ = 0;
  std::string args_;
  bool active_;
};

/// Point-in-time merge of every span buffer, timestamp-sorted.
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::uint32_t, std::string>> threads;  ///< tid, name
  std::uint64_t dropped = 0;  ///< spans lost to per-thread buffer caps
};

/// Merges retained + live thread buffers. Call after parallel sections
/// have joined; a still-recording thread's tail may be missed.
[[nodiscard]] TraceSnapshot trace_snapshot();

/// Chrome trace-event JSON document for a snapshot.
[[nodiscard]] std::string chrome_trace_json(const TraceSnapshot& snap);

/// Writes chrome_trace_json(trace_snapshot()) to `path`. False on I/O
/// error.
bool write_chrome_trace(const std::string& path);

/// Discards every buffered event (thread registrations persist). Tests.
void reset_trace();

}  // namespace byz::obs

// Observability master switch of the span tracer (src/obs/trace.hpp).
// Spans and their args are the one observability channel; the protocol's
// costs reach the BENCH manifests through RunResult and
// sim::Instrumentation.
//
// Recording starts disabled: every Span is one relaxed atomic load until
// set_enabled(true) (byzbench --trace-out, size_service --trace-out).
// Digesters and flight recorders do not read this switch; they record
// whenever a caller attaches them (obs/digest.hpp).
//
// Hard invariant: everything in obs/ is PURE READ-SIDE. It never draws
// from an RNG, never touches sim::Instrumentation, and never feeds a
// value back into protocol or scheduling decisions — so BENCH manifests
// are bitwise identical with observability on and off (CI-guarded).
#pragma once

#include <string>
#include <string_view>

namespace byz::obs {

/// Runtime master switch. Off by default; when off, every span returns
/// after a single relaxed load.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {

/// Appends `text` JSON-escaped (quotes, backslashes, control chars).
void append_json_escaped(std::string& out, std::string_view text);

/// Appends a double as JSON (shortest round-trip; nan/inf become 0).
void append_json_double(std::string& out, double value);

}  // namespace detail
}  // namespace byz::obs

// Observability master switch shared by the metrics registry and the span
// tracer (src/obs/metrics.hpp, src/obs/trace.hpp).
//
// Two gates, both defaulting to "off the hot path":
//   * compile time — building with -DBYZ_OBS_ENABLED=0 (CMake option
//     BYZCOUNT_OBS=OFF) turns every Counter/Histogram/Span into an
//     empty inline stub, so instrumented call sites cost nothing;
//   * run time — with the default build, recording still starts disabled:
//     every record call is one relaxed atomic load until set_enabled(true)
//     (byzbench --trace-out/--metrics-out, size_service --trace-out).
//
// Hard invariant: everything in obs/ is PURE READ-SIDE. It never draws
// from an RNG, never touches sim::Instrumentation, and never feeds a
// value back into protocol or scheduling decisions — so BENCH manifests
// are bitwise identical with observability on and off (CI-guarded).
#pragma once

#include <string>
#include <string_view>

#ifndef BYZ_OBS_ENABLED
#define BYZ_OBS_ENABLED 1
#endif

namespace byz::obs {

/// Runtime master switch. Off by default; when off, every metric/span
/// record call returns after a single relaxed load.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {

/// Appends `text` JSON-escaped (quotes, backslashes, control chars).
void append_json_escaped(std::string& out, std::string_view text);

/// Appends a double as JSON (shortest round-trip; nan/inf become 0).
void append_json_double(std::string& out, double value);

}  // namespace detail
}  // namespace byz::obs

#pragma once

#include <cstdint>

namespace dlb::sim {

/// Virtual time in integer nanoseconds.  Integer time plus a per-event
/// sequence number gives bit-deterministic event ordering: two runs with the
/// same seed produce identical schedules on every platform, which the model
/// validation (paper Tables 1-2) depends on.
using SimTime = std::int64_t;

inline constexpr SimTime kNsPerUs = 1'000;
inline constexpr SimTime kNsPerMs = 1'000'000;
inline constexpr SimTime kNsPerSec = 1'000'000'000;

/// Sentinel meaning "never" / unbounded.
inline constexpr SimTime kTimeInfinity = INT64_MAX;

/// True when `seconds` is finite and within SimTime's range, so that
/// from_seconds is defined for it.  A value from outside the program (a
/// flag, a plan) is checked with this before it is converted.
[[nodiscard]] constexpr bool fits_sim_time(double seconds) noexcept {
  const double ns = seconds * static_cast<double>(kNsPerSec);
  return ns > -0x1p63 && ns < 0x1p63;  // false for nan and +-inf
}

/// Converts seconds (double) to SimTime, rounding to the nearest nanosecond.
/// Requires fits_sim_time(seconds).
[[nodiscard]] constexpr SimTime from_seconds(double seconds) noexcept {
  const double ns = seconds * static_cast<double>(kNsPerSec);
  return static_cast<SimTime>(ns + (ns >= 0 ? 0.5 : -0.5));
}

[[nodiscard]] constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kNsPerSec);
}

[[nodiscard]] constexpr SimTime from_micros(double micros) noexcept {
  return from_seconds(micros * 1e-6);
}

}  // namespace dlb::sim

#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "support/rng.hpp"
#include "svc/job.hpp"

namespace dlb::svc {

/// Shape of the offered traffic.  Bursty is an MMPP on/off stream: it
/// alternates exponential ON phases (arrivals at rate lambda / on-fraction)
/// and OFF phases (no arrivals).  Its long-run rate equals lambda, so bursty
/// and Poisson cells at one rho offer the same load — only its variance
/// differs.
enum class ArrivalKind { kPoisson, kBursty };

/// Canonical spelling for the CLI and reports: "poisson" | "bursty".
[[nodiscard]] const char* arrival_name(ArrivalKind kind) noexcept;

/// Parses the CLI spelling `poisson` | `bursty`.
[[nodiscard]] ArrivalKind parse_arrival_kind(const std::string& text);

/// Deterministic virtual-time job stream: arrival instants of the shape at
/// long-run rate `rate_per_sec`, job class from the mix, and a load-variant
/// id selecting the salted load realization.  Arrival times, class draws and
/// variant draws come from three independent streams forked from the
/// seed-salted root, so changing the mix never perturbs the arrival process
/// (and vice versa).
class ArrivalGenerator {
 public:
  ArrivalGenerator(ArrivalKind kind, JobMix mix, double rate_per_sec, int load_variants,
                   std::uint64_t seed);

  /// Next job; arrival times are non-decreasing.
  [[nodiscard]] Job next();

  [[nodiscard]] const JobMix& mix() const noexcept { return mix_; }
  [[nodiscard]] double rate_per_sec() const noexcept { return rate_; }

 private:
  [[nodiscard]] double next_arrival_seconds();
  [[nodiscard]] double exp_draw(support::Rng& rng, double mean);

  ArrivalKind kind_;
  JobMix mix_;
  double rate_ = 1.0;
  int load_variants_ = 1;
  support::Rng arrival_rng_;
  support::Rng class_rng_;
  support::Rng variant_rng_;
  std::uint64_t next_id_ = 0;
  double clock_seconds_ = 0.0;
  // Bursty phase state.
  bool in_on_phase_ = true;
  double phase_end_seconds_ = 0.0;
  bool phase_initialized_ = false;
};

}  // namespace dlb::svc

#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "support/rng.hpp"
#include "svc/job.hpp"

namespace dlb::svc {

enum class ArrivalKind { kPoisson, kBursty };

/// Shape of the offered traffic.  Parsed from the CLI spelling
/// `poisson` | `bursty`; `label` keeps the canonical spelling for reports.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  std::string label = "poisson";
  /// Bursty (MMPP on/off) shape: the stream alternates exponential ON
  /// phases (arrivals at rate lambda / on_fraction) and OFF phases (no
  /// arrivals), with mean cycle length `cycle_seconds`.  The long-run rate
  /// equals lambda, so bursty and Poisson cells at one rho offer the same
  /// load — only its variance differs.
  double on_fraction = 0.25;
  double cycle_seconds = 40.0;

  void validate() const;
};

[[nodiscard]] ArrivalSpec parse_arrival_spec(const std::string& text);

/// Deterministic virtual-time job stream: arrival instants from the spec at
/// long-run rate `rate_per_sec`, job class from the mix, and a load-variant
/// id selecting the salted load realization.  Arrival times, class draws and
/// variant draws come from three independent streams forked from the
/// seed-salted root, so changing the mix never perturbs the arrival process
/// (and vice versa).
class ArrivalGenerator {
 public:
  ArrivalGenerator(ArrivalSpec spec, JobMix mix, double rate_per_sec, int load_variants,
                   std::uint64_t seed);

  /// Next job; arrival times are non-decreasing.
  [[nodiscard]] Job next();

  [[nodiscard]] const JobMix& mix() const noexcept { return mix_; }
  [[nodiscard]] double rate_per_sec() const noexcept { return rate_; }

 private:
  [[nodiscard]] double next_arrival_seconds();
  [[nodiscard]] double exp_draw(support::Rng& rng, double mean);

  ArrivalSpec spec_;
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

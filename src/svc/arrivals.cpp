#include "svc/arrivals.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb::svc {

namespace {

// Stream ids for the forks of the seed-salted root; fixed constants so the
// streams are stable across releases.
constexpr std::uint64_t kArrivalStream = 0x41525256ULL;  // "ARRV"
constexpr std::uint64_t kClassStream = 0x434c5353ULL;    // "CLSS"
constexpr std::uint64_t kVariantStream = 0x56524e54ULL;  // "VRNT"

/// Bursty shape: the share of time ON, and the mean ON + OFF cycle length.
constexpr double kBurstyOnFraction = 0.25;
constexpr double kBurstyCycleSeconds = 40.0;

}  // namespace

const char* arrival_name(ArrivalKind kind) noexcept {
  return kind == ArrivalKind::kPoisson ? "poisson" : "bursty";
}

ArrivalKind parse_arrival_kind(const std::string& text) {
  if (text == "poisson") return ArrivalKind::kPoisson;
  if (text == "bursty") return ArrivalKind::kBursty;
  throw std::invalid_argument("parse_arrival_kind: unknown arrival shape '" + text +
                              "' (try poisson|bursty)");
}

ArrivalGenerator::ArrivalGenerator(ArrivalKind kind, JobMix mix, double rate_per_sec,
                                   int load_variants, std::uint64_t seed)
    : kind_(kind),
      mix_(std::move(mix)),
      rate_(rate_per_sec),
      load_variants_(load_variants),
      arrival_rng_(support::Rng(seed).fork(kArrivalStream)),
      class_rng_(support::Rng(seed).fork(kClassStream)),
      variant_rng_(support::Rng(seed).fork(kVariantStream)) {
  mix_.validate();
  if (!(rate_ > 0.0) || !std::isfinite(rate_)) {
    throw std::invalid_argument("ArrivalGenerator: rate must be finite and > 0");
  }
  if (load_variants_ < 1) {
    throw std::invalid_argument("ArrivalGenerator: load_variants must be >= 1");
  }
}

double ArrivalGenerator::exp_draw(support::Rng& rng, double mean) {
  // Inverse CDF on u in [0, 1): -mean * ln(1 - u).  u == 0 maps to 0, and
  // 1 - u never reaches 0, so the draw is always finite.
  return -mean * std::log(1.0 - rng.uniform01());
}

double ArrivalGenerator::next_arrival_seconds() {
  switch (kind_) {
    case ArrivalKind::kPoisson:
      clock_seconds_ += exp_draw(arrival_rng_, 1.0 / rate_);
      return clock_seconds_;
    case ArrivalKind::kBursty: {
      constexpr double mean_on = kBurstyOnFraction * kBurstyCycleSeconds;
      constexpr double mean_off = (1.0 - kBurstyOnFraction) * kBurstyCycleSeconds;
      const double rate_on = rate_ / kBurstyOnFraction;
      if (!phase_initialized_) {
        phase_initialized_ = true;
        in_on_phase_ = true;
        phase_end_seconds_ = exp_draw(arrival_rng_, mean_on);
      }
      // Memorylessness lets each phase crossing restart the exponential
      // inter-arrival clock at the boundary without biasing the process.
      for (;;) {
        if (in_on_phase_) {
          const double candidate = clock_seconds_ + exp_draw(arrival_rng_, 1.0 / rate_on);
          if (candidate <= phase_end_seconds_) {
            clock_seconds_ = candidate;
            return clock_seconds_;
          }
          clock_seconds_ = phase_end_seconds_;
          in_on_phase_ = false;
          phase_end_seconds_ += exp_draw(arrival_rng_, mean_off);
        } else {
          clock_seconds_ = phase_end_seconds_;
          in_on_phase_ = true;
          phase_end_seconds_ += exp_draw(arrival_rng_, mean_on);
        }
      }
    }
  }
  throw std::logic_error("ArrivalGenerator: unreachable arrival kind");
}

Job ArrivalGenerator::next() {
  Job job;
  job.id = next_id_++;
  job.arrival_seconds = next_arrival_seconds();
  // The class and variant streams advance once per job regardless of the
  // arrival shape, so swapping poisson for bursty never perturbs the other
  // streams.
  job.class_index = mix_.class_for(class_rng_.uniform01());
  job.load_variant =
      static_cast<int>(variant_rng_.uniform_int(0, load_variants_ - 1));
  return job;
}

}  // namespace dlb::svc

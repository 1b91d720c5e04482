#pragma once

#include <cstddef>
#include <vector>

#include "net/params.hpp"
#include "net/patterns.hpp"
#include "support/polyfit.hpp"

namespace dlb::net {

/// Fitted cost functions sigma(P) for the three patterns, in seconds, plus
/// the point-to-point latency and bandwidth — the complete "network
/// parameters" input of the cost model (§4.1).  The paper builds exactly this
/// off-line: measure each pattern for a range of P, then polyfit.
struct CollectiveCosts {
  support::Polynomial one_to_all;
  support::Polynomial all_to_one;
  support::Polynomial all_to_all;
  double latency_seconds = 0.0;    // single small-message end-to-end time (L)
  double bandwidth_bytes = 0.0;    // sustained point-to-point bandwidth (B)

  /// sigma for the centralized synchronization: one-to-all + all-to-one.
  [[nodiscard]] double sync_centralized(int procs) const;
  /// sigma for the distributed synchronization: one-to-all + all-to-all.
  [[nodiscard]] double sync_distributed(int procs) const;

  [[nodiscard]] double eval(Pattern pattern, int procs) const;
};

/// One measured sample for one pattern.
struct PatternSample {
  Pattern pattern{};
  int procs = 0;
  double seconds = 0.0;
};

/// Result of a characterization sweep: raw samples and fits (and their R^2).
struct Characterization {
  std::vector<PatternSample> samples;
  CollectiveCosts costs;
  double r2_one_to_all = 0.0;
  double r2_all_to_one = 0.0;
  double r2_all_to_all = 0.0;
};

/// Measures all three patterns for P = 2..max_procs with control-message
/// (kControlMessageBytes) frames and fits quadratics (degree 2 captures the
/// quadratic all-to-all while staying honest for the linear patterns).
/// Each sample is measure_pattern's closed form, bit-equal to the simulated
/// run, so a call costs O(max_procs^2) arithmetic and no events.
[[nodiscard]] Characterization characterize(const EthernetParams& params, int max_procs);

}  // namespace dlb::net

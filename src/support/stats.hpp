#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlb::support {

/// Summary statistics over a sample (used when averaging runs across seeds).
struct Summary {
  double mean = 0.0;
  double stdev = 0.0;  // sample standard deviation (n-1), 0 for n < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] Summary summarize(std::span<const double> samples);

[[nodiscard]] double mean_of(std::span<const double> samples);

/// Exact nearest-rank percentiles: for each q of `quantiles` (ascending, each
/// in (0, 1]), the value at ascending rank ceil(q * n).  Always an actual
/// sample (never an interpolation), so the reported p50/p99/p999 are
/// bit-identical wherever the sample multiset is identical — the SLA
/// determinism guarantee of service mode.  One selection pass: each rank is
/// selected only within the suffix past the previous one.  Partially
/// reorders `samples` in place (nth_element); requires a non-empty span.
[[nodiscard]] std::vector<double> percentiles_nearest_rank(std::span<double> samples,
                                                           std::span<const double> quantiles);

}  // namespace dlb::support

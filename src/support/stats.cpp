#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace dlb::support {

Summary summarize(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("summarize: empty sample");
  Summary s;
  s.count = samples.size();
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  const std::size_t n = sorted.size();
  s.median = (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  double total = 0.0;
  for (double v : sorted) total += v;
  s.mean = total / static_cast<double>(n);
  if (n >= 2) {
    double ss = 0.0;
    for (double v : sorted) {
      const double d = v - s.mean;
      ss += d * d;
    }
    s.stdev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return s;
}

double mean_of(std::span<const double> samples) { return summarize(samples).mean; }

std::vector<double> percentiles_nearest_rank(std::span<double> samples,
                                             std::span<const double> quantiles) {
  if (samples.empty()) throw std::invalid_argument("percentiles_nearest_rank: empty sample");
  const auto n = samples.size();
  std::vector<double> out;
  out.reserve(quantiles.size());
  // Every sample before `first` is <= every sample from it on, so a higher
  // rank is selected within [first, end) alone.
  auto first = samples.begin();
  double previous = 0.0;
  for (const double q : quantiles) {
    if (!(q > 0.0) || !(q <= 1.0)) {
      throw std::invalid_argument("percentiles_nearest_rank: q must be in (0, 1]");
    }
    if (q < previous) {
      throw std::invalid_argument("percentiles_nearest_rank: quantiles must ascend");
    }
    previous = q;
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(first, nth, samples.end());
    out.push_back(*nth);
    first = nth;
  }
  return out;
}

}  // namespace dlb::support

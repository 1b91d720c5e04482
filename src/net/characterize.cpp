#include "net/characterize.hpp"

#include <stdexcept>

#include "sim/time.hpp"

namespace dlb::net {

double CollectiveCosts::eval(Pattern pattern, int procs) const {
  if (procs < 2) return 0.0;  // a "collective" among one processor is free
  const double p = static_cast<double>(procs);
  switch (pattern) {
    case Pattern::kOneToAll:
      return one_to_all(p);
    case Pattern::kAllToOne:
      return all_to_one(p);
    case Pattern::kAllToAll:
      return all_to_all(p);
  }
  return 0.0;
}

double CollectiveCosts::sync_centralized(int procs) const {
  return eval(Pattern::kOneToAll, procs) + eval(Pattern::kAllToOne, procs);
}

double CollectiveCosts::sync_distributed(int procs) const {
  return eval(Pattern::kOneToAll, procs) + eval(Pattern::kAllToAll, procs);
}

Characterization characterize(const EthernetParams& params, int max_procs) {
  if (max_procs < 3) throw std::invalid_argument("characterize: need max_procs >= 3");
  constexpr std::size_t kFitDegree = 2;

  Characterization out;
  std::vector<double> procs_axis;
  std::vector<double> oa;
  std::vector<double> ao;
  std::vector<double> aa;
  for (int p = 2; p <= max_procs; ++p) {
    const double t_oa = measure_pattern(Pattern::kOneToAll, p, kControlMessageBytes, params);
    const double t_ao = measure_pattern(Pattern::kAllToOne, p, kControlMessageBytes, params);
    const double t_aa = measure_pattern(Pattern::kAllToAll, p, kControlMessageBytes, params);
    out.samples.push_back({Pattern::kOneToAll, p, t_oa});
    out.samples.push_back({Pattern::kAllToOne, p, t_ao});
    out.samples.push_back({Pattern::kAllToAll, p, t_aa});
    procs_axis.push_back(static_cast<double>(p));
    oa.push_back(t_oa);
    ao.push_back(t_ao);
    aa.push_back(t_aa);
  }

  out.costs.one_to_all = support::polyfit(procs_axis, oa, kFitDegree);
  out.costs.all_to_one = support::polyfit(procs_axis, ao, kFitDegree);
  out.costs.all_to_all = support::polyfit(procs_axis, aa, kFitDegree);
  out.r2_one_to_all = support::r_squared(out.costs.one_to_all, procs_axis, oa);
  out.r2_all_to_one = support::r_squared(out.costs.all_to_one, procs_axis, ao);
  out.r2_all_to_all = support::r_squared(out.costs.all_to_all, procs_axis, aa);

  out.costs.latency_seconds = sim::to_seconds(params.message_latency(1));
  out.costs.bandwidth_bytes = params.bandwidth_bytes_per_sec;
  return out;
}

}  // namespace dlb::net

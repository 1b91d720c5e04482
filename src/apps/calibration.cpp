#include "apps/calibration.hpp"

#include "sim/time.hpp"

namespace dlb::apps {

cluster::ClusterParams Calibration::cluster(int procs) const {
  cluster::ClusterParams params;
  params.procs = procs;
  params.base_ops_per_sec = base_ops_per_sec;
  params.load.persistence = sim::from_seconds(tl_seconds);
  return params;
}

}  // namespace dlb::apps

#include "core/groups.hpp"

#include "cluster/cluster.hpp"

namespace dlb::core {

std::vector<std::vector<int>> form_groups(int procs, const DlbConfig& config) {
  return cluster::Cluster::kblock_groups(procs, config.effective_group_size(procs));
}

}  // namespace dlb::core

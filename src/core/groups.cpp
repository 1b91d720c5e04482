#include "core/groups.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dlb::core {

std::vector<std::vector<int>> form_groups(int procs, const DlbConfig& config) {
  if (procs < 1) throw std::invalid_argument("form_groups: procs < 1");
  const int group_size = config.effective_group_size(procs);
  if (group_size > procs) throw std::invalid_argument("form_groups: group_size > procs");
  std::vector<std::vector<int>> groups;
  for (int start = 0; start < procs; start += group_size) {
    std::vector<int> group;
    for (int i = start; i < std::min(start + group_size, procs); ++i) group.push_back(i);
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace dlb::core

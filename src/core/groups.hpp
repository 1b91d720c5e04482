#pragma once

#include <vector>

#include "core/types.hpp"

namespace dlb::core {

/// The static group partition for the local strategies (§3.5): contiguous
/// K-blocks of `config.effective_group_size(procs)` (remainder to the last
/// group), the paper's experiments' choice.  On the fully connected uniform
/// network K-nearest neighbours coincide with K-blocks; the global
/// strategies get one group of P.
[[nodiscard]] std::vector<std::vector<int>> form_groups(int procs, const DlbConfig& config);

}  // namespace dlb::core

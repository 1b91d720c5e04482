#pragma once

#include <span>
#include <string>
#include <vector>

namespace dlb::support {

/// Rank-agreement metrics used to score the model's predicted strategy order
/// against the measured order (paper Tables 1 and 2 report the two orders side
/// by side; we additionally quantify how close they are).

/// Kendall tau-a between two orderings of the same item set.  Each vector
/// lists item ids best-first.  Returns a value in [-1, 1].
/// Throws std::invalid_argument if the vectors are not permutations of the
/// same ids.
[[nodiscard]] double kendall_tau(std::span<const int> order_a, std::span<const int> order_b);

/// Number of positions at which the orderings agree.
[[nodiscard]] int positions_matched(std::span<const int> order_a, std::span<const int> order_b);

/// Sorts item indices best-first by ascending cost, breaking ties by index so
/// output is deterministic.
[[nodiscard]] std::vector<int> rank_by_cost(std::span<const double> costs);

/// Joins labels of an ordering for table cells, e.g. "GD GC LD LC".
[[nodiscard]] std::string format_order(std::span<const int> order,
                                       std::span<const std::string> labels);

}  // namespace dlb::support

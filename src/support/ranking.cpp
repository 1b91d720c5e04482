#include "support/ranking.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dlb::support {

namespace {

std::vector<int> positions_of(std::span<const int> order) {
  int max_id = -1;
  for (int id : order) max_id = std::max(max_id, id);
  std::vector<int> pos(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int id = order[i];
    if (id < 0 || pos[static_cast<std::size_t>(id)] != -1) {
      throw std::invalid_argument("ranking: ordering is not a permutation");
    }
    pos[static_cast<std::size_t>(id)] = static_cast<int>(i);
  }
  return pos;
}

}  // namespace

double kendall_tau(std::span<const int> order_a, std::span<const int> order_b) {
  if (order_a.size() != order_b.size()) throw std::invalid_argument("ranking: size mismatch");
  const std::size_t n = order_a.size();
  if (n < 2) return 1.0;
  const auto pos_b = positions_of(order_b);
  // Verify b covers exactly a's ids.
  for (int id : order_a) {
    if (id < 0 || static_cast<std::size_t>(id) >= pos_b.size() ||
        pos_b[static_cast<std::size_t>(id)] == -1) {
      throw std::invalid_argument("ranking: orderings cover different ids");
    }
  }
  long long concordant = 0;
  long long discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const int bi = pos_b[static_cast<std::size_t>(order_a[i])];
      const int bj = pos_b[static_cast<std::size_t>(order_a[j])];
      if (bi < bj) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const auto pairs = static_cast<double>(n * (n - 1) / 2);
  return static_cast<double>(concordant - discordant) / pairs;
}

int positions_matched(std::span<const int> order_a, std::span<const int> order_b) {
  if (order_a.size() != order_b.size()) throw std::invalid_argument("ranking: size mismatch");
  int matched = 0;
  for (std::size_t i = 0; i < order_a.size(); ++i) {
    if (order_a[i] == order_b[i]) ++matched;
  }
  return matched;
}

std::vector<int> rank_by_cost(std::span<const double> costs) {
  std::vector<int> idx(costs.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return costs[static_cast<std::size_t>(a)] < costs[static_cast<std::size_t>(b)];
  });
  return idx;
}

std::string format_order(std::span<const int> order, std::span<const std::string> labels) {
  std::string out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i != 0) out += ' ';
    out += labels[static_cast<std::size_t>(order[i])];
  }
  return out;
}

}  // namespace dlb::support

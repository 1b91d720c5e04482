#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "support/rng.hpp"

namespace dlb::load {

/// Parameters of the discrete random external-load function (paper §4.1):
/// every `persistence` (t_l) interval the load level is redrawn uniformly
/// from {0, 1, ..., max_load} (m_l).  The paper fixes m_l = 5 in all runs.
struct LoadParams {
  int max_load = 5;                                   // m_l
  sim::SimTime persistence = sim::from_seconds(1.0);  // t_l
};

/// One discrete random load function l_i(k) (Fig. 2): a step function over
/// persistence blocks, lazily generated from a seeded stream and cached so
/// that both the run-time system and the cost model observe the *same*
/// realization.  The effective speed of a processor with bare speed S under
/// load l is S / (l + 1).
class LoadFunction {
 public:
  LoadFunction(LoadParams params, support::Rng rng);

  /// Load level during the block containing virtual time `t` (t >= 0).
  [[nodiscard]] int level_at(sim::SimTime t);

  /// Load level of block index k (blocks are [k*t_l, (k+1)*t_l)).
  [[nodiscard]] int level_of_block(std::int64_t k);

  struct Segment {
    int level;
    sim::SimTime begin;
    sim::SimTime end;
  };
  /// The constant-load segment containing `t`.
  [[nodiscard]] Segment segment_at(sim::SimTime t);

  /// Slowdown factor l(t) + 1 (>= 1).
  [[nodiscard]] double slowdown_at(sim::SimTime t) { return 1.0 + level_at(t); }

  [[nodiscard]] const LoadParams& params() const noexcept { return params_; }

 private:
  void ensure_generated(std::int64_t block);

  LoadParams params_;
  support::Rng rng_;
  std::vector<int> levels_;
};

}  // namespace dlb::load

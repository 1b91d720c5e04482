#include "load/load_function.hpp"

#include <stdexcept>

namespace dlb::load {

LoadFunction::LoadFunction(LoadParams params, support::Rng rng) : params_(params), rng_(rng) {
  if (params_.max_load < 0) throw std::invalid_argument("LoadFunction: negative max_load");
  if (params_.persistence <= 0) throw std::invalid_argument("LoadFunction: persistence must be > 0");
}

LoadFunction::LoadFunction(LoadParams params, std::vector<int> scripted_levels)
    : params_(params), rng_(0), levels_(std::move(scripted_levels)), scripted_(true) {
  if (params_.persistence <= 0) throw std::invalid_argument("LoadFunction: persistence must be > 0");
  if (levels_.empty()) throw std::invalid_argument("LoadFunction: empty script");
  for (const int level : levels_) {
    if (level < 0) throw std::invalid_argument("LoadFunction: negative scripted level");
  }
}

void LoadFunction::ensure_generated(std::int64_t block) {
  while (static_cast<std::int64_t>(levels_.size()) <= block) {
    levels_.push_back(scripted_ ? levels_.back()
                                : static_cast<int>(rng_.uniform_int(0, params_.max_load)));
  }
}

int LoadFunction::level_of_block(std::int64_t k) {
  if (k < 0) throw std::invalid_argument("LoadFunction: negative block index");
  ensure_generated(k);
  return levels_[static_cast<std::size_t>(k)];
}

int LoadFunction::level_at(sim::SimTime t) {
  if (t < 0) throw std::invalid_argument("LoadFunction: negative time");
  return level_of_block(t / params_.persistence);
}

LoadFunction::Segment LoadFunction::segment_at(sim::SimTime t) {
  const std::int64_t k = t / params_.persistence;
  return Segment{level_of_block(k), k * params_.persistence, (k + 1) * params_.persistence};
}

LoadFunction constant_load(int level, sim::SimTime persistence) {
  return LoadFunction(LoadParams{level, persistence}, std::vector<int>{level});
}

}  // namespace dlb::load

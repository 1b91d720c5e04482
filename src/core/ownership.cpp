#include "core/ownership.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlb::core {

IterationSet::IterationSet(IterRange initial) {
  if (!initial.empty()) ranges_.push_back(initial);
}

IterationSet IterationSet::block_partition(std::int64_t iterations, int procs, int who) {
  if (iterations < 0) throw std::invalid_argument("block_partition: negative iterations");
  if (procs < 1) throw std::invalid_argument("block_partition: procs < 1");
  if (who < 0 || who >= procs) throw std::invalid_argument("block_partition: who out of range");
  const std::int64_t base = iterations / procs;
  const std::int64_t extra = iterations % procs;
  const std::int64_t my_size = base + (who < extra ? 1 : 0);
  const std::int64_t my_lo =
      static_cast<std::int64_t>(who) * base + std::min<std::int64_t>(who, extra);
  return IterationSet(IterRange{my_lo, my_lo + my_size});
}

std::int64_t IterationSet::size() const noexcept {
  std::int64_t total = 0;
  for (const auto& r : ranges_) total += r.size();
  return total;
}

std::int64_t IterationSet::pop_front() {
  if (ranges_.empty()) throw std::logic_error("IterationSet: pop of empty set");
  const std::int64_t index = ranges_.front().lo;
  if (++ranges_.front().lo >= ranges_.front().hi) ranges_.erase(ranges_.begin());
  return index;
}

void IterationSet::drop_front(std::int64_t count) {
  if (count < 0 || count > size()) throw std::invalid_argument("IterationSet: bad drop count");
  auto first_kept = ranges_.begin();
  while (count > 0 && count >= first_kept->size()) {
    count -= first_kept->size();
    ++first_kept;
  }
  ranges_.erase(ranges_.begin(), first_kept);
  if (count > 0) ranges_.front().lo += count;
}

std::vector<IterRange> IterationSet::take_back(std::int64_t count) {
  if (count < 0 || count > size()) throw std::invalid_argument("IterationSet: bad take count");
  std::vector<IterRange> taken;
  std::int64_t remaining = count;
  while (remaining > 0) {
    IterRange& back = ranges_.back();
    const std::int64_t from_this = std::min(remaining, back.size());
    taken.push_back(IterRange{back.hi - from_this, back.hi});
    back.hi -= from_this;
    remaining -= from_this;
    if (back.empty()) ranges_.pop_back();
  }
  std::reverse(taken.begin(), taken.end());
  return taken;
}

void IterationSet::add(IterRange range) {
  if (range.empty()) return;
  for (const auto& r : ranges_) {
    if (range.lo < r.hi && r.lo < range.hi) {
      throw std::invalid_argument("IterationSet: overlapping add");
    }
  }
  const auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), range,
      [](const IterRange& a, const IterRange& b) { return a.lo < b.lo; });
  ranges_.insert(it, range);
  coalesce();
}

void IterationSet::coalesce() {
  std::vector<IterRange> merged;
  for (const auto& r : ranges_) {
    if (!merged.empty() && merged.back().hi == r.lo) {
      merged.back().hi = r.hi;
    } else {
      merged.push_back(r);
    }
  }
  ranges_ = std::move(merged);
}

double IterationSet::ops(std::span<const double> work) const {
  double total = 0.0;
  for (const auto& r : ranges_) {
    if (r.hi > static_cast<std::int64_t>(work.size())) {
      throw std::out_of_range("IterationSet: work table shorter than the owned ranges");
    }
    double range_ops = 0.0;
    for (std::int64_t j = r.lo; j < r.hi; ++j) range_ops += work[static_cast<std::size_t>(j)];
    total += range_ops;
  }
  return total;
}

}  // namespace dlb::core

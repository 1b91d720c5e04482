#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace dlb::core {

/// A half-open range [lo, hi) of loop iteration indices.
struct IterRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] std::int64_t size() const noexcept { return hi - lo; }
  [[nodiscard]] bool empty() const noexcept { return hi <= lo; }
  friend bool operator==(const IterRange&, const IterRange&) = default;
};

/// The set of iterations a processor currently owns: an ordered list of
/// disjoint, coalesced ranges.  Work is *executed* from the front and
/// *migrated* from the back (the coolest iterations, farthest from being
/// reached, are the ones shipped away).
///
/// Invariant maintained across every operation and property-tested in the
/// suite: the union of all processors' sets plus the executed prefix exactly
/// partitions [0, iterations).
class IterationSet {
 public:
  IterationSet() = default;
  explicit IterationSet(IterRange initial);

  /// Equal static block partition of [0, iterations) among `procs`
  /// processors (the compiler's initial distribution, §3.5): processor `who`
  /// gets the `who`-th block, with the first `iterations % procs` blocks one
  /// iteration longer.
  [[nodiscard]] static IterationSet block_partition(std::int64_t iterations, int procs, int who);

  [[nodiscard]] std::int64_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::vector<IterRange>& ranges() const noexcept { return ranges_; }

  /// Removes and returns the next iteration to execute.
  std::int64_t pop_front();

  /// Removes the first `count` iterations (an executed prefix).  Throws if
  /// count > size().
  void drop_front(std::int64_t count);

  /// Removes up to `count` iterations from the back and returns them as
  /// ranges in ascending order (the shipment).  Throws if count > size().
  [[nodiscard]] std::vector<IterRange> take_back(std::int64_t count);

  /// Adds a range (from a received shipment).  Throws if it overlaps an
  /// owned range.
  void add(IterRange range);

  /// Total work in basic ops of the owned iterations, where `work[j]` is
  /// iteration j's work: each range summed in index order from 0.0, then
  /// the ranges in order.
  [[nodiscard]] double ops(std::span<const double> work) const;

 private:
  void coalesce();
  std::vector<IterRange> ranges_;  // sorted by lo, disjoint, non-empty
};

}  // namespace dlb::core

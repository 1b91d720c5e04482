#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace dlb::sched {

/// The central task-queue loop-scheduling schemes the paper surveys in §2.2
/// (its related work) — implemented as baselines for the ablation benchmark
/// comparing the DLB strategies against classic self-scheduling variants.
enum class QueueScheme {
  kSelfScheduling,  // one iteration at a time [Tang/Yew 86]
  kFixedChunk,      // K iterations at a time [Kruskal/Weiss 85]
  kGuided,          // ceil(remaining / P) [Polychronopoulos/Kuck 87]
  kFactoring,       // batches of half the remaining, split P ways [Hummel+ 92]
  kTrapezoid,       // linearly decreasing chunks [Tzen/Ni 93]
};

[[nodiscard]] const char* queue_scheme_name(QueueScheme s) noexcept;

/// Stateful chunk-size policy: `next(remaining)` returns how many iterations
/// the queue hands to the requesting processor.  Pure logic, no simulation —
/// independently unit-tested.
class ChunkPolicy {
 public:
  virtual ~ChunkPolicy() = default;
  /// Returns the next chunk size in [1, remaining]; `remaining` > 0.
  [[nodiscard]] virtual std::int64_t next(std::int64_t remaining) = 0;
};

/// The K of fixed-size chunking.
inline constexpr std::int64_t kFixedChunk = 8;

/// Factory.  `total_iterations` and `procs` parameterize GSS/factoring/TSS.
[[nodiscard]] std::unique_ptr<ChunkPolicy> make_chunk_policy(QueueScheme scheme,
                                                             std::int64_t total_iterations,
                                                             int procs);

}  // namespace dlb::sched

#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"
#include "sched/chunk_policy.hpp"

namespace dlb::sched {

/// Runs a single-loop application under a central task queue handing out
/// chunks by `scheme` (QueueScheme::kFixedChunk hands out sched::kFixedChunk)
/// on the simulated NOW: the queue lives on processor 0 (which also computes);
/// slaves request chunks over the network, paying the full message costs the
/// shared-memory formulations of these schemes get for free — exactly the
/// mismatch the paper's receiver-initiated DLB is designed around.
///
/// RunResult reuse: `events` records one SyncEvent per chunk handout
/// (iterations_moved = chunk size), so syncs == number of queue requests.
[[nodiscard]] core::RunResult run_task_queue(const cluster::ClusterParams& params,
                                             const core::AppDescriptor& app,
                                             QueueScheme scheme);

}  // namespace dlb::sched

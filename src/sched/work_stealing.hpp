#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"

namespace dlb::sched {

/// Receiver-initiated work-stealing baselines from the paper's survey
/// (§2.2), run on the same simulated NOW:
///
///  kRandomHalf — Phish [Blumofe/Park 94]: an out-of-work thief picks a
///    victim at random and steals half of its remaining iterations; if the
///    victim cannot satisfy the request, another victim is selected.
///
///  kAffinity — affinity scheduling [Markatos/LeBlanc 94], translated to
///    message passing: the idle processor queries everyone's remaining work,
///    then removes 1/P of the *most loaded* processor's queue.
enum class StealPolicy { kRandomHalf, kAffinity };

[[nodiscard]] const char* steal_policy_name(StealPolicy p) noexcept;

/// Runs a single-loop application under work stealing by `policy`.  A
/// worker retires after one full sweep of victims yields no work (retired
/// workers keep answering steal requests with "nothing").  `events` records
/// one SyncEvent per successful steal (iterations_moved = stolen count).
[[nodiscard]] core::RunResult run_work_stealing(const cluster::ClusterParams& params,
                                                const core::AppDescriptor& app,
                                                StealPolicy policy);

}  // namespace dlb::sched

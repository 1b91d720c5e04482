// Ablation A4: the paper's DLB strategies vs the classic central-task-queue
// loop schedulers of its §2.2 survey (self-scheduling, fixed-size chunking,
// guided self-scheduling, factoring, trapezoid), all on the same simulated
// NOW.  On a message-passing network the per-chunk queue round trips that
// are free on shared memory become real 2.4 ms latencies — the motivation
// for the paper's interrupt-based receiver-initiated design.

#include <iostream>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "bench_common.hpp"
#include "sched/task_queue.hpp"
#include "sched/work_stealing.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace dlb;
  const auto args = bench::parse_bench_args(argc, argv);

  const auto app = apps::make_mxm({400, 400, 400});
  auto params = apps::kMxmCalibration.cluster(4);

  std::cout << "Ablation A4: DLB vs task-queue schedulers (MXM P=4, " << args.seeds
            << " seeds)\n\n";
  support::Table table({"scheme", "time [s]", "normalized", "queue msgs / syncs"});

  const auto baseline =
      bench::measure_scheme(params, app, core::Strategy::kNoDlb, args.seeds, args.seed0);
  table.add_row({"NoDLB (static)", support::fmt_fixed(baseline.mean_seconds, 3), "1.000", "0"});

  for (const auto strategy : {core::Strategy::kGDDLB, core::Strategy::kLDDLB}) {
    const auto r = bench::measure_scheme(params, app, strategy, args.seeds, args.seed0);
    table.add_row({core::strategy_name(r.strategy), support::fmt_fixed(r.mean_seconds, 3),
                   support::fmt_fixed(r.mean_seconds / baseline.mean_seconds, 3),
                   support::fmt_fixed(r.mean_syncs, 1)});
  }

  for (const auto scheme :
       {sched::QueueScheme::kSelfScheduling, sched::QueueScheme::kFixedChunk,
        sched::QueueScheme::kGuided, sched::QueueScheme::kFactoring,
        sched::QueueScheme::kTrapezoid}) {
    std::vector<double> times;
    double requests = 0.0;
    for (int s = 0; s < args.seeds; ++s) {
      params.seed = args.seed0 + static_cast<std::uint64_t>(s);
      const auto r = sched::run_task_queue(params, app, scheme);
      times.push_back(r.exec_seconds);
      requests += r.loops[0].syncs;
    }
    const double mean = support::mean_of(times);
    table.add_row({sched::queue_scheme_name(scheme), support::fmt_fixed(mean, 3),
                   support::fmt_fixed(mean / baseline.mean_seconds, 3),
                   support::fmt_fixed(requests / args.seeds, 1)});
  }
  for (const auto policy : {sched::StealPolicy::kRandomHalf, sched::StealPolicy::kAffinity}) {
    std::vector<double> times;
    double steals = 0.0;
    for (int s = 0; s < args.seeds; ++s) {
      params.seed = args.seed0 + static_cast<std::uint64_t>(s);
      const auto r = sched::run_work_stealing(params, app, policy);
      times.push_back(r.exec_seconds);
      steals += r.loops[0].redistributions;
    }
    const double mean = support::mean_of(times);
    table.add_row({sched::steal_policy_name(policy), support::fmt_fixed(mean, 3),
                   support::fmt_fixed(mean / baseline.mean_seconds, 3),
                   support::fmt_fixed(steals / args.seeds, 1)});
  }

  table.print(std::cout);
  std::cout << "(task-queue schemes pay a network round trip per chunk; STEAL = Phish-style\n"
               " random victim stealing, AFS = affinity scheduling; DLB synchronizes only\n"
               " when someone runs dry — the receiver-initiated advantage)\n";
  return 0;
}

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "decision/online.hpp"
#include "net/characterize.hpp"
#include "obs/metrics.hpp"
#include "svc/arrivals.hpp"
#include "svc/job.hpp"

namespace dlb::svc {

/// How admitted jobs are served.
///
/// kModel: per-job service time is the analytic model's predicted makespan
/// for (job class, load realization, strategy) — the same Predictor the
/// selector trusts — memoized over the small discrete (class, variant)
/// space.  This is the scale backend: millions of jobs per cell at a few
/// hundred predictor evaluations.
///
/// kSim: run_service admits each job into a persistent cluster through
/// core::LoopContext::make + core::drive_loop, so it actually executes the
/// strategy's protocol at its absolute virtual arrival time.  The validation
/// backend: slow, but the service times are the real coroutine-level
/// makespans.
enum class ServiceBackend { kModel, kSim };

struct ServiceParams {
  std::uint64_t jobs = 1'000'000;
  /// Offered load: arrival rate / best-strategy service rate.  Values > 1
  /// deliberately saturate the queue (capped at 1.25 to bound the horizon).
  double rho = 0.7;
  ArrivalKind arrival = ArrivalKind::kPoisson;
  JobMix mix = JobMix::builtin("default");
  /// Number of salted load realizations a job can draw; prediction space is
  /// classes x variants, so this bounds the Predictor evaluations per cell.
  int load_variants = 8;
  /// Online re-customization (hysteresis re-ranking at every admission)
  /// instead of one fixed strategy for the whole stream.
  bool online = false;
  core::Strategy strategy = core::Strategy::kGDDLB;  // ignored when online
  decision::HysteresisConfig hysteresis;
  ServiceBackend backend = ServiceBackend::kModel;

  void validate() const;
};

/// SLA-style report over one service cell.  Percentiles are exact
/// nearest-rank values over every job's sojourn — deterministic wherever the
/// job stream is, which is what the cross-thread byte-identity smoke pins.
struct ServiceReport {
  std::uint64_t jobs = 0;
  double rho = 0.0;
  double rate_jobs_per_sec = 0.0;        // offered arrival rate lambda
  double horizon_seconds = 0.0;          // virtual time of the last completion
  double throughput_jobs_per_sec = 0.0;  // jobs / horizon
  double utilization = 0.0;              // busy time / horizon
  double p50_sojourn_seconds = 0.0;
  double p99_sojourn_seconds = 0.0;
  double p999_sojourn_seconds = 0.0;
  double mean_sojourn_seconds = 0.0;
  double mean_service_seconds = 0.0;
  double mean_wait_seconds = 0.0;
  std::uint64_t strategy_switches = 0;
  /// Jobs served per strategy: slots 0..3 the ranked strategies, slot 4
  /// NoDLB — the realized strategy mix under online re-customization.
  std::array<std::uint64_t, 5> jobs_per_strategy{};
  std::uint64_t messages = 0;  // sim backend only
  std::uint64_t bytes = 0;     // sim backend only
};

/// Strategy slot in prediction tables and jobs_per_strategy: ranked id for
/// the four DLB strategies, 4 for NoDLB.
[[nodiscard]] int strategy_slot(core::Strategy s);

/// Predicted makespan seconds per (class, load variant, strategy slot).
using PredictionTable = std::vector<std::vector<std::array<double, 5>>>;

/// The memo table that prices admissions and decisions in the model
/// backend.  Variant v reconstructs the load realization from a seed salted
/// with v, so the table is a pure function of (cluster params, config, mix,
/// costs, load_variants): service cells that differ only in arrival shape,
/// offered load or strategy can share one.
[[nodiscard]] PredictionTable predicted_service_table(const cluster::ClusterParams& cluster,
                                                      const core::DlbConfig& config,
                                                      const JobMix& mix,
                                                      const net::CollectiveCosts& costs,
                                                      int load_variants);

/// Mix-weighted mean of the best ranked-strategy makespan — the service time
/// the offered-load knob rho is measured against (lambda = rho / this).
[[nodiscard]] double mean_best_service_seconds(const PredictionTable& table, const JobMix& mix);

/// Runs one open-stream service cell to completion and reports SLA metrics.
/// `table` is predicted_service_table(cluster, config, params.mix, costs,
/// params.load_variants) for the network's fitted costs; its shape must
/// match the mix and the variant count.  `config` supplies the protocol
/// knobs (group size, thresholds); its strategy field is ignored and its
/// observe/trace/fault hooks must be disarmed.  When `metrics` is non-null,
/// latency histograms (log-spaced bounds) and job counters are recorded
/// into it.
[[nodiscard]] ServiceReport run_service(const cluster::ClusterParams& cluster,
                                        const core::DlbConfig& config,
                                        const ServiceParams& params,
                                        const PredictionTable& table,
                                        obs::MetricsRegistry* metrics = nullptr);

/// The same, building the prediction table from `costs` first.
[[nodiscard]] ServiceReport run_service(const cluster::ClusterParams& cluster,
                                        const core::DlbConfig& config,
                                        const ServiceParams& params,
                                        const net::CollectiveCosts& costs,
                                        obs::MetricsRegistry* metrics = nullptr);

}  // namespace dlb::svc

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "cluster/cluster.hpp"
#include "core/types.hpp"
#include "load/load_function.hpp"
#include "support/cli.hpp"
#include "svc/service.hpp"

namespace dlb::exp {

/// One application on the app axis of a grid: the descriptor plus the
/// cluster calibration that goes with it (the paper profiles the
/// per-iteration rate per application, §4.1, so the rate travels with the
/// app, not the cluster).
struct AppSpec {
  std::string name;  // row label, e.g. "mxm[R=400,C=400,R2=400]"
  core::AppDescriptor app;
  apps::Calibration calibration = apps::kSyntheticCalibration;
  /// Per-P builder: when set, each cell runs the descriptor it returns for
  /// the cell's processor count (via CellSpec::app_override) and `app` is
  /// unused.  The scale preset keeps per-processor work constant this way,
  /// so wall time measures overhead, not problem growth; Table 1 sizes MXM
  /// as R = 100·P or 200·P.
  std::function<core::AppDescriptor(int procs)> per_proc;
};

/// Fully resolved coordinates + parameters of one experiment cell.  Cells
/// are pure: everything a run needs is in here, nothing is shared with
/// other cells, so a cell can execute on any thread.
struct CellSpec {
  std::size_t index = 0;  // canonical (row-major) grid index
  std::size_t app_i = 0, proc_i = 0, topo_i = 0, arr_i = 0, rho_i = 0, tl_i = 0, load_i = 0,
              strat_i = 0, seed_i = 0;
  std::string app_name;
  cluster::ClusterParams params;  // procs/rate/topology/tl/m_l/seed all resolved
  core::DlbConfig config;         // strategy resolved
  int loop_index = -1;            // -1: whole app; else single loop
  double tl_seconds = 0.0;
  /// Set when the app spec has a per-P builder (see AppSpec): the
  /// descriptor the cell actually runs, sized for its processor count.
  std::optional<core::AppDescriptor> app_override;
  /// Set when the grid runs in service mode: the fully resolved open-stream
  /// parameters for this cell (arrival shape, offered load, strategy or
  /// online re-customization).  The runner dispatches to svc::run_service
  /// instead of building a Runtime.
  std::optional<svc::ServiceParams> service;
  [[nodiscard]] std::uint64_t seed() const noexcept { return params.seed; }
};

/// Service-mode axes and knobs of a grid.  Disarmed (the default), the
/// arrival and offered-load axes have size 1 and divide out of the
/// row-major decode, so every pre-service grid keeps its canonical cell
/// indices — the fig5-8 byte-identity guarantee.
struct ServiceGridConfig {
  bool armed = false;
  /// Arrival-shape axis (between topology and tl in the row-major order).
  std::vector<svc::ArrivalSpec> arrivals{svc::ArrivalSpec{}};
  /// Offered-load axis rho (inside arrivals, outside tl).
  std::vector<double> rhos{0.7};
  std::uint64_t jobs = 1'000'000;
  svc::JobMix mix = svc::JobMix::builtin("default");
  int load_variants = 8;
  decision::HysteresisConfig hysteresis;
  svc::ServiceBackend backend = svc::ServiceBackend::kModel;
};

/// The cross product strategy x app x cluster size x load parameters x
/// seed, enumerated in a fixed row-major order (app outermost, seed
/// innermost) that defines the canonical output order of every sweep.
struct ExperimentGrid {
  std::vector<AppSpec> apps;
  std::vector<int> procs{4};
  /// Topology axis (between procs and tl in the row-major order).  The
  /// default single-element shared axis keeps every pre-topology grid's
  /// canonical indices — a size-1 axis divides out of the decode.
  std::vector<net::TopologyKind> topologies{net::TopologyKind::kShared};
  std::vector<core::Strategy> strategies;
  /// Load persistence axis; empty means one point at each app's default.
  std::vector<double> tl_seconds;
  /// Load amplitude axis (the paper's m_l; 0 = dedicated machines).
  std::vector<int> max_loads{load::LoadParams{}.max_load};
  int seeds = 1;
  std::uint64_t seed0 = 1000;
  /// Template for every cell's cluster; the axes override procs, the app's
  /// rate, the load parameters and the seed, everything else (speeds,
  /// quantum, network, segments) is taken from here.
  cluster::ClusterParams cluster_template;
  /// Template for every cell's DlbConfig; the strategy field is overridden
  /// per cell from the strategy axis.
  core::DlbConfig config;
  /// -1 runs the whole application, >= 0 a single loop (per-loop rankings).
  int loop_index = -1;
  /// Service mode (open job stream); see ServiceGridConfig.
  ServiceGridConfig service;

  void validate() const;
  [[nodiscard]] std::size_t cell_count() const noexcept;
  /// Resolves cell `index` (0 <= index < cell_count()).
  [[nodiscard]] CellSpec cell(std::size_t index) const;
  /// Number of points on the effective tl axis (>= 1).
  [[nodiscard]] std::size_t tl_points() const noexcept {
    return tl_seconds.empty() ? 1 : tl_seconds.size();
  }
  /// Sizes of the service axes; 1 while disarmed so the decode is unchanged.
  [[nodiscard]] std::size_t arrival_points() const noexcept {
    return service.armed ? service.arrivals.size() : 1;
  }
  [[nodiscard]] std::size_t rho_points() const noexcept {
    return service.armed ? service.rhos.size() : 1;
  }
};

/// Builds an AppSpec from a name and shape flags ("mxm", "trfd",
/// "uniform"); used by dlb_sweep and reusable from tests.
[[nodiscard]] AppSpec make_app_spec(const std::string& name, const support::Cli& cli);

/// Parses a grid from dlb_sweep-style flags:
///   --app=mxm,trfd --procs=4,16 --strategies=all|nodlb,gc,gd,lc,ld
///   --tl=16 --max-load=5 --seeds=3 --seed0=1000 --loop=-1
///   --R/--C/--R2 (mxm shape), --n (trfd), --iters/--ops/--bytes (uniform)
///   --topology=shared,switched --rack-size=32 --shards=1 (engine shards;
///     only a switched topology ever shards — see ClusterParams)
///   --figure=5|6|7|8 presets the paper grids (app shapes, procs, rates).
///   --figure=table1 presets Table 1: the four ranked strategies on Figs.
///     5-6's MXM shapes at P = 4 and 16 (R = 100·P or 200·P).
///   --figure=table2 presets Table 2: the ranked strategies on each TRFD
///     loop alone (a one-loop app per loop), n = 30, 40, 50, P = 4 and 16.
///     Both rank through exp::order_rows.
///   --figure=scale presets the weak-scaling grid: strategy x P x topology
///     with a uniform app whose iterations grow with P (fixed per-proc
///     work); defaults procs=256,1024,4096, strategies=nodlb,gc (the
///     distributed schemes broadcast all-to-all every round — O(P^2)
///     frames — which is exactly the shared-medium wall this grid shows),
///     seeds=1, --iters-per-proc=32.
///   --faults=none|crash-half|crash-coord|crash-two|revoke-half|loss10|crash-loss
///     arms a fault preset on every cell; NoDLB is dropped from the strategy
///     axis when armed (it has no recovery path).
///   --figure=service presets the open-stream service grid: latency vs.
///     offered load rho x strategy x arrival shape (defaults procs=16,
///     strategies=gc,gd,lc,ld,online, --arrivals=poisson,bursty,
///     --rate=0.3,0.5,0.7,0.8,0.9,0.95, --jobs=1000000, seeds=1).  The
///     service flag family refines it:
///       --arrivals=poisson,bursty                (arrival-shape axis)
///       --rate=0.3,0.9                           (offered-load axis rho)
///       --jobs=N --hysteresis=<margin>,<k> --load-variants=N
///       --mix=default|hetero --service-backend=model|sim
/// Each grid reads only its own flags (the paper presets: --seeds, --seed0,
/// the topology flags and --faults); a grid flag the chosen grid does not
/// read is rejected instead of silently running the stock grid.
/// Throws std::invalid_argument on unknown app, strategy or fault names.
[[nodiscard]] ExperimentGrid parse_grid(const support::Cli& cli);

/// Cli::get_int for a flag the caller narrows: a value outside [lo, hi]
/// (by default int's range) throws std::invalid_argument naming the flag,
/// where a bare cast would wrap it (4294967297 to 1 for an int).
[[nodiscard]] long int_flag(const support::Cli& cli, const char* flag, long fallback,
                            long lo = std::numeric_limits<int>::min(),
                            long hi = std::numeric_limits<int>::max());

/// Strategy list from a comma-separated spec of short labels
/// ("nodlb,gc,gd,lc,ld"), "all" (the five figure schemes, NoDLB first) or
/// "ranked" (the four ranked DLB schemes).  "online" (service grids only)
/// maps to Strategy::kAuto, meaning online re-customization with
/// hysteresis instead of one fixed strategy.
[[nodiscard]] std::vector<core::Strategy> parse_strategies(const std::string& spec);

}  // namespace dlb::exp

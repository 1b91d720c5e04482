#include "exp/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/calibration.hpp"
#include "apps/mxm.hpp"
#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "fault/plan.hpp"
#include "sim/time.hpp"

namespace dlb::exp {

namespace {

/// Applies a --faults= preset to a parsed grid.  NoDLB cannot run armed
/// (DlbConfig::validate rejects it — no balancing rounds means no recovery
/// path), so it is dropped from the strategy axis rather than failing the
/// whole sweep.
void apply_faults(ExperimentGrid& grid, const support::Cli& cli) {
  const auto name = cli.get("faults", "");
  if (name.empty()) return;
  grid.config.faults = fault::FaultPlan::preset(name);
  if (grid.config.faults.armed()) {
    std::erase(grid.strategies, core::Strategy::kNoDlb);
  }
}

std::vector<std::string> split_commas(const std::string& spec) {
  std::vector<std::string> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// std::stoi/stod ignore trailing junk, so "--procs=4x" used to run a P=4
// grid instead of failing; list items get the same full-consumption check
// as Cli::get_int/get_double.
int strict_int(const std::string& item, const char* flag) {
  std::size_t pos = 0;
  int value = 0;
  try {
    value = std::stoi(item, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (item.empty() || pos != item.size()) {
    throw std::invalid_argument(std::string("--") + flag + ": '" + item +
                                "' is not a valid integer");
  }
  return value;
}

}  // namespace

long int_flag(const support::Cli& cli, const char* flag, long fallback, long lo, long hi) {
  const long value = cli.get_int(flag, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument(std::string("--") + flag + ": " + std::to_string(value) +
                                " is outside [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

namespace {

double strict_double(const std::string& item, const char* flag) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(item, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (item.empty() || pos != item.size()) {
    throw std::invalid_argument(std::string("--") + flag + ": '" + item +
                                "' is not a valid number");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument(std::string("--") + flag + ": '" + item +
                                "' is not a finite number");
  }
  return value;
}

/// Applies the topology/sharding flags shared by preset and custom grids:
/// --topology=shared,switched (axis), --rack-size, --shards.
void apply_topology(ExperimentGrid& grid, const support::Cli& cli) {
  if (cli.has("rack-size")) {
    grid.cluster_template.switched.rack_size = static_cast<int>(int_flag(cli, "rack-size", 32));
  }
  if (cli.has("shards")) {
    grid.cluster_template.engine_shards = static_cast<int>(int_flag(cli, "shards", 1));
  }
  const auto spec = cli.get("topology", "");
  if (spec.empty()) return;
  grid.topologies.clear();
  for (const auto& name : split_commas(spec)) {
    grid.topologies.push_back(net::parse_topology(name));
  }
}

core::Strategy strategy_from_label(const std::string& label) {
  if (label == "nodlb" || label == "none") return core::Strategy::kNoDlb;
  if (label == "gc") return core::Strategy::kGCDLB;
  if (label == "gd") return core::Strategy::kGDDLB;
  if (label == "lc") return core::Strategy::kLCDLB;
  if (label == "ld") return core::Strategy::kLDDLB;
  // Online re-customization; only valid on a service grid (validate()
  // rejects kAuto anywhere else).
  if (label == "online") return core::Strategy::kAuto;
  throw std::invalid_argument("parse_strategies: unknown strategy '" + label +
                              "' (expected nodlb|gc|gd|lc|ld|online)");
}

}  // namespace

void ExperimentGrid::validate() const {
  if (apps.empty()) throw std::invalid_argument("ExperimentGrid: no apps");
  if (procs.empty()) throw std::invalid_argument("ExperimentGrid: no processor counts");
  if (topologies.empty()) throw std::invalid_argument("ExperimentGrid: no topologies");
  if (strategies.empty()) throw std::invalid_argument("ExperimentGrid: no strategies");
  if (max_loads.empty()) throw std::invalid_argument("ExperimentGrid: no load amplitudes");
  for (const auto m : max_loads) {
    if (m < 0) throw std::invalid_argument("ExperimentGrid: --max-load values must be >= 0");
  }
  for (const double tl : tl_seconds) {
    if (!sim::fits_sim_time(tl)) {
      std::ostringstream what;
      what << "ExperimentGrid: --tl=" << tl << " does not fit virtual time";
      throw std::invalid_argument(what.str());
    }
  }
  if (seeds <= 0) throw std::invalid_argument("ExperimentGrid: seeds must be positive");
  for (const auto p : procs) {
    if (p <= 0) throw std::invalid_argument("ExperimentGrid: procs must be positive");
  }
  for (const auto& a : apps) {
    if (!a.per_proc) {
      a.app.validate();
      continue;
    }
    for (const auto p : procs) a.per_proc(p).validate();
  }
  for (const auto s : strategies) {
    if (s == core::Strategy::kAuto && !service.armed) {
      throw std::invalid_argument(
          "ExperimentGrid: Strategy::kAuto is resolved by decision::Selector, not swept "
          "(the 'online' strategy label requires a service grid)");
    }
  }
  if (service.armed) {
    if (service.arrivals.empty()) {
      throw std::invalid_argument("ExperimentGrid: service mode needs an arrival axis");
    }
    if (service.rhos.empty()) {
      throw std::invalid_argument("ExperimentGrid: service mode needs an offered-load axis");
    }
    for (const auto rho : service.rhos) {
      svc::ServiceParams point = service.params;
      point.rho = rho;
      point.validate();
    }
    if (config.faults.armed()) {
      throw std::invalid_argument("ExperimentGrid: service mode does not support fault plans");
    }
    if (config.record_trace) {
      throw std::invalid_argument("ExperimentGrid: service mode does not record traces");
    }
    if (loop_index >= 0) {
      throw std::invalid_argument("ExperimentGrid: service mode admits whole jobs, not --loop");
    }
  }
}

std::size_t ExperimentGrid::cell_count() const noexcept {
  return apps.size() * procs.size() * topologies.size() * arrival_points() * rho_points() *
         tl_points() * max_loads.size() * strategies.size() * static_cast<std::size_t>(seeds);
}

CellSpec ExperimentGrid::cell(std::size_t index) const {
  if (index >= cell_count()) throw std::out_of_range("ExperimentGrid::cell: index");

  // Row-major decode: app, procs, topology, arrivals, rho, tl, max_load,
  // strategy, seed (innermost).  The service axes sit between topology and
  // tl; disarmed they have size 1 and divide out, keeping every
  // pre-service index.
  CellSpec c;
  c.index = index;
  std::size_t rest = index;
  c.seed_i = rest % static_cast<std::size_t>(seeds);
  rest /= static_cast<std::size_t>(seeds);
  c.strat_i = rest % strategies.size();
  rest /= strategies.size();
  c.load_i = rest % max_loads.size();
  rest /= max_loads.size();
  c.tl_i = rest % tl_points();
  rest /= tl_points();
  c.rho_i = rest % rho_points();
  rest /= rho_points();
  c.arr_i = rest % arrival_points();
  rest /= arrival_points();
  c.topo_i = rest % topologies.size();
  rest /= topologies.size();
  c.proc_i = rest % procs.size();
  rest /= procs.size();
  c.app_i = rest;

  const AppSpec& spec = apps[c.app_i];
  c.app_name = spec.name;
  c.tl_seconds = tl_seconds.empty() ? spec.calibration.tl_seconds : tl_seconds[c.tl_i];

  c.params = cluster_template;
  c.params.procs = procs[c.proc_i];
  c.params.topology = topologies[c.topo_i];
  c.params.base_ops_per_sec = spec.calibration.base_ops_per_sec;
  c.params.load.max_load = max_loads[c.load_i];
  c.params.load.persistence = sim::from_seconds(c.tl_seconds);
  c.params.seed = seed0 + c.seed_i;

  c.config = config;
  c.config.strategy = strategies[c.strat_i];
  c.loop_index = loop_index;
  if (spec.per_proc) c.app_override = spec.per_proc(c.params.procs);
  if (service.armed) {
    svc::ServiceParams sp = service.params;
    sp.rho = service.rhos[c.rho_i];
    sp.arrival = service.arrivals[c.arr_i];
    if (c.config.strategy == core::Strategy::kAuto) {
      sp.online = true;
    } else {
      sp.strategy = c.config.strategy;
    }
    c.service = std::move(sp);
  }
  return c;
}

std::vector<core::Strategy> parse_strategies(const std::string& spec) {
  if (spec == "all") {
    return {core::Strategy::kNoDlb, core::Strategy::kGCDLB, core::Strategy::kGDDLB,
            core::Strategy::kLCDLB, core::Strategy::kLDDLB};
  }
  if (spec == "ranked") {
    std::vector<core::Strategy> out;
    for (int id = 0; id < core::kRankedStrategyCount; ++id)
      out.push_back(core::ranked_strategy(id));
    return out;
  }
  std::vector<core::Strategy> out;
  for (const auto& label : split_commas(spec)) out.push_back(strategy_from_label(label));
  if (out.empty()) throw std::invalid_argument("parse_strategies: empty spec");
  return out;
}

namespace {

std::string mxm_name(const std::string& rows, std::int64_t c, std::int64_t r2) {
  return "mxm[R=" + rows + ",C=" + std::to_string(c) + ",R2=" + std::to_string(r2) + "]";
}

AppSpec mxm_spec(const apps::MxmParams& p) {
  return {mxm_name(std::to_string(p.R), p.C, p.R2), apps::make_mxm(p), apps::kMxmCalibration, {}};
}

AppSpec trfd_spec(int n) {
  return {"trfd[n=" + std::to_string(n) + "]", apps::make_trfd({n}), apps::kTrfdCalibration, {}};
}

std::vector<int> parse_procs(const support::Cli& cli, const char* fallback) {
  std::vector<int> procs;
  for (const auto& p : split_commas(cli.get("procs", fallback))) {
    procs.push_back(strict_int(p, "procs"));
  }
  return procs;
}

}  // namespace

AppSpec make_app_spec(const std::string& name, const support::Cli& cli) {
  if (name == "mxm") {
    return mxm_spec({cli.get_int("R", 400), cli.get_int("C", 400), cli.get_int("R2", 400)});
  }
  if (name == "trfd") return trfd_spec(static_cast<int>(int_flag(cli, "n", 30)));
  if (name == "uniform") {
    const auto iters = cli.get_int("iters", 400);
    const auto ops = cli.get_double("ops", 100e3);
    const auto bytes = cli.get_double("bytes", 1024.0);
    return {"uniform[I=" + std::to_string(iters) + "]", apps::make_uniform(iters, ops, bytes),
            apps::kSyntheticCalibration, {}};
  }
  throw std::invalid_argument("make_app_spec: unknown app '" + name +
                              "' (expected mxm|trfd|uniform)");
}

namespace {

/// The MXM shapes of Figs. 5-6 and Table 1, R2 = 400: the paper keeps
/// R/P at 100 or 200 (§6.2).
struct MxmShape {
  std::int64_t rows_per_proc;
  std::int64_t C;
};
constexpr MxmShape kMxmShapes[] = {{100, 400}, {100, 800}, {200, 400}, {200, 800}};
constexpr std::int64_t kMxmR2 = 400;
/// TRFD's n for Figs. 7-8 and Table 2.
constexpr int kTrfdSizes[] = {30, 40, 50};

/// Table 1's row: an MXM shape sized for each cell's P.
AppSpec mxm_per_proc_spec(MxmShape shape) {
  AppSpec spec;
  spec.name = mxm_name(std::to_string(shape.rows_per_proc) + "P", shape.C, kMxmR2);
  spec.calibration = apps::kMxmCalibration;
  spec.per_proc = [shape](int procs) {
    return apps::make_mxm({shape.rows_per_proc * procs, shape.C, kMxmR2});
  };
  return spec;
}

/// The paper's figure and table grids (EXPERIMENTS.md): app shapes, P and
/// calibrations.
ExperimentGrid paper_grid(const std::string& figure) {
  ExperimentGrid grid;
  if (figure == "5" || figure == "6") {
    const int procs = figure == "5" ? 4 : 16;
    grid.procs = {procs};
    for (const auto shape : kMxmShapes) {
      grid.apps.push_back(mxm_spec({shape.rows_per_proc * procs, shape.C, kMxmR2}));
    }
  } else if (figure == "7" || figure == "8") {
    grid.procs = {figure == "7" ? 4 : 16};
    for (const int n : kTrfdSizes) grid.apps.push_back(trfd_spec(n));
  } else if (figure == "table1") {
    grid.procs = {4, 16};
    for (const auto shape : kMxmShapes) grid.apps.push_back(mxm_per_proc_spec(shape));
  } else if (figure == "table2") {
    grid.procs = {4, 16};
    for (const int n : kTrfdSizes) {
      for (std::size_t loop = 0; loop < 2; ++loop) {
        // Each loop ranked alone: a one-loop app runs exactly as
        // Runtime::run_single_loop runs that loop of the whole app.
        AppSpec spec = trfd_spec(n);
        spec.name = "trfd[n=" + std::to_string(n) + ",L" + std::to_string(loop + 1) + "]";
        spec.app.loops = {spec.app.loops[loop]};
        spec.app.phases.clear();
        grid.apps.push_back(std::move(spec));
      }
    }
  } else {
    throw std::invalid_argument(
        "parse_grid: --figure must be 5, 6, 7, 8, table1, table2, scale or service");
  }
  grid.strategies = parse_strategies(figure.starts_with("table") ? "ranked" : "all");
  return grid;
}

/// --figure=scale: the weak-scaling grid strategy x P x topology.  One
/// uniform app whose iteration count grows with P (fixed per-processor
/// work), both topologies side by side, centralized strategies only by
/// default — the distributed schemes broadcast profiles all-to-all every
/// round, O(P^2) frames, which at P >= 4k is the wall this grid exists to
/// show, not a point on it.
ExperimentGrid scale_grid(const support::Cli& cli) {
  ExperimentGrid grid;
  grid.strategies = parse_strategies(cli.get("strategies", "nodlb,gc"));
  grid.procs = parse_procs(cli, "256,1024,4096");
  grid.topologies = {net::TopologyKind::kShared, net::TopologyKind::kSwitched};

  const auto iters_per_proc = cli.get_int("iters-per-proc", 32);
  const auto ops = cli.get_double("ops", 50e3);
  const auto bytes = cli.get_double("bytes", 256.0);
  if (iters_per_proc <= 0) {
    throw std::invalid_argument("parse_grid: --iters-per-proc must be positive");
  }
  AppSpec spec;
  spec.name = "weak[i/P=" + std::to_string(iters_per_proc) + "]";
  spec.per_proc = [iters_per_proc, ops, bytes](int procs) {
    return apps::make_uniform(iters_per_proc * procs, ops, bytes);
  };
  grid.apps.push_back(std::move(spec));
  return grid;
}

/// Applies the service flag family to the armed preset grid.
void apply_service_flags(ExperimentGrid& grid, const support::Cli& cli) {
  auto& service = grid.service;
  service.armed = true;
  service.arrivals.clear();
  for (const auto& spec : split_commas(cli.get("arrivals", "poisson,bursty"))) {
    service.arrivals.push_back(svc::parse_arrival_kind(spec));
  }
  service.rhos.clear();
  for (const auto& rho : split_commas(cli.get("rate", "0.3,0.5,0.7,0.8,0.9,0.95"))) {
    service.rhos.push_back(strict_double(rho, "rate"));
  }
  auto& params = service.params;
  params.jobs = static_cast<std::uint64_t>(
      int_flag(cli, "jobs", 1'000'000, 1, std::numeric_limits<long>::max()));
  const auto hysteresis = split_commas(cli.get("hysteresis", "0.05,3"));
  if (hysteresis.size() != 2) {
    throw std::invalid_argument("parse_grid: --hysteresis wants <margin>,<k>");
  }
  params.hysteresis.margin = strict_double(hysteresis[0], "hysteresis");
  params.hysteresis.k = strict_int(hysteresis[1], "hysteresis");
  params.load_variants = static_cast<int>(int_flag(cli, "load-variants", 8));
  params.mix = svc::JobMix::builtin(cli.get("mix", "default"));
  const auto backend = cli.get("service-backend", "model");
  if (backend == "model") {
    params.backend = svc::ServiceBackend::kModel;
  } else if (backend == "sim") {
    params.backend = svc::ServiceBackend::kSim;
  } else {
    throw std::invalid_argument("parse_grid: --service-backend must be model or sim");
  }
}

/// --figure=service: the open-stream grid latency vs. offered load rho x
/// strategy x arrival shape.  One placeholder app row names the job mix;
/// every cell admits >= --jobs loop jobs over virtual time through the
/// service layer instead of running one loop.
ExperimentGrid service_grid(const support::Cli& cli) {
  ExperimentGrid grid;
  grid.strategies = parse_strategies(cli.get("strategies", "gc,gd,lc,ld,online"));
  grid.procs = parse_procs(cli, "16");
  apply_service_flags(grid, cli);
  // Placeholder descriptor for validate(); service cells admit per-class
  // loops from the mix, not this app.
  AppSpec spec;
  spec.name = "svc[" + grid.service.params.mix.name + "]";
  spec.app = apps::make_uniform(64, 100e3, 64.0);
  spec.calibration.tl_seconds = grid.service.params.mix.classes.front().tl_seconds;
  grid.apps.push_back(std::move(spec));
  return grid;
}

/// A grid from the axis flags alone (no --figure).
ExperimentGrid custom_grid(const support::Cli& cli) {
  ExperimentGrid grid;
  for (const auto& name : split_commas(cli.get("app", "mxm"))) {
    grid.apps.push_back(make_app_spec(name, cli));
  }
  grid.procs = parse_procs(cli, "4");
  grid.strategies = parse_strategies(cli.get("strategies", "all"));
  for (const auto& tl : split_commas(cli.get("tl", ""))) {
    grid.tl_seconds.push_back(strict_double(tl, "tl"));
  }
  if (cli.has("max-load")) {
    grid.max_loads.clear();
    for (const auto& ml : split_commas(cli.get("max-load", ""))) {
      grid.max_loads.push_back(strict_int(ml, "max-load"));
    }
  }
  grid.loop_index = static_cast<int>(int_flag(cli, "loop", -1));
  return grid;
}

/// The grids, as a bit set over which the flag table below says who reads
/// what.  kPaper is --figure=5..8, table1 and table2.
enum GridKind : unsigned { kPaper = 1, kScale = 2, kService = 4, kCustom = 8 };
constexpr unsigned kEveryGrid = kPaper | kScale | kService | kCustom;

/// Every grid flag and the grids that read it.  dlb_sweep's output flags
/// (--format, --threads, --timing, --trace-out, --metrics) apply to every
/// grid and are not grid flags.
struct GridFlag {
  const char* name;
  unsigned grids;
};
constexpr GridFlag kGridFlags[] = {
    {"seeds", kEveryGrid},
    {"seed0", kEveryGrid},
    {"topology", kEveryGrid},
    {"rack-size", kEveryGrid},
    {"shards", kEveryGrid},
    {"faults", kEveryGrid},
    {"procs", kScale | kService | kCustom},
    {"strategies", kScale | kService | kCustom},
    {"ops", kScale | kCustom},
    {"bytes", kScale | kCustom},
    {"iters-per-proc", kScale},
    {"app", kCustom},
    {"tl", kCustom},
    {"max-load", kCustom},
    {"loop", kCustom},
    {"R", kCustom},
    {"C", kCustom},
    {"R2", kCustom},
    {"n", kCustom},
    {"iters", kCustom},
    {"arrivals", kService},
    {"rate", kService},
    {"jobs", kService},
    {"hysteresis", kService},
    {"load-variants", kService},
    {"mix", kService},
    {"service-backend", kService},
};

/// A grid flag the grid does not read would otherwise be silently ignored,
/// running the stock grid instead of the one asked for.
void reject_unread_flags(const support::Cli& cli, GridKind kind, const std::string& grid_name) {
  std::string unread;
  for (const auto& flag : kGridFlags) {
    if ((flag.grids & kind) == 0 && cli.has(flag.name)) {
      unread += (unread.empty() ? "--" : ", --") + std::string(flag.name);
    }
  }
  if (!unread.empty()) {
    throw std::invalid_argument("parse_grid: " + grid_name + " does not read " + unread);
  }
}

}  // namespace

std::vector<std::string> grid_flag_names() {
  std::vector<std::string> names{"figure"};
  for (const auto& flag : kGridFlags) names.emplace_back(flag.name);
  return names;
}

ExperimentGrid parse_grid(const support::Cli& cli) {
  const auto figure = cli.get("figure", "");
  GridKind kind = kPaper;
  ExperimentGrid grid;
  if (!cli.has("figure")) {
    kind = kCustom;
    grid = custom_grid(cli);
  } else if (figure == "scale") {
    kind = kScale;
    grid = scale_grid(cli);
  } else if (figure == "service") {
    kind = kService;
    grid = service_grid(cli);
  } else {
    grid = paper_grid(figure);
  }
  reject_unread_flags(cli, kind,
                      kind == kCustom ? "a grid without --figure" : "--figure=" + figure);
  const bool one_seed = kind == kScale || kind == kService;
  grid.seeds = static_cast<int>(int_flag(cli, "seeds", one_seed ? 1 : 3));
  grid.seed0 = static_cast<std::uint64_t>(cli.get_int("seed0", 1000));
  apply_topology(grid, cli);
  apply_faults(grid, cli);
  grid.validate();
  return grid;
}

}  // namespace dlb::exp

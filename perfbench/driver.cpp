// perfbench_driver — runs one benchmark workload through the public sweep
// path and writes its host timings as one JSON document for run.py.
//
//   perfbench_driver --mode=measure|trace --width=N --seconds=S --out=FILE
//                    --csv=FILE [--spans=FILE] [--check-width=N]
//                    --grid <dlb_sweep flags...> [--grid <dlb_sweep flags...>]...
//
// A repetition is the whole workload as dlb_sweep --format=csv runs it:
// exp::parse_grid -> exp::Runner::run -> exp::write_csv for every grid, then
// a byte comparison of the CSV against the first repetition's (run.py checks
// that one against the committed golden digests).
//
// measure: one warm-up repetition, then timed repetitions until --seconds
//   have passed, each between two halves of a host-speed probe and each
//   after a set-up pass (the set-up calls alone, with probe slices between
//   them), and optionally one more repetition at --check-width that must
//   reproduce the CSV byte for byte.
// trace: untraced repetitions alternating with traced ones.  A traced
//   repetition makes the public calls Runner::run_cell makes from here —
//   cluster::Cluster, core::Runtime::run, net::characterize,
//   svc::predicted_service_table, svc::run_service — one cell at a time,
//   records a span around each, and reads the modules' public counters.
//   The spans stay in memory until the run ends.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "exp/grid.hpp"
#include "exp/pool.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "net/characterize.hpp"
#include "obs/metrics.hpp"
#include "sim/frame_arena.hpp"
#include "support/cli.hpp"
#include "svc/service.hpp"

namespace {

using namespace dlb;
using Clock = std::chrono::steady_clock;
using Flags = std::vector<std::string>;
using Counters = std::map<std::string, double>;

/// Timed (and traced) repetitions a run makes at least, however short
/// --seconds is.
constexpr std::size_t kMinReps = 3;
/// Host seconds one set-up pass repeats the set-up for, at least.
constexpr double kSetupPassSeconds = 0.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One grid of the workload, parsed and reported the way dlb_sweep does it.
struct ParsedGrid {
  exp::ExperimentGrid grid;
  exp::ReportOptions report;
};

ParsedGrid parse(const Flags& flags) {
  std::vector<const char*> argv{"dlb_sweep"};
  for (const auto& f : flags) argv.push_back(f.c_str());
  const support::Cli cli(static_cast<int>(argv.size()), argv.data());
  // dlb_sweep's flags, less the ones that pick its output and threads
  // (--format, --timing, --trace-out, --threads): the driver always writes
  // CSV at its own --width, so those would be silently ignored here.
  cli.reject_unknown({"figure", "app", "procs", "strategies", "tl", "max-load", "seeds", "seed0",
                      "loop", "faults", "R", "C", "R2", "n", "iters", "ops", "bytes", "metrics",
                      "topology", "rack-size", "shards", "iters-per-proc", "arrivals", "rate",
                      "jobs", "hysteresis", "load-variants", "mix", "service-backend"});
  ParsedGrid p{exp::parse_grid(cli), {}};
  // dlb_sweep arms observability for --metrics after parse_grid and derives
  // the report columns from the grid; mirror both so the CSV is its CSV.
  const bool metrics = cli.has("metrics");
  if (metrics) p.grid.config.observe = true;
  p.report.include_faults = p.grid.config.faults.armed();
  p.report.include_metrics = metrics;
  p.report.include_topology = p.grid.topologies.size() > 1 ||
                              p.grid.topologies[0] != net::TopologyKind::kShared;
  p.report.include_service = p.grid.service.armed;
  return p;
}

/// Lines of `csv` that differ from the same line of `reference`, plus any
/// surplus or missing line: each one counts as a failed cell.
std::size_t mismatched_lines(const std::string& csv, const std::string& reference) {
  if (csv == reference) return 0;
  std::istringstream a(csv);
  std::istringstream b(reference);
  std::string la;
  std::string lb;
  std::size_t bad = 0;
  for (;;) {
    const bool has_a = static_cast<bool>(std::getline(a, la));
    const bool has_b = static_cast<bool>(std::getline(b, lb));
    if (!has_a && !has_b) break;
    if (has_a != has_b || la != lb) ++bad;
  }
  return bad;
}

/// Work conservation: each loop's executed iterations
/// (LoopRunStats::executed_per_proc) sum to the loop's size.  Under an armed
/// fault plan a crashed station keeps the count of iterations whose results
/// died with it and were executed again elsewhere, so the sum may only
/// exceed the size; exactly-once for those cells is the run's own
/// fault::CoverageChecker, which throws (a failed cell) on a violation.
/// Service cells run no batch loops.
bool conserves_iterations(const exp::ExperimentGrid& grid, const exp::CellResult& c) {
  if (c.service) return true;
  const core::AppDescriptor& app =
      c.spec.app_override ? *c.spec.app_override : grid.apps[c.spec.app_i].app;
  const bool whole = c.spec.loop_index < 0;
  const bool faults = c.spec.config.faults.armed();
  const std::size_t first = whole ? 0 : static_cast<std::size_t>(c.spec.loop_index);
  const auto& loops = c.result.loops;
  if (loops.size() != (whole ? app.loops.size() : 1)) return false;
  for (std::size_t k = 0; k < loops.size(); ++k) {
    std::int64_t executed = 0;
    for (const auto n : loops[k].executed_per_proc) executed += n;
    const std::int64_t size = app.loops[first + k].iterations;
    if (faults ? executed < size : executed != size) return false;
  }
  return true;
}

/// Pins the calling thread to the CPUs the process may use in turn, one per
/// timed unit of a single-threaded workload.  Co-tenants of a shared host
/// slow single CPUs for minutes at a time, and a process left alone stays
/// on the CPU it started on; rotating makes a run's median sample every CPU
/// instead of whichever one the scheduler picked.  Threads started while
/// pinned (the width-1 pool's worker) inherit the pin.  Inactive for
/// multi-threaded workloads and when only one CPU is allowed.
class CpuRotation {
 public:
  explicit CpuRotation(bool active) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (!active || sched_getaffinity(0, sizeof set, &set) != 0) return;
    allowed_ = set;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) cpus_.clear();
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Rounds of one full probe (about 0.12 s on the reference host).
constexpr int kProbeRounds = 1 << 20;

/// Fixed-work probe of the host's current speed: pop/push rounds on a
/// 64k-entry binary heap of pseudo-random keys, about the work pattern of an
/// event queue.  It uses nothing from the simulator, so no change to the
/// program can move it; timing it next to the workload lets a run express
/// its times in probe units, which cancel the speed changes of a shared
/// host.  The keys start spread like the increments each round adds, so the
/// heap is in its steady state from the first round and every round costs
/// the same however many came before.
class Probe {
 public:
  Probe() : heap_(std::size_t{1} << 16) {
    for (auto& key : heap_) key = next() & 0xFFFF;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  /// Host seconds of `rounds` rounds.
  double run(int rounds) {
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      sum_ += heap_.back();
      heap_.back() += next() & 0xFFFF;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    if (sum_ == 0) throw std::logic_error("Probe: empty probe");
    return seconds_since(t0);
  }

 private:
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sum_ = 0;
};

/// Host-side record of one repetition of the workload.
struct Rep {
  double wall_s = 0.0;
  double probe_s = 0.0;  // half a probe just before plus half just after
  std::size_t cells = 0;
  std::size_t failed = 0;
  double cell_wall_sum = 0.0;  // sum of CellResult::wall_seconds
  double pool_wall = 0.0;      // sum of SweepResult::wall_seconds
  double model_jobs = 0.0;     // service cells, model backend
  double model_s = 0.0;
  double sim_jobs = 0.0;       // service cells, sim backend
  double sim_s = 0.0;
  std::vector<double> cell_s;
  std::string csv;
};

void account(const exp::ExperimentGrid& grid, const exp::SweepResult& sweep, Rep& rep) {
  rep.pool_wall += sweep.wall_seconds;
  for (const auto& c : sweep.cells) {
    rep.cell_s.push_back(c.wall_seconds);
    rep.cell_wall_sum += c.wall_seconds;
    if (!conserves_iterations(grid, c)) ++rep.failed;
    if (c.service) {
      const bool model = c.spec.service->backend == svc::ServiceBackend::kModel;
      (model ? rep.model_jobs : rep.sim_jobs) += static_cast<double>(c.service->jobs);
      (model ? rep.model_s : rep.sim_s) += c.wall_seconds;
    }
  }
}

/// Runner::run rethrows only the first failing cell; re-run the grid cell
/// by cell so every cell that throws is counted.
std::size_t count_throwing_cells(const exp::ExperimentGrid& grid) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < grid.cell_count(); ++i) {
    try {
      (void)exp::Runner::run_cell(grid, i);
    } catch (const std::exception&) {
      ++n;
    }
  }
  return std::max<std::size_t>(n, 1);
}

/// One untraced repetition through the public sweep path.  `reference` is
/// the CSV every repetition must reproduce (null for the first).
Rep run_rep(const std::vector<Flags>& grids, int width, const std::string* reference) {
  Rep rep;
  const auto t0 = Clock::now();
  std::ostringstream csv;
  for (const auto& flags : grids) {
    const ParsedGrid p = parse(flags);
    rep.cells += p.grid.cell_count();
    try {
      const auto sweep = exp::Runner(exp::RunnerOptions{width}).run(p.grid);
      exp::write_csv(csv, sweep, p.report);
      account(p.grid, sweep, rep);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_driver: grid failed: " << e.what() << "\n";
      rep.failed += count_throwing_cells(p.grid);
      csv << "grid failed\n";
    }
  }
  rep.csv = csv.str();
  if (reference != nullptr) rep.failed += mismatched_lines(rep.csv, *reference);
  rep.wall_s = seconds_since(t0);
  return rep;
}

/// Host seconds of the workload's set-up calls, summed over its cells: grid
/// parse and validate, cluster::Cluster construction for batch cells, and
/// net::characterize + svc::predicted_service_table for service cells.  No
/// simulation runs.  Each cluster is destroyed, untimed, before the next is
/// built, as Runner::run_cell does; destroying a whole grid's clusters at
/// once lets the allocator hand pages back and re-fault them on a whim.
double setup_once(const std::vector<Flags>& grids) {
  double total = 0.0;
  for (const auto& flags : grids) {
    auto t0 = Clock::now();
    const ParsedGrid p = parse(flags);
    total += seconds_since(t0);
    std::size_t work = 0;
    for (std::size_t i = 0; i < p.grid.cell_count(); ++i) {
      const exp::CellSpec spec = p.grid.cell(i);
      t0 = Clock::now();
      if (!spec.service) {
        const cluster::Cluster cluster(spec.params);
        total += seconds_since(t0);
        ++work;
        continue;
      }
      core::DlbConfig config = spec.config;
      config.observe = false;
      if (config.strategy == core::Strategy::kAuto) config.strategy = core::Strategy::kNoDlb;
      const auto costs =
          net::characterize(spec.params.network, std::max(spec.params.procs, 16)).costs;
      work += svc::predicted_service_table(spec.params, config, spec.service->mix, costs,
                                           spec.service->load_variants)
                  .size();
      total += seconds_since(t0);
    }
    if (work == 0) throw std::logic_error("setup_once: no set-up work");
  }
  return total;
}

/// One set-up pass: the whole set-up, repeated until it has taken
/// kSetupPassSeconds, with `chunk` probe rounds after each set-up so the
/// probe samples the host's speed over the same stretch of time.  Returns
/// the mean host seconds per set-up and the probe's seconds per
/// kProbeRounds over the pass.
std::pair<double, double> setup_pass(const std::vector<Flags>& grids, Probe& probe, int chunk) {
  double setup = 0.0;
  double probed = 0.0;
  int repeats = 0;
  do {
    setup += setup_once(grids);
    probed += probe.run(chunk);
    ++repeats;
  } while (setup < kSetupPassSeconds);
  return {setup / repeats, probed / repeats * kProbeRounds / chunk};
}

/// The batch-cell body of Runner::run_cell on a cluster the caller built: a
/// sharded engine runs its windows on `pool`, then the cell's app runs
/// under `config`.
core::RunResult run_batch(const exp::ExperimentGrid& grid, const exp::CellSpec& spec,
                          cluster::Cluster& cluster, const core::DlbConfig& config,
                          exp::Pool& pool) {
  std::optional<exp::PoolShardExecutor> executor;
  if (cluster.engine().is_sharded()) {
    executor.emplace(pool);
    cluster.engine().set_executor(&*executor);
  }
  const core::AppDescriptor& app =
      spec.app_override ? *spec.app_override : grid.apps[spec.app_i].app;
  core::Runtime runtime(cluster, app, config);
  return spec.loop_index < 0 ? runtime.run()
                             : runtime.run_single_loop(static_cast<std::size_t>(spec.loop_index));
}

// ── Tracing ──────────────────────────────────────────────────────────────

/// One timed call.  `parent` indexes the enclosing span (-1 for a
/// repetition's root); `request` is the cell index, -1 outside a cell.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long long request = -1;
};

/// In-memory span recorder.  Traced repetitions run on the driver thread one
/// call at a time, so the innermost open span is the parent of the next.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(const char* name, long long request) {
    spans_.push_back(Span{name, seconds_since(origin_), 0.0, current_, request});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    auto& span = spans_[static_cast<std::size_t>(id)];
    span.end = seconds_since(origin_);
    current_ = span.parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, long long request = -1)
      : tracer_(tracer), id_(tracer.open(name, request)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

void traced_batch_cell(const exp::ExperimentGrid& grid, exp::CellResult& out, exp::Pool& pool,
                       Tracer& tracer, Counters& k) {
  std::unique_ptr<cluster::Cluster> cluster;
  {
    const ScopedSpan span(tracer, "cluster.build");
    cluster = std::make_unique<cluster::Cluster>(out.spec.params);
  }
  {
    const ScopedSpan span(tracer, "core.run");
    out.result = run_batch(grid, out.spec, *cluster, out.spec.config, pool);
  }

  const sim::Engine& engine = cluster->engine();
  const auto& r = out.result;
  k["cluster.procs"] += out.spec.params.procs;
  k["core.syncs"] += r.total_syncs();
  k["core.redistributions"] += r.total_redistributions();
  const auto events = static_cast<double>(engine.events_executed());
  k["sim.events"] += events;
  k["sim.peak_queue_depth"] =
      std::max(k["sim.peak_queue_depth"], static_cast<double>(engine.peak_queue_depth()));
  if (engine.is_sharded()) {
    std::size_t busiest = 0;
    for (int s = 0; s < engine.shards(); ++s) {
      busiest = std::max(busiest, engine.shard_events_executed(s));
    }
    k["sim.shard.events"] += events;
    k["sim.shard.busiest_events"] += static_cast<double>(busiest);
  }
  k["net.messages"] += static_cast<double>(r.messages);
  k["net.bytes"] += static_cast<double>(r.bytes);
  k["fault.retries"] += static_cast<double>(r.faults.retries);
  k["fault.dropped_frames"] += static_cast<double>(r.faults.dropped_frames);
  k["fault.recoveries"] += static_cast<double>(r.faults.recoveries);
  if (r.obs) {
    k["obs.phases"] += static_cast<double>(r.obs->phases().size());
    k["obs.frames_recorded"] += static_cast<double>(r.obs->messages().size());
  }

  const ScopedSpan span(tracer, "cluster.teardown");
  cluster.reset();
}

/// Mirrors exp::Runner's service cell, with the prediction table that
/// svc::run_service builds internally also built (and timed) here once.
void traced_service_cell(exp::CellResult& out, Tracer& tracer, Counters& k) {
  core::DlbConfig config = out.spec.config;
  const bool observe = config.observe;
  config.observe = false;
  config.record_trace = false;
  if (config.strategy == core::Strategy::kAuto) config.strategy = core::Strategy::kNoDlb;
  const svc::ServiceParams& sp = *out.spec.service;

  net::CollectiveCosts costs;
  {
    const ScopedSpan span(tracer, "net.characterize");
    costs = net::characterize(out.spec.params.network, std::max(out.spec.params.procs, 16)).costs;
  }
  {
    const ScopedSpan span(tracer, "model.table");
    const auto table =
        svc::predicted_service_table(out.spec.params, config, sp.mix, costs, sp.load_variants);
    for (const auto& per_class : table) k["model.table_entries"] += 5.0 * per_class.size();
  }
  const bool model = sp.backend == svc::ServiceBackend::kModel;
  obs::MetricsRegistry registry;
  {
    const ScopedSpan span(tracer, model ? "svc.model.run" : "svc.sim.run");
    out.service = svc::run_service(out.spec.params, config, sp, costs,
                                   observe ? &registry : nullptr);
  }
  out.result.app_name = out.spec.app_name;
  out.result.strategy_name =
      sp.online ? "online" : std::string(core::strategy_name(sp.strategy));
  out.result.exec_seconds = out.service->horizon_seconds;
  out.result.messages = out.service->messages;
  out.result.bytes = out.service->bytes;
  if (observe) out.result.metrics = registry.snapshot();

  const auto jobs = static_cast<double>(out.service->jobs);
  k[model ? "svc.model.jobs" : "svc.sim.jobs"] += jobs;
  if (!model) k["svc.sim.messages"] += static_cast<double>(out.service->messages);
  if (sp.online) {
    k["decision.switches"] += static_cast<double>(out.service->strategy_switches);
    k["decision.online_jobs"] += jobs;
  }
  k["net.messages"] += static_cast<double>(out.service->messages);
  k["net.bytes"] += static_cast<double>(out.service->bytes);
}

exp::CellResult traced_cell(const exp::ExperimentGrid& grid, std::size_t index, exp::Pool& pool,
                            Tracer& tracer, Counters& k) {
  const auto t0 = Clock::now();
  const ScopedSpan span(tracer, "exp.cell", static_cast<long long>(index));
  exp::CellResult out;
  out.spec = grid.cell(index);
  if (out.spec.service) {
    traced_service_cell(out, tracer, k);
  } else {
    traced_batch_cell(grid, out, pool, tracer, k);
  }
  out.wall_seconds = seconds_since(t0);
  return out;
}

/// One traced repetition: the cells run one at a time on this thread (a
/// sharded cell's windows still use the pool), so spans nest strictly and
/// the layers' self times add up to the repetition's wall time.
Rep traced_rep(const std::vector<Flags>& grids, int width, const std::string& reference,
               Tracer& tracer, Counters& k) {
  Rep rep;
  const auto arena0 = sim::FrameArena::stats();
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(tracer, "driver.rep");
    std::ostringstream csv;
    for (const auto& flags : grids) {
      std::optional<ParsedGrid> p;
      {
        const ScopedSpan span(tracer, "exp.parse");
        p.emplace(parse(flags));
      }
      const exp::ExperimentGrid& grid = p->grid;
      rep.cells += grid.cell_count();
      exp::SweepResult sweep;
      {
        const ScopedSpan span(tracer, "exp.grid");
        const auto g0 = Clock::now();
        exp::Pool pool(width);
        sweep.threads = pool.size();
        sweep.cells.reserve(grid.cell_count());
        for (std::size_t i = 0; i < grid.cell_count(); ++i) {
          try {
            sweep.cells.push_back(traced_cell(grid, i, pool, tracer, k));
          } catch (const std::exception& e) {
            std::cerr << "perfbench_driver: traced cell " << i << " failed: " << e.what() << "\n";
            ++rep.failed;
            exp::CellResult failed;
            failed.spec = grid.cell(i);
            sweep.cells.push_back(std::move(failed));
          }
        }
        sweep.wall_seconds = seconds_since(g0);
      }
      {
        const ScopedSpan span(tracer, "exp.report.write");
        const auto before = csv.tellp();
        exp::write_csv(csv, sweep, p->report);
        k["exp.report.bytes"] += static_cast<double>(csv.tellp() - before);
      }
      account(grid, sweep, rep);
    }
    const ScopedSpan span(tracer, "driver.verify");
    rep.csv = csv.str();
    rep.failed += mismatched_lines(rep.csv, reference);
  }
  rep.wall_s = seconds_since(t0);
  const auto arena1 = sim::FrameArena::stats();
  k["sim.arena.fresh"] = static_cast<double>(arena1.fresh - arena0.fresh);
  k["sim.arena.reused"] = static_cast<double>(arena1.reused - arena0.reused);
  k["sim.arena.slabs"] = static_cast<double>(arena1.slabs - arena0.slabs);
  return rep;
}

/// Host seconds of the batch-cell run with observability armed and
/// disarmed, over the batch cells the workload runs armed.  Each cell runs
/// both ways, and which way goes first alternates from cell to cell.  Both
/// zero when no cell is armed.
std::pair<double, double> obs_overhead(const std::vector<Flags>& grids, int width) {
  double armed = 0.0;
  double disarmed = 0.0;
  exp::Pool pool(width);
  std::size_t cells = 0;
  for (const auto& flags : grids) {
    const ParsedGrid p = parse(flags);
    if (!p.grid.config.observe || p.grid.service.armed) continue;
    for (std::size_t i = 0; i < p.grid.cell_count(); ++i, ++cells) {
      const exp::CellSpec spec = p.grid.cell(i);
      const bool armed_first = cells % 2 == 0;
      for (const bool observe : {armed_first, !armed_first}) {
        cluster::Cluster cluster(spec.params);
        core::DlbConfig config = spec.config;
        config.observe = observe;
        const auto t0 = Clock::now();
        const auto result = run_batch(p.grid, spec, cluster, config, pool);
        (observe ? armed : disarmed) += seconds_since(t0);
        if (result.loops.empty()) throw std::logic_error("obs_overhead: run produced no loops");
      }
    }
  }
  return {armed, disarmed};
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

// ── Output ───────────────────────────────────────────────────────────────

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void write_numbers(std::ostream& os, const std::vector<double>& values) {
  os << '[';
  for (std::size_t i = 0; i < values.size(); ++i) os << (i ? "," : "") << values[i];
  os << ']';
}

void write_rep(std::ostream& os, const Rep& r) {
  os << "{\"wall_s\":" << r.wall_s << ",\"probe_s\":" << r.probe_s << ",\"cells\":" << r.cells
     << ",\"failed\":" << r.failed
     << ",\"cell_wall_sum\":" << r.cell_wall_sum << ",\"pool_wall\":" << r.pool_wall
     << ",\"model_jobs\":" << r.model_jobs << ",\"model_s\":" << r.model_s
     << ",\"sim_jobs\":" << r.sim_jobs << ",\"sim_s\":" << r.sim_s << ",\"cell_s\":";
  write_numbers(os, r.cell_s);
  os << '}';
}

void write_reps(std::ostream& os, const std::vector<Rep>& reps) {
  os << '[';
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i) os << ',';
    write_rep(os, reps[i]);
  }
  os << ']';
}

void write_counters(std::ostream& os, const Counters& k) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : k) {
    os << (first ? "" : ",") << json_string(name) << ':' << value;
    first = false;
  }
  os << '}';
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << std::setprecision(17) << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name) << ",\"start\":" << s.start
       << ",\"end\":" << s.end << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << '}';
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread.  With one arena per pool thread, how
  // much memory the concurrent cells strand depends on which thread ran
  // what, and peak_rss_mb of a width-4 workload spread 0.27 from run to run.
  mallopt(M_ARENA_MAX, 1);
  try {
    // Driver options come first; every --grid starts one grid's flags.
    std::vector<const char*> own{argv[0]};
    std::vector<Flags> grids;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--grid") {
        grids.emplace_back();
      } else if (grids.empty()) {
        own.push_back(argv[i]);
      } else {
        grids.back().push_back(arg);
      }
    }
    const support::Cli cli(static_cast<int>(own.size()), own.data());
    cli.reject_unknown({"mode", "width", "seconds", "out", "csv", "spans", "check-width"});
    const std::string mode = cli.get("mode", "measure");
    const int width = static_cast<int>(cli.get_int("width", 1));
    const double seconds = cli.get_double("seconds", 10.0);
    const std::string out_path = cli.get("out", "");
    const std::string csv_path = cli.get("csv", "");
    if (grids.empty()) throw std::invalid_argument("no --grid given");
    if (mode != "measure" && mode != "trace") {
      throw std::invalid_argument("--mode must be measure or trace");
    }
    if (width < 1) throw std::invalid_argument("--width must be >= 1");
    if (out_path.empty() || csv_path.empty()) {
      throw std::invalid_argument("--out and --csv are required");
    }

    std::ostringstream out;
    out << std::setprecision(17) << "{\"mode\":" << json_string(mode) << ",\"width\":" << width;

    if (mode == "measure") {
      CpuRotation rotation(width == 1);
      Probe probe;
      // The probe slices between set-ups are sized to last about as long as
      // one set-up.  Every set-up pass follows a repetition, so each sees the
      // same heap state, and the passes sample the host's speed over the
      // whole run rather than over its first seconds.
      const double round_s = probe.run(kProbeRounds) / kProbeRounds;
      const int chunk =
          static_cast<int>(std::clamp(setup_once(grids) / round_s, 1024.0, double{kProbeRounds}));
      const Rep warm = run_rep(grids, width, nullptr);
      std::vector<double> setup;
      std::vector<double> setup_probe;
      std::vector<Rep> reps;
      const auto start = Clock::now();
      while (reps.size() < kMinReps || seconds_since(start) < seconds) {
        rotation.next();
        const auto [setup_s, pass_probe_s] = setup_pass(grids, probe, chunk);
        setup.push_back(setup_s);
        setup_probe.push_back(pass_probe_s);
        const double before = probe.run(kProbeRounds / 2);
        reps.push_back(run_rep(grids, width, &warm.csv));
        reps.back().probe_s = before + probe.run(kProbeRounds / 2);
      }
      const long rss = peak_rss_kb();
      out << ",\"setup_s\":";
      write_numbers(out, setup);
      out << ",\"setup_probe_s\":";
      write_numbers(out, setup_probe);
      out << ",\"warmup\":";
      write_rep(out, warm);
      out << ",\"reps\":";
      write_reps(out, reps);
      out << ",\"peak_rss_kb\":" << rss;
      const int check_width = static_cast<int>(cli.get_int("check-width", 0));
      if (check_width > 0) {
        out << ",\"check_width\":" << check_width << ",\"check\":";
        write_rep(out, run_rep(grids, check_width, &warm.csv));
      }
      write_file(csv_path, warm.csv);
    } else {
      const std::string spans_path = cli.get("spans", "");
      if (spans_path.empty()) throw std::invalid_argument("--mode=trace requires --spans");
      const Rep warm = run_rep(grids, width, nullptr);
      Tracer tracer(Clock::now());
      std::vector<Rep> reps;
      std::vector<Rep> traced;
      std::vector<Counters> counters;
      const auto start = Clock::now();
      CpuRotation rotation(width == 1);
      while (traced.size() < kMinReps || seconds_since(start) < seconds) {
        rotation.next();
        reps.push_back(run_rep(grids, width, &warm.csv));
        Counters k;
        traced.push_back(traced_rep(grids, width, warm.csv, tracer, k));
        counters.push_back(std::move(k));
      }
      const auto [armed, disarmed] = obs_overhead(grids, width);
      out << ",\"warmup\":";
      write_rep(out, warm);
      out << ",\"reps\":";
      write_reps(out, reps);
      out << ",\"traced\":";
      write_reps(out, traced);
      out << ",\"counters\":[";
      for (std::size_t i = 0; i < counters.size(); ++i) {
        if (i) out << ',';
        write_counters(out, counters[i]);
      }
      out << "],\"obs_armed_s\":" << armed << ",\"obs_disarmed_s\":" << disarmed
          << ",\"peak_rss_kb\":" << peak_rss_kb();
      write_spans(spans_path, tracer.spans());
      write_file(csv_path, warm.csv);
    }
    out << "}\n";
    write_file(out_path, out.str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}

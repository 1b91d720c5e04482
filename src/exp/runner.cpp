#include "exp/runner.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "core/runtime.hpp"
#include "exp/pool.hpp"
#include "net/characterize.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "svc/service.hpp"

namespace dlb::exp {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Service mode has no recorder or trace hooks (observability reduces to
/// the metrics registry), and online re-customization's kAuto is a
/// placeholder the prediction table ignores.
core::DlbConfig service_config(const CellSpec& spec) {
  core::DlbConfig config = spec.config;
  config.observe = false;
  config.record_trace = false;
  if (config.strategy == core::Strategy::kAuto) config.strategy = core::Strategy::kNoDlb;
  return config;
}

/// A service cell's set-up: characterize the network for the predictor
/// (pure virtual-time work, deterministic per parameter set), then predict
/// every (class, load variant, strategy) of the mix.
svc::PredictionTable service_table(const CellSpec& spec) {
  const auto costs =
      net::characterize(spec.params.network, std::max(spec.params.procs, 16)).costs;
  return svc::predicted_service_table(spec.params, service_config(spec), spec.service->mix,
                                      costs, spec.service->load_variants);
}

/// Service cells that differ only in arrival shape, offered load or
/// strategy read the same prediction table; every other axis may change it.
using SetupKey = std::array<std::size_t, 6>;
SetupKey setup_key(const CellSpec& c) {
  return {c.app_i, c.proc_i, c.topo_i, c.tl_i, c.load_i, c.seed_i};
}

/// One service cell: run the open stream on its prediction table.
void run_service_cell(CellResult& out, const svc::PredictionTable& table) {
  const bool observe = out.spec.config.observe;
  obs::MetricsRegistry registry;
  out.service = svc::run_service(out.spec.params, service_config(out.spec), *out.spec.service,
                                 table, observe ? &registry : nullptr);
  out.result.app_name = out.spec.app_name;
  out.result.strategy_name = out.spec.service->online
                                 ? "online"
                                 : std::string(core::strategy_name(out.spec.service->strategy));
  out.result.exec_seconds = out.service->horizon_seconds;
  out.result.messages = out.service->messages;
  out.result.bytes = out.service->bytes;
  if (observe) out.result.metrics = registry.snapshot();
}

/// Runner::run_cell, with a service cell reading `shared_table` when it is
/// non-null instead of building its own.
CellResult execute_cell(const ExperimentGrid& grid, std::size_t index, Pool* pool,
                        const svc::PredictionTable* shared_table) {
  const auto t0 = std::chrono::steady_clock::now();
  CellResult out;
  out.spec = grid.cell(index);

  if (out.spec.service) {
    if (shared_table != nullptr) {
      run_service_cell(out, *shared_table);
    } else {
      run_service_cell(out, service_table(out.spec));
    }
    out.wall_seconds = elapsed_seconds(t0);
    return out;
  }

  cluster::Cluster cluster(out.spec.params);
  std::optional<PoolShardExecutor> executor;
  if (pool != nullptr && cluster.engine().is_sharded()) {
    executor.emplace(*pool);
    cluster.engine().set_executor(&*executor);
  }
  const core::AppDescriptor& app =
      out.spec.app_override ? *out.spec.app_override : grid.apps[out.spec.app_i].app;
  core::Runtime runtime(cluster, app, out.spec.config);
  out.result = out.spec.loop_index < 0
                   ? runtime.run()
                   : runtime.run_single_loop(static_cast<std::size_t>(out.spec.loop_index));
  out.wall_seconds = elapsed_seconds(t0);
  return out;
}

}  // namespace

double SweepResult::cell_wall_sum() const {
  double sum = 0.0;
  for (const auto& c : cells) sum += c.wall_seconds;
  return sum;
}

Runner::Runner(RunnerOptions options) : options_(options) {}

CellResult Runner::run_cell(const ExperimentGrid& grid, std::size_t index, Pool* pool) {
  return execute_cell(grid, index, pool, nullptr);
}

SweepResult Runner::run_serial(const ExperimentGrid& grid) {
  grid.validate();
  const auto t0 = std::chrono::steady_clock::now();
  SweepResult sweep;
  sweep.threads = 1;
  const std::size_t n = grid.cell_count();
  sweep.cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sweep.cells.push_back(run_cell(grid, i));
  sweep.wall_seconds = elapsed_seconds(t0);
  return sweep;
}

SweepResult Runner::run(const ExperimentGrid& grid) const {
  grid.validate();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = grid.cell_count();

  SweepResult sweep;
  sweep.threads = Pool::resolve_threads(options_.threads);
  sweep.cells.resize(n);
  std::vector<std::exception_ptr> errors(n);

  // Submission order is a performance detail (and a determinism test
  // knob); each task writes only its own canonical slot.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (options_.shuffle_submission) {
    // Salted stream, not the raw seed: any future draw purpose sharing
    // shuffle_seed gets its own fork and the permutation stays put.
    constexpr std::uint64_t kShuffleStream = 0x53485546;  // "SHUF"
    support::Rng rng = support::Rng(options_.shuffle_seed).fork(kShuffleStream);
    for (std::size_t i = n; i > 1; --i) {
      const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
      std::swap(order[i - 1], order[static_cast<std::size_t>(j)]);
    }
  }

  Pool pool(options_.threads);

  // Service set-up: one prediction table per distinct key, built on the
  // pool before the cells that read it, then shared read-only.  A set-up
  // that throws fails every cell that reads it, as the cell's own set-up
  // would have.  Its host time is charged to its first reader, so
  // cell_wall_sum() stays the serial-equivalent cost.
  std::vector<std::size_t> table_of(n);
  std::vector<std::size_t> first_reader;
  if (grid.service.armed) {
    std::map<SetupKey, std::size_t> slots;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, added] = slots.try_emplace(setup_key(grid.cell(i)), first_reader.size());
      if (added) first_reader.push_back(i);
      table_of[i] = it->second;
    }
  }
  std::vector<svc::PredictionTable> tables(first_reader.size());
  std::vector<std::exception_ptr> setup_errors(first_reader.size());
  std::vector<double> setup_seconds(first_reader.size(), 0.0);
  for (std::size_t slot = 0; slot < first_reader.size(); ++slot) {
    pool.submit([&grid, &tables, &setup_errors, &setup_seconds, &first_reader, slot] {
      const auto s0 = std::chrono::steady_clock::now();
      try {
        tables[slot] = service_table(grid.cell(first_reader[slot]));
      } catch (...) {
        setup_errors[slot] = std::current_exception();
      }
      setup_seconds[slot] = elapsed_seconds(s0);
    });
  }
  pool.wait();

  for (const std::size_t index : order) {
    const svc::PredictionTable* table = nullptr;
    double setup_s = 0.0;
    if (grid.service.armed) {
      const std::size_t slot = table_of[index];
      if (setup_errors[slot]) {
        errors[index] = setup_errors[slot];
        continue;
      }
      table = &tables[slot];
      if (first_reader[slot] == index) setup_s = setup_seconds[slot];
    }
    pool.submit([&grid, &sweep, &errors, &pool, index, table, setup_s] {
      try {
        sweep.cells[index] = execute_cell(grid, index, &pool, table);
        sweep.cells[index].wall_seconds += setup_s;
      } catch (...) {
        errors[index] = std::current_exception();
      }
    });
  }
  pool.wait();

  // Re-throw the first failure in canonical order (deterministic even when
  // several cells fail).
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  sweep.wall_seconds = elapsed_seconds(t0);
  return sweep;
}

}  // namespace dlb::exp

#include "exp/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "model/predictor.hpp"
#include "net/characterize.hpp"
#include "net/topology.hpp"
#include "support/csv.hpp"
#include "support/ranking.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace dlb::exp {

namespace {

// 12 fixed columns plus the optional service, fault, metric and
// wall_seconds ones.
constexpr std::size_t kMaxColumns = 34;

/// Canonical metric column set: the union of metric names over all cells,
/// sorted (snapshots are already name-sorted, so a std::map union keeps the
/// canonical order).  Identically configured cells register identical names,
/// so this is usually just the first cell's key sequence.
std::vector<std::string> metric_columns(const SweepResult& sweep) {
  std::map<std::string, int> names;
  for (const auto& c : sweep.cells) {
    for (const auto& [name, value] : c.result.metrics.values) names.emplace(name, 0);
  }
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const auto& [name, unused] : names) out.push_back(name);
  return out;
}

/// Service cells under online re-customization carry Strategy::kAuto; the
/// canonical label for that mode is "online", not the selector's "Auto".
std::string strategy_label(const CellResult& c) {
  if (c.spec.service && c.spec.config.strategy == core::Strategy::kAuto) return "online";
  return std::string(core::strategy_name(c.spec.config.strategy));
}

std::vector<std::string> header_row(const ReportOptions& options,
                                    const std::vector<std::string>& metrics) {
  std::vector<std::string> h;
  h.reserve(kMaxColumns + metrics.size());
  h.insert(h.end(), {"app", "procs"});
  if (options.include_topology) h.push_back("topology");
  if (options.include_service) h.insert(h.end(), {"arrivals", "rate"});
  h.insert(h.end(), {"strategy", "tl_seconds",
                     "max_load", "seed", "exec_seconds",    "syncs",
                     "redistributions", "iterations_moved", "messages", "bytes"});
  if (options.include_service) {
    h.insert(h.end(),
             {"jobs", "rate_jobs_per_sec", "throughput_jobs_per_sec", "utilization",
              "p50_sojourn_seconds", "p99_sojourn_seconds", "p999_sojourn_seconds",
              "mean_sojourn_seconds", "mean_service_seconds", "mean_wait_seconds",
              "strategy_switches"});
  }
  if (options.include_faults) {
    h.insert(h.end(), {"faults", "crashes", "revocations", "rejoins", "dropped_frames",
                       "retries", "recoveries", "iterations_recovered"});
  }
  h.insert(h.end(), metrics.begin(), metrics.end());
  if (options.include_timing) h.push_back("wall_seconds");
  return h;
}

std::vector<std::string> cell_row(const CellResult& c, const ReportOptions& options,
                                  const std::vector<std::string>& metrics) {
  std::vector<std::string> row;
  row.reserve(kMaxColumns + metrics.size());
  row.insert(row.end(), {
      c.spec.app_name,
      std::to_string(c.spec.params.procs),
  });
  if (options.include_topology) {
    row.push_back(net::topology_name(c.spec.params.topology));
  }
  if (options.include_service) {
    const auto& sp = c.spec.service;
    row.push_back(sp ? svc::arrival_name(sp->arrival) : "none");
    row.push_back(fmt_exact(sp ? sp->rho : 0.0));
  }
  row.insert(row.end(), {
      strategy_label(c),
      fmt_exact(c.spec.tl_seconds),
      std::to_string(c.spec.params.load.max_load),
      std::to_string(c.spec.seed()),
      fmt_exact(c.result.exec_seconds),
      std::to_string(c.result.total_syncs()),
      std::to_string(c.result.total_redistributions()),
      std::to_string(c.result.total_iterations_moved()),
      std::to_string(c.result.messages),
      std::to_string(c.result.bytes),
  });
  if (options.include_service) {
    const svc::ServiceReport empty{};
    const auto& r = c.service ? *c.service : empty;
    row.insert(row.end(), {
        std::to_string(r.jobs),
        fmt_exact(r.rate_jobs_per_sec),
        fmt_exact(r.throughput_jobs_per_sec),
        fmt_exact(r.utilization),
        fmt_exact(r.p50_sojourn_seconds),
        fmt_exact(r.p99_sojourn_seconds),
        fmt_exact(r.p999_sojourn_seconds),
        fmt_exact(r.mean_sojourn_seconds),
        fmt_exact(r.mean_service_seconds),
        fmt_exact(r.mean_wait_seconds),
        std::to_string(r.strategy_switches),
    });
  }
  if (options.include_faults) {
    const auto& f = c.result.faults;
    row.insert(row.end(), {
        c.spec.config.faults.name,
        std::to_string(f.crashes),
        std::to_string(f.revocations),
        std::to_string(f.rejoins),
        std::to_string(f.dropped_frames),
        std::to_string(f.retries),
        std::to_string(f.recoveries),
        std::to_string(f.iterations_recovered),
    });
  }
  for (const auto& name : metrics) {
    row.push_back(fmt_exact(c.result.metrics.value_of(name, 0.0)));
  }
  if (options.include_timing) row.push_back(fmt_exact(c.wall_seconds));
  return row;
}

/// Mean exec_seconds of the grid point whose seeds start at cell `base`.
double mean_exec(const SweepResult& sweep, std::size_t base, int seeds) {
  double exec = 0.0;
  for (int s = 0; s < seeds; ++s) {
    exec += sweep.cells[base + static_cast<std::size_t>(s)].result.exec_seconds;
  }
  return exec / seeds;
}

/// Key shared by the grid points that differ only in strategy: the index of
/// the point's first strategy and seed.
std::size_t strategy_group(const CellSpec& spec, int seeds) {
  return spec.index - spec.strat_i * static_cast<std::size_t>(seeds);
}

/// A JSON numeric token for an already-formatted value.  IEEE infinities and
/// NaNs have no JSON spelling — "inf"/"nan" in the output used to make the
/// whole document unparseable — so they become null.
bool json_numeric_invalid(const std::string& formatted) {
  return formatted.find("inf") != std::string::npos ||
         formatted.find("nan") != std::string::npos;
}

/// One summary row: a grid point's identity and its means over the seeds.
struct SummaryPoint {
  std::string app, procs, topology, arrivals, strategy, max_load;
  double rate = 0.0, tl = 0.0, exec = 0.0, vs_nodlb = 0.0, syncs = 0.0, moved = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0, throughput = 0.0, util = 0.0;
};

/// One summary column: its headers in the aligned table and the CSV block,
/// and the field it prints, either a label (the same text in both) or a
/// number (fixed-point in the table, round-trip in the CSV block).
struct SummaryColumn {
  const char* table_header;
  const char* csv_header;
  std::string SummaryPoint::*label;
  double SummaryPoint::*number;
  int decimals;
};

SummaryColumn label(const char* table_header, const char* csv_header,
                    std::string SummaryPoint::*field) {
  return {table_header, csv_header, field, nullptr, 0};
}

SummaryColumn number(const char* table_header, const char* csv_header,
                     double SummaryPoint::*field, int decimals) {
  return {table_header, csv_header, nullptr, field, decimals};
}

std::vector<SummaryColumn> summary_columns(bool topology, bool service, bool normalized) {
  using S = SummaryPoint;
  std::vector<SummaryColumn> columns{label("app", "app", &S::app), label("P", "procs", &S::procs)};
  if (topology) columns.push_back(label("topology", "topology", &S::topology));
  if (service) {
    columns.push_back(label("arrivals", "arrivals", &S::arrivals));
    columns.push_back(number("rate", "rate", &S::rate, 2));
  }
  columns.insert(columns.end(), {label("strategy", "strategy", &S::strategy),
                                 number("tl", "tl_seconds", &S::tl, 1),
                                 label("m_l", "max_load", &S::max_load),
                                 number("mean exec [s]", "mean_exec_seconds", &S::exec, 4)});
  if (normalized) columns.push_back(number("vs NoDLB", "normalized_exec", &S::vs_nodlb, 3));
  columns.push_back(number("mean syncs", "mean_syncs", &S::syncs, 2));
  columns.push_back(number("mean moved", "mean_iterations_moved", &S::moved, 1));
  if (service) {
    columns.insert(columns.end(),
                   {number("p50 [s]", "mean_p50_sojourn_seconds", &S::p50, 4),
                    number("p99 [s]", "mean_p99_sojourn_seconds", &S::p99, 4),
                    number("p999 [s]", "mean_p999_sojourn_seconds", &S::p999, 4),
                    number("jobs/s", "mean_throughput_jobs_per_sec", &S::throughput, 3),
                    number("util", "mean_utilization", &S::util, 4)});
  }
  return columns;
}

}  // namespace

std::string fmt_exact(double value) {
  std::ostringstream ss;
  ss << std::setprecision(17) << value;
  return ss.str();
}

void write_csv(std::ostream& os, const SweepResult& sweep, const ReportOptions& options) {
  const auto metrics =
      options.include_metrics ? metric_columns(sweep) : std::vector<std::string>{};
  support::CsvWriter csv(os);
  csv.write_row(header_row(options, metrics));
  for (const auto& c : sweep.cells) csv.write_row(cell_row(c, options, metrics));
}

void write_json(std::ostream& os, const SweepResult& sweep, const ReportOptions& options) {
  const auto metrics =
      options.include_metrics ? metric_columns(sweep) : std::vector<std::string>{};
  const auto header = header_row(options, metrics);
  os << "[\n";
  std::string line;  // reused across rows; capacity settles after the first
  line.reserve(256);
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const auto row = cell_row(sweep.cells[i], options, metrics);
    line.clear();
    line += "  {";
    for (std::size_t k = 0; k < header.size(); ++k) {
      // Numeric columns are every one except app, topology, arrivals,
      // strategy and the fault preset name.
      const bool quoted = header[k] == "app" || header[k] == "topology" ||
                          header[k] == "arrivals" || header[k] == "strategy" ||
                          header[k] == "faults";
      if (k) line += ", ";
      line += '"';
      line += header[k];
      line += "\": ";
      if (quoted) {
        line += '"';
        line += row[k];
        line += '"';
      } else if (json_numeric_invalid(row[k])) {
        line += "null";
      } else {
        line += row[k];
      }
    }
    line += '}';
    if (i + 1 < sweep.cells.size()) line += ',';
    line += '\n';
    os << line;
  }
  os << "]\n";
}

void write_summary(std::ostream& os, const SweepResult& sweep, int seeds, bool include_topology,
                   bool include_service) {
  if (seeds <= 0 || sweep.cells.size() % static_cast<std::size_t>(seeds) != 0) {
    os << "(summary unavailable: cell count not a multiple of seeds)\n";
    return;
  }
  // NoDLB's mean exec per strategy group, the baseline Figs. 5-8 normalize
  // to; empty (and no normalized column) when the grid has no NoDLB.
  std::map<std::size_t, double> nodlb;
  if (!include_service) {
    for (std::size_t base = 0; base < sweep.cells.size();
         base += static_cast<std::size_t>(seeds)) {
      const auto& spec = sweep.cells[base].spec;
      if (spec.config.strategy == core::Strategy::kNoDlb) {
        nodlb[strategy_group(spec, seeds)] = mean_exec(sweep, base, seeds);
      }
    }
  }
  const auto columns = summary_columns(include_topology, include_service, !nodlb.empty());
  std::vector<std::string> table_row;
  std::vector<std::string> csv_row;
  for (const auto& column : columns) {
    table_row.emplace_back(column.table_header);
    csv_row.emplace_back(column.csv_header);
  }
  support::Table table(table_row);
  std::ostringstream csv_buf;
  support::CsvWriter csv(csv_buf);
  csv.write_row(csv_row);

  // Seeds are the innermost axis, so each grid point is a contiguous block.
  for (std::size_t base = 0; base < sweep.cells.size(); base += static_cast<std::size_t>(seeds)) {
    const auto& spec = sweep.cells[base].spec;
    SummaryPoint p{
        .app = spec.app_name,
        .procs = std::to_string(spec.params.procs),
        .topology = net::topology_name(spec.params.topology),
        .arrivals = spec.service ? svc::arrival_name(spec.service->arrival) : "none",
        .strategy = strategy_label(sweep.cells[base]),
        .max_load = std::to_string(spec.params.load.max_load),
        .rate = spec.service ? spec.service->rho : 0.0,
        .tl = spec.tl_seconds,
        .exec = mean_exec(sweep, base, seeds),
    };
    for (int s = 0; s < seeds; ++s) {
      const auto& cell = sweep.cells[base + static_cast<std::size_t>(s)];
      p.syncs += cell.result.total_syncs();
      p.moved += static_cast<double>(cell.result.total_iterations_moved());
      if (cell.service) {
        p.p50 += cell.service->p50_sojourn_seconds;
        p.p99 += cell.service->p99_sojourn_seconds;
        p.p999 += cell.service->p999_sojourn_seconds;
        p.throughput += cell.service->throughput_jobs_per_sec;
        p.util += cell.service->utilization;
      }
    }
    for (double* mean : {&p.syncs, &p.moved, &p.p50, &p.p99, &p.p999, &p.throughput, &p.util}) {
      *mean /= seeds;
    }
    if (!nodlb.empty()) p.vs_nodlb = p.exec / nodlb.at(strategy_group(spec, seeds));
    table_row.clear();
    csv_row.clear();
    for (const auto& column : columns) {
      if (column.label) {
        table_row.push_back(p.*column.label);
        csv_row.push_back(p.*column.label);
      } else {
        table_row.push_back(support::fmt_fixed(p.*column.number, column.decimals));
        csv_row.push_back(fmt_exact(p.*column.number));
      }
    }
    table.add_row(table_row);
    csv.write_row(csv_row);
  }
  table.print(os);
  os << "\ncsv:\n" << csv_buf.str();
}

std::vector<OrderRow> order_rows(const ExperimentGrid& grid, const SweepResult& sweep) {
  const auto seeds = static_cast<std::size_t>(grid.seeds);
  // Strategy-axis position of each ranked strategy.
  std::vector<std::size_t> slot;
  for (int id = 0; id < core::kRankedStrategyCount; ++id) {
    const auto strategy = core::ranked_strategy(id);
    const auto it = std::find(grid.strategies.begin(), grid.strategies.end(), strategy);
    if (it == grid.strategies.end()) {
      throw std::invalid_argument(std::string("order_rows: the strategy axis lacks ") +
                                  core::strategy_name(strategy));
    }
    slot.push_back(static_cast<std::size_t>(it - grid.strategies.begin()));
  }
  const auto costs = net::characterize(grid.cluster_template.network, 16).costs;

  std::vector<OrderRow> rows;
  // Strategy and seed are the innermost axes, so each grid point is one
  // contiguous block of cells.
  const std::size_t block = grid.strategies.size() * seeds;
  for (std::size_t base = 0; base < sweep.cells.size(); base += block) {
    std::vector<double> actual;
    for (const auto k : slot) {
      std::vector<double> times;
      for (std::size_t s = 0; s < seeds; ++s) {
        times.push_back(sweep.cells[base + k * seeds + s].result.exec_seconds);
      }
      actual.push_back(support::mean_of(times));
    }

    // The model on each seed's load realization (§4.3 feeds the observed
    // load into the model), summed over the seeds.
    std::vector<double> predicted(slot.size(), 0.0);
    for (std::size_t s = 0; s < seeds; ++s) {
      const CellSpec& spec = sweep.cells[base + s].spec;
      const core::AppDescriptor& app =
          spec.app_override ? *spec.app_override : grid.apps[spec.app_i].app;
      for (std::size_t li = 0; li < app.loops.size(); ++li) {
        if (spec.loop_index >= 0 && li != static_cast<std::size_t>(spec.loop_index)) continue;
        model::PredictorInputs inputs;
        inputs.cluster = spec.params;
        inputs.loop = &app.loops[li];
        inputs.costs = costs;
        inputs.config = spec.config;
        const model::Predictor predictor(inputs);
        for (int id = 0; id < core::kRankedStrategyCount; ++id) {
          predicted[static_cast<std::size_t>(id)] +=
              predictor.predict(core::ranked_strategy(id)).makespan_seconds;
        }
      }
    }

    OrderRow row;
    row.app = sweep.cells[base].spec.app_name;
    row.procs = sweep.cells[base].spec.params.procs;
    row.actual = support::rank_by_cost(actual);
    row.predicted = support::rank_by_cost(predicted);
    row.kendall_tau = support::kendall_tau(row.actual, row.predicted);
    row.positions_matched = support::positions_matched(row.actual, row.predicted);
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const OrderRow& a, const OrderRow& b) { return a.procs < b.procs; });
  return rows;
}

void write_order_table(std::ostream& os, const std::vector<OrderRow>& rows) {
  const std::vector<std::string> labels{"GC", "GD", "LC", "LD"};
  support::Table table({"app", "P", "actual (best first)", "predicted (best first)",
                        "kendall tau", "pos match"});
  double tau_sum = 0.0;
  int exact = 0;
  for (const auto& row : rows) {
    table.add_row({row.app, std::to_string(row.procs), support::format_order(row.actual, labels),
                   support::format_order(row.predicted, labels),
                   support::fmt_fixed(row.kendall_tau, 2),
                   std::to_string(row.positions_matched) + "/4"});
    tau_sum += row.kendall_tau;
    if (row.positions_matched == core::kRankedStrategyCount) ++exact;
  }
  table.print(os);
  os << "mean kendall tau = "
     << support::fmt_fixed(rows.empty() ? 0.0 : tau_sum / static_cast<double>(rows.size()), 3)
     << ", exact rows " << exact << "/" << rows.size() << "\n";
}

void write_timing(std::ostream& os, const SweepResult& sweep) {
  const double wall = sweep.wall_seconds;
  const double serial = sweep.cell_wall_sum();
  os << "timing: " << sweep.cells.size() << " cells, " << sweep.threads << " threads, wall "
     << support::fmt_fixed(wall, 3) << " s, serial-equivalent " << support::fmt_fixed(serial, 3)
     << " s, speedup " << support::fmt_fixed(wall > 0 ? serial / wall : 0.0, 2) << "x, "
     << support::fmt_fixed(wall > 0 ? sweep.cells.size() / wall : 0.0, 1) << " cells/s\n";
}

}  // namespace dlb::exp

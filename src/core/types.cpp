#include "core/types.hpp"

#include <cmath>

namespace dlb::core {

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::kNoDlb:
      return "NoDLB";
    case Strategy::kGCDLB:
      return "GCDLB";
    case Strategy::kGDDLB:
      return "GDDLB";
    case Strategy::kLCDLB:
      return "LCDLB";
    case Strategy::kLDDLB:
      return "LDDLB";
    case Strategy::kAuto:
      return "Auto";
  }
  return "?";
}

const char* strategy_label(Strategy s) noexcept {
  switch (s) {
    case Strategy::kNoDlb:
      return "--";
    case Strategy::kGCDLB:
      return "GC";
    case Strategy::kGDDLB:
      return "GD";
    case Strategy::kLCDLB:
      return "LC";
    case Strategy::kLDDLB:
      return "LD";
    case Strategy::kAuto:
      return "AU";
  }
  return "?";
}

Strategy ranked_strategy(int id) {
  switch (id) {
    case 0:
      return Strategy::kGCDLB;
    case 1:
      return Strategy::kGDDLB;
    case 2:
      return Strategy::kLCDLB;
    case 3:
      return Strategy::kLDDLB;
    default:
      throw std::invalid_argument("ranked_strategy: id out of range");
  }
}

int ranked_id(Strategy s) {
  switch (s) {
    case Strategy::kGCDLB:
      return 0;
    case Strategy::kGDDLB:
      return 1;
    case Strategy::kLCDLB:
      return 2;
    case Strategy::kLDDLB:
      return 3;
    default:
      throw std::invalid_argument("ranked_id: not a ranked strategy");
  }
}

double LoopDescriptor::ops_of(std::int64_t iteration) const {
  if (iteration < 0 || iteration >= iterations) {
    throw std::out_of_range("LoopDescriptor: iteration index out of range");
  }
  return work_ops ? work_ops(iteration) : 0.0;
}

double LoopDescriptor::ops_in_range(std::int64_t lo, std::int64_t hi) const {
  if (lo < 0 || hi > iterations || lo > hi) {
    throw std::out_of_range("LoopDescriptor: bad iteration range");
  }
  double total = 0.0;
  for (std::int64_t i = lo; i < hi; ++i) total += work_ops(i);
  return total;
}

double LoopDescriptor::mean_ops() const {
  if (iterations == 0) return 0.0;
  return total_ops() / static_cast<double>(iterations);
}

void LoopDescriptor::validate() const {
  if (iterations < 0) throw std::invalid_argument("LoopDescriptor: negative iterations");
  if (!work_ops) throw std::invalid_argument("LoopDescriptor: missing work function");
  if (bytes_per_iteration < 0.0) {
    throw std::invalid_argument("LoopDescriptor: negative bytes_per_iteration");
  }
  if (!std::isfinite(bytes_per_iteration)) {
    throw std::invalid_argument("LoopDescriptor: non-finite bytes_per_iteration");
  }
  if (intrinsic_bytes_per_iteration < 0.0) {
    throw std::invalid_argument("LoopDescriptor: negative intrinsic_bytes_per_iteration");
  }
  if (!std::isfinite(intrinsic_bytes_per_iteration)) {
    throw std::invalid_argument("LoopDescriptor: non-finite intrinsic_bytes_per_iteration");
  }
}

void AppDescriptor::validate() const {
  if (loops.empty()) throw std::invalid_argument("AppDescriptor: no loops");
  for (const auto& loop : loops) loop.validate();
  if (!phases.empty() && phases.size() != loops.size() - 1) {
    throw std::invalid_argument("AppDescriptor: phases must be loops-1 or empty");
  }
}

void DlbConfig::validate(int procs) const {
  if (procs < 1) throw std::invalid_argument("DlbConfig: procs < 1");
  if (group_size < 0 || group_size > procs) {
    throw std::invalid_argument("DlbConfig: group_size out of range");
  }
  if (profitability_margin < 0.0) {
    throw std::invalid_argument("DlbConfig: negative profitability margin");
  }
  if (move_threshold_fraction < 0.0 || move_threshold_fraction >= 1.0) {
    throw std::invalid_argument("DlbConfig: move threshold must be in [0, 1)");
  }
  if (faults.armed()) {
    faults.validate(procs);
    if (strategy == Strategy::kNoDlb) {
      throw std::invalid_argument(
          "DlbConfig: kNoDlb cannot run with faults armed (no balancing rounds "
          "means no path to re-execute a dead workstation's iterations)");
    }
  }
}

int DlbConfig::effective_group_size(int procs) const {
  if (strategy == Strategy::kGCDLB || strategy == Strategy::kGDDLB ||
      strategy == Strategy::kNoDlb) {
    return procs;
  }
  if (group_size > 0) return group_size;
  return (procs + 1) / 2;  // two K-block groups, the paper's configuration
}

}  // namespace dlb::core

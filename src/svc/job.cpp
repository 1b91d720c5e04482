#include "svc/job.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/time.hpp"

namespace dlb::svc {

void JobClass::validate() const {
  if (name.empty()) throw std::invalid_argument("JobClass: name must be non-empty");
  if (iterations < 1) throw std::invalid_argument("JobClass: iterations must be >= 1");
  if (!(ops_per_iteration > 0.0) || !std::isfinite(ops_per_iteration)) {
    throw std::invalid_argument("JobClass: ops_per_iteration must be finite and > 0");
  }
  if (bytes_per_iteration < 0.0) {
    throw std::invalid_argument("JobClass: bytes_per_iteration must be >= 0");
  }
  if (!(tl_seconds > 0.0) || !sim::fits_sim_time(tl_seconds)) {
    throw std::invalid_argument("JobClass: tl_seconds must be > 0 and fit virtual time");
  }
  if (max_load < 0) throw std::invalid_argument("JobClass: max_load must be >= 0");
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    throw std::invalid_argument("JobClass: weight must be finite and > 0");
  }
}

core::LoopDescriptor JobClass::loop() const {
  core::LoopDescriptor loop;
  loop.name = name;
  loop.iterations = iterations;
  const double ops = ops_per_iteration;
  loop.work_ops = [ops](std::int64_t) { return ops; };
  loop.bytes_per_iteration = bytes_per_iteration;
  return loop;
}

void JobMix::validate() const {
  if (classes.empty()) throw std::invalid_argument("JobMix: at least one class required");
  for (const auto& c : classes) c.validate();
}

double JobMix::total_weight() const {
  double total = 0.0;
  for (const auto& c : classes) total += c.weight;
  return total;
}

int JobMix::class_for(double u) const {
  const double target = u * total_weight();
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < classes.size(); ++i) {
    cumulative += classes[i].weight;
    if (target < cumulative) return static_cast<int>(i);
  }
  return static_cast<int>(classes.size()) - 1;
}

bool JobMix::uniform_load_shape() const {
  for (const auto& c : classes) {
    if (c.tl_seconds != classes.front().tl_seconds || c.max_load != classes.front().max_load) {
      return false;
    }
  }
  return true;
}

JobMix JobMix::builtin(const std::string& name) {
  JobMix mix;
  mix.name = name;
  if (name == "default") {
    mix.classes = {
        {"small", 256, 200e3, 64.0, 4.0, 5, 0.6},
        {"medium", 1024, 200e3, 64.0, 4.0, 5, 0.3},
        {"large", 4096, 200e3, 64.0, 4.0, 5, 0.1},
    };
  } else if (name == "hetero") {
    mix.classes = {
        {"small-calm", 256, 200e3, 64.0, 8.0, 2, 0.4},
        {"small-stormy", 256, 200e3, 64.0, 1.0, 8, 0.2},
        {"medium", 1024, 200e3, 64.0, 4.0, 5, 0.3},
        {"large-heavy", 4096, 200e3, 256.0, 2.0, 6, 0.1},
    };
  } else {
    throw std::invalid_argument("JobMix: unknown mix '" + name + "' (try default|hetero)");
  }
  mix.validate();
  return mix;
}

}  // namespace dlb::svc

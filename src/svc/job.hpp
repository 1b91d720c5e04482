#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "load/load_function.hpp"

namespace dlb::svc {

/// One class of loop jobs in the offered traffic: a uniform parallel loop of
/// `iterations` x `ops_per_iteration` basic operations, redistributed at
/// `bytes_per_iteration`, experiencing external load with persistence
/// `tl_seconds` (t_l) and peak level `max_load` (m_l).  The per-job
/// size/t_l/m_l distribution of the stream is the weighted mix of its
/// classes.
struct JobClass {
  std::string name;
  std::int64_t iterations = 1024;
  double ops_per_iteration = 200e3;
  double bytes_per_iteration = 64.0;
  double tl_seconds = 4.0;
  int max_load = load::LoadParams{}.max_load;
  double weight = 1.0;

  void validate() const;

  /// The class as a loop descriptor ready for admission or prediction.
  [[nodiscard]] core::LoopDescriptor loop() const;
};

/// Weighted mixture of job classes; the class of each arriving job is drawn
/// from this distribution on a seed-salted stream.
struct JobMix {
  std::string name = "default";
  std::vector<JobClass> classes;

  void validate() const;
  [[nodiscard]] double total_weight() const;

  /// Maps a uniform [0,1) draw to a class index by cumulative weight.
  [[nodiscard]] int class_for(double u) const;

  /// True when every class shares one (t_l, m_l) pair — required by the sim
  /// backend, whose persistent cluster carries a single load realization.
  [[nodiscard]] bool uniform_load_shape() const;

  /// Built-in mixes.  "default": three sizes (small/medium/large, 60/30/10)
  /// sharing one load shape; "hetero": sizes *and* per-class t_l/m_l vary.
  [[nodiscard]] static JobMix builtin(const std::string& name);
};

/// One admitted job of the open stream.
struct Job {
  std::uint64_t id = 0;
  double arrival_seconds = 0.0;
  int class_index = 0;
  int load_variant = 0;  // selects the salted load realization for prediction
};

}  // namespace dlb::svc

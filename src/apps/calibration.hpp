#pragma once

#include "cluster/cluster.hpp"

namespace dlb::apps {

/// The cluster calibration that travels with an application.  The paper
/// profiles the per-iteration time of each application (§4.1); the base
/// rate plays that role here.  Every run sits under the paper's discrete
/// random external load with m_l = 5 (load::LoadParams' default) and the
/// persistence t_l below.  The paper does not report t_l; these values
/// reproduce its orderings, and `dlb_sweep --tl` sweeps them.
///
/// This is the one calibration table: every dlb_sweep preset, bench program
/// and example reads it.
struct Calibration {
  /// Basic operations per second of a speed-1.0 station.
  double base_ops_per_sec;
  /// Load persistence t_l.
  double tl_seconds;

  /// ClusterParams for `procs` stations at this calibration, every other
  /// field at its default.
  [[nodiscard]] cluster::ClusterParams cluster(int procs) const;
};

/// MXM's basic op is a multiply-add at ~3 Mop/s effective on a
/// SPARC-LX-class node.  Long-lived load (t_l comparable to the run)
/// preserves the imbalance MXM's global schemes exploit.
inline constexpr Calibration kMxmCalibration{3e6, 16.0};
/// TRFD's "basic operations" are heavier.
inline constexpr Calibration kTrfdCalibration{1e6, 2.0};
/// Synthetic loops (apps/synthetic.hpp): the scale and service presets and
/// the uniform app.
inline constexpr Calibration kSyntheticCalibration{20e6, 1.0};

}  // namespace dlb::apps

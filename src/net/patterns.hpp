#pragma once

#include <cstddef>

#include "net/params.hpp"

namespace dlb::net {

/// The three communication patterns the paper characterizes off-line (§6.1,
/// Fig. 4) and uses in the strategies' synchronization cost (§4.2):
///   OneToAll : root -> everyone          (interrupt / instruction send)
///   AllToOne : everyone -> root          (profile send, centralized)
///   AllToAll : everyone -> everyone      (profile broadcast, distributed)
enum class Pattern { kOneToAll, kAllToOne, kAllToAll };

/// Largest processor count measure_pattern simulates all-to-all event by
/// event; beyond it the closed form below is returned instead.  The two are
/// exactly equal (a differential test pins them together bit for bit), so
/// the threshold is purely a cost knob: the simulated exchange is O(P^2)
/// events while the closed form is O(P) arithmetic.
inline constexpr int kAnalyticAllToAllThreshold = 64;

/// Closed-form completion time of the all-to-all exchange, exactly equal to
/// the simulated measurement.  The simulated pattern is regular enough to
/// fold analytically: all P senders wake at multiples of o_s and reserve the
/// shared medium in sender-id order each round, so round j's first grab is
/// B_j = max(j*o_s, F_{j-1}) with F_j = B_j + P*occ, and receiver d's
/// arrivals form two affine-in-position segments (round d from lower-id
/// senders, round d+1 from higher-id ones).  The receive fold
/// r_k = max(r_{k-1}, a_k) + o_r then attains its maximum at a segment
/// endpoint, leaving O(1) candidates per receiver after the O(P) B_j sweep.
[[nodiscard]] double alltoall_analytic(int procs, std::size_t bytes,
                                       const EthernetParams& params);

/// Runs one pattern among `procs` endpoints exchanging `bytes`-sized messages
/// on a fresh simulator and returns the completion time in seconds (the time
/// at which the last participant has consumed its last message).  This is the
/// simulated analogue of the paper's measurement runs.
[[nodiscard]] double measure_pattern(Pattern pattern, int procs, std::size_t bytes,
                                     const EthernetParams& params);

}  // namespace dlb::net

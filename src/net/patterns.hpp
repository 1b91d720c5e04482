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

/// Closed-form completion time of the all-to-all exchange: every endpoint
/// sends one frame to each other endpoint (pvm_send per destination), then
/// consumes its P-1 arrivals.  It is bit-equal to simulating that exchange
/// event by event (net_patterns_test keeps the simulation as its oracle, at
/// P = 2..64 and under skewed parameters), at O(P) arithmetic instead of
/// O(P^2) events.  The pattern is regular enough to fold analytically: all P
/// senders wake at multiples of o_s and reserve the shared medium in
/// sender-id order each round, so round j's first grab is
/// B_j = max(j*o_s, F_{j-1}) with F_j = B_j + P*occ, and receiver d's
/// arrivals form two affine-in-position segments (round d from lower-id
/// senders, round d+1 from higher-id ones).  The receive fold
/// r_k = max(r_{k-1}, a_k) + o_r then attains its maximum at a segment
/// endpoint, leaving O(1) candidates per receiver after the O(P) B_j sweep.
[[nodiscard]] double alltoall_analytic(int procs, std::size_t bytes,
                                       const EthernetParams& params);

/// Completion time in seconds of one pattern among `procs` endpoints
/// exchanging `bytes`-sized messages: the time at which the last participant
/// has consumed its last message.  Each pattern is priced in closed form,
/// bit-equal to simulating it event by event on a fresh shared LAN, the
/// analogue of the paper's measurement runs (net_patterns_test keeps those
/// simulations as its oracle).  With m = procs - 1 and
/// occ = params.medium_occupancy(bytes), in integer SimTime:
///   one-to-all  o_s + (m-1)*max(o_s, occ) + occ + prop + o_r
///   all-to-one  o_s + prop + max(occ + m*o_r, m*occ + o_r)
///   all-to-all  alltoall_analytic
[[nodiscard]] double measure_pattern(Pattern pattern, int procs, std::size_t bytes,
                                     const EthernetParams& params);

}  // namespace dlb::net

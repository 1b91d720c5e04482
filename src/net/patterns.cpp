#include "net/patterns.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace dlb::net {

double alltoall_analytic(int procs, std::size_t bytes, const EthernetParams& params) {
  if (procs < 2) throw std::invalid_argument("alltoall_analytic: need at least 2 processors");
  const int last_round = procs - 1;  // every sender ships one frame per round
  const sim::SimTime o_s = params.sender_overhead;
  const sim::SimTime o_r = params.receiver_overhead;
  const sim::SimTime occ = params.medium_occupancy(bytes);
  const sim::SimTime prop = params.propagation;

  // B[j] = first medium grab of round j: every sender wakes at j*o_s, and
  // wake events pop in sender-id order, so the round's P reservations are
  // back to back from max(wake, medium free).
  std::vector<sim::SimTime> round_base(static_cast<std::size_t>(procs), 0);
  sim::SimTime medium_free = 0;
  for (int j = 1; j <= last_round; ++j) {
    const sim::SimTime wake = static_cast<sim::SimTime>(j) * o_s;
    round_base[static_cast<std::size_t>(j)] = wake > medium_free ? wake : medium_free;
    medium_free = round_base[static_cast<std::size_t>(j)] + static_cast<sim::SimTime>(procs) * occ;
  }

  // Receiver d consumes m = P-1 arrivals with the fold r_k = max(r_{k-1},
  // a_k) + o_r from r_0 = m*o_s (its own last send).  Closed form:
  // max(r_0 + m*o_r, max_k(a_k + (m-k+1)*o_r)); a_k is affine in k within
  // each round segment, so only segment endpoints can win.  Sender i's
  // round-j frame lands at B_j + (i+1)*occ + prop; lower-id senders (i < d)
  // hit d in round d at positions k = 1..d, higher-id ones (i > d) in round
  // d+1 at positions k = d+1..m with a_k = B_{d+1} + (k+1)*occ + prop.
  const sim::SimTime m = last_round;
  sim::SimTime finish = 0;
  for (int d = 0; d < procs; ++d) {
    sim::SimTime r = m * o_s + m * o_r;  // all arrivals early: pure unpacking
    const auto consider = [&r, m, o_r](sim::SimTime k, sim::SimTime arrival) {
      const sim::SimTime candidate = arrival + (m - k + 1) * o_r;
      if (candidate > r) r = candidate;
    };
    if (d >= 1) {
      const sim::SimTime base = round_base[static_cast<std::size_t>(d)] + prop;
      consider(1, base + occ);
      consider(d, base + static_cast<sim::SimTime>(d) * occ);
    }
    if (d <= procs - 2) {
      const sim::SimTime base = round_base[static_cast<std::size_t>(d) + 1] + prop;
      consider(d + 1, base + static_cast<sim::SimTime>(d + 2) * occ);
      consider(m, base + static_cast<sim::SimTime>(procs) * occ);
    }
    if (r > finish) finish = r;
  }
  return sim::to_seconds(finish);
}

double measure_pattern(Pattern pattern, int procs, std::size_t bytes,
                       const EthernetParams& params) {
  if (procs < 2) throw std::invalid_argument("measure_pattern: need at least 2 processors");
  if (pattern == Pattern::kAllToAll) return alltoall_analytic(procs, bytes, params);
  const sim::SimTime m = procs - 1;
  const sim::SimTime o_s = params.sender_overhead;
  const sim::SimTime o_r = params.receiver_overhead;
  const sim::SimTime occ = params.medium_occupancy(bytes);
  const sim::SimTime prop = params.propagation;
  if (pattern == Pattern::kOneToAll) {
    // The root hands frame k to the medium at k*o_s, which takes it at
    // S_k = max(k*o_s, S_{k-1} + occ); S_m = o_s + (m-1)*max(o_s, occ).
    // The last frame's receiver finishes last.
    return sim::to_seconds(o_s + (m - 1) * std::max(o_s, occ) + occ + prop + o_r);
  }
  // All-to-one: every leaf hands its frame over at o_s, so the medium
  // carries them back to back and frame k lands at o_s + k*occ + prop.  The
  // root's fold r_k = max(r_{k-1}, a_k) + o_r peaks at k = 1 or k = m.
  return sim::to_seconds(o_s + prop + std::max(occ + m * o_r, m * occ + o_r));
}

}  // namespace dlb::net

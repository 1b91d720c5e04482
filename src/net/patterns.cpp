#include "net/patterns.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"

namespace dlb::net {

namespace {

constexpr int kPatternTag = 7;

// The characterization measures the primitive send pattern (a pvm_send per
// destination, full sender overhead each) — the paper's §6.1 methodology.
// The DLB library's own broadcasts use the cheaper pack-once mcast path.
sim::Process root_sender(sim::Engine& engine, Network& network, std::vector<int> dsts,
                         std::size_t bytes, sim::SimTime* finished_at) {
  for (const int dst : dsts) {
    if (dst == 0) continue;
    co_await network.send(0, dst, kPatternTag, std::any{}, bytes);
  }
  *finished_at = engine.now();
}

sim::Process receiver(sim::Engine& engine, Network& network, sim::Mailbox& mailbox, int count,
                      sim::SimTime* finished_at) {
  for (int i = 0; i < count; ++i) {
    (void)co_await network.receive(mailbox, kPatternTag);
  }
  *finished_at = engine.now();
}

sim::Process leaf_sender(sim::Engine& engine, Network& network, int self, std::size_t bytes,
                         sim::SimTime* finished_at) {
  co_await network.send(self, 0, kPatternTag, std::any{}, bytes);
  *finished_at = engine.now();
}

}  // namespace

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

  sim::Engine engine;
  Network network(engine, params);
  std::vector<std::unique_ptr<sim::Mailbox>> mailboxes;
  mailboxes.reserve(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) {
    mailboxes.push_back(std::make_unique<sim::Mailbox>(engine));
    network.attach(i, *mailboxes.back());
  }

  std::vector<sim::SimTime> finished(static_cast<std::size_t>(procs), 0);
  std::vector<int> all_but_root(static_cast<std::size_t>(procs) - 1);
  std::iota(all_but_root.begin(), all_but_root.end(), 1);

  if (pattern == Pattern::kOneToAll) {
    engine.spawn(root_sender(engine, network, all_but_root, bytes, &finished[0]));
    for (int i = 1; i < procs; ++i) {
      engine.spawn(receiver(engine, network, *mailboxes[static_cast<std::size_t>(i)], 1,
                            &finished[static_cast<std::size_t>(i)]));
    }
  } else {
    engine.spawn(receiver(engine, network, *mailboxes[0], procs - 1, &finished[0]));
    for (int i = 1; i < procs; ++i) {
      engine.spawn(
          leaf_sender(engine, network, i, bytes, &finished[static_cast<std::size_t>(i)]));
    }
  }

  engine.run();
  const sim::SimTime last = *std::max_element(finished.begin(), finished.end());
  return sim::to_seconds(last);
}

}  // namespace dlb::net

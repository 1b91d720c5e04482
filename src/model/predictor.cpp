#include "model/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/groups.hpp"
#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "load/load_function.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace dlb::model {

using cluster::station_load;
using cluster::station_speed;

namespace {

/// Virtual time at which `ops` operations complete when started at `t0` on a
/// processor of bare speed `speed` under load function `lf`.
sim::SimTime advance_ops(load::LoadFunction& lf, double speed, double base_rate,
                         sim::SimTime t0, double ops) {
  sim::SimTime t = t0;
  double remaining = ops;
  while (remaining > 0.0) {
    const auto segment = lf.segment_at(t);
    const double rate = base_rate * speed / (1.0 + segment.level);
    const sim::SimTime finish = t + sim::from_seconds(remaining / rate);
    if (finish <= segment.end) return finish;
    remaining -= rate * sim::to_seconds(segment.end - t);
    t = segment.end;
  }
  return t;
}

/// Operations a processor can execute in [t0, t1].
double ops_available(load::LoadFunction& lf, double speed, double base_rate, sim::SimTime t0,
                     sim::SimTime t1) {
  double ops = 0.0;
  sim::SimTime t = t0;
  while (t < t1) {
    const auto segment = lf.segment_at(t);
    const sim::SimTime end = std::min(segment.end, t1);
    ops += base_rate * speed / (1.0 + segment.level) * sim::to_seconds(end - t);
    t = end;
  }
  return ops;
}

/// Recurrence state of one processor within its group.  `resume_at` is the
/// time it goes back to computing after the previous synchronization —
/// receivers of migrated work resume later than the rest of the group, as
/// their shipment must finish transmitting first.  `finish` is when its
/// owned work would complete from there.
struct Member {
  int proc = 0;
  core::IterationSet owned;
  bool active = true;
  double last_rate = 0.0;
  sim::SimTime resume_at = 0;
  sim::SimTime finish = 0;
};

/// Recurrence state of one group (global strategies: a single group of P).
/// `next_sync` is its first active finisher's `finish`.
struct Group {
  std::vector<Member> members;
  bool done = false;
  sim::SimTime next_sync = 0;
  sim::SimTime finish = 0;
  int syncs = 0;
  int redistributions = 0;
  std::int64_t moved = 0;
  double overhead_seconds = 0.0;
};

int active_count(const Group& g) {
  int n = 0;
  for (const auto& m : g.members) {
    if (m.active) ++n;
  }
  return n;
}

}  // namespace

Predictor::Predictor(PredictorInputs inputs) : inputs_(std::move(inputs)) {
  if (inputs_.loop == nullptr) throw std::invalid_argument("Predictor: null loop");
  const core::LoopDescriptor& loop = *inputs_.loop;
  loop.validate();
  inputs_.config.validate(inputs_.cluster.procs);

  // The paper folds intrinsic communication into the per-iteration time
  // T(W, IC) (§4.1); we add the op-equivalent of one IC message exchange to
  // every iteration's work.
  const bool intrinsic = loop.intrinsic_bytes_per_iteration > 0.0 && inputs_.cluster.procs > 1;
  double ic_ops = 0.0;
  if (intrinsic) {
    const double ic_seconds = inputs_.costs.latency_seconds +
                              loop.intrinsic_bytes_per_iteration / inputs_.costs.bandwidth_bytes;
    ic_ops = ic_seconds * inputs_.cluster.base_ops_per_sec;
  }
  work_.reserve(static_cast<std::size_t>(loop.iterations));
  double total = 0.0;
  for (std::int64_t j = 0; j < loop.iterations; ++j) {
    const double w = loop.work_ops(j);
    work_.push_back(intrinsic ? w + ic_ops : w);
    total += work_.back();
  }
  mean_ops_ = loop.iterations == 0 ? 0.0 : total / static_cast<double>(loop.iterations);
}

StrategyPrediction Predictor::predict(core::Strategy strategy) const {
  const auto& loop = *inputs_.loop;
  const auto& cp = inputs_.cluster;
  const int procs = cp.procs;
  const double base_rate = cp.base_ops_per_sec;
  // The load realizations the cluster's stations will see.
  const support::Rng root(cp.seed);
  std::vector<load::LoadFunction> loads;
  loads.reserve(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) loads.push_back(station_load(cp, root, i));

  StrategyPrediction out;
  out.strategy = strategy;

  if (strategy == core::Strategy::kAuto) {
    throw std::invalid_argument("Predictor: kAuto is what the prediction chooses, not an input");
  }
  if (strategy == core::Strategy::kNoDlb) {
    sim::SimTime makespan = 0;
    for (int i = 0; i < procs; ++i) {
      auto set = core::IterationSet::block_partition(loop.iterations, procs, i);
      const sim::SimTime fin = advance_ops(loads[static_cast<std::size_t>(i)], station_speed(cp, i),
                                           base_rate, 0, set.ops(work_));
      makespan = std::max(makespan, fin);
    }
    out.makespan_seconds = sim::to_seconds(makespan);
    return out;
  }

  core::DlbConfig config = inputs_.config;
  config.strategy = strategy;
  const bool centralized =
      strategy == core::Strategy::kGCDLB || strategy == core::Strategy::kLCDLB;
  const auto group_ids = form_groups(procs, config);

  // eta: distribution-calculation cost in dedicated-CPU seconds (plus the
  // master-side overhead for the centralized schemes).  The calculation runs
  // on a loaded workstation, so each use below is scaled by the computing
  // processor's slowdown at the synchronization time.
  const double eta_base =
      (core::kDecisionOps + (centralized ? core::kBalancerOverheadOps : 0.0)) / base_rate;
  const double latency = inputs_.costs.latency_seconds;
  const double bandwidth = inputs_.costs.bandwidth_bytes;

  std::vector<Group> groups;
  for (const auto& ids : group_ids) {
    Group g;
    for (const int p : ids) {
      Member m;
      m.proc = p;
      m.owned = core::IterationSet::block_partition(loop.iterations, procs, p);
      g.members.push_back(std::move(m));
    }
    groups.push_back(std::move(g));
  }

  // The single central balancer's busy horizon (LCDLB delay factor g(j)).
  sim::SimTime balancer_busy_until = 0;

  // Only a synchronization changes a group's members, so each group's next
  // sync time is computed once per sync of that group.
  auto update_next_sync = [&](Group& g) {
    g.next_sync = sim::kTimeInfinity;
    for (auto& m : g.members) {
      if (!m.active) continue;
      m.finish = advance_ops(loads[static_cast<std::size_t>(m.proc)], station_speed(cp, m.proc),
                             base_rate, m.resume_at, m.owned.ops(work_));
      g.next_sync = std::min(g.next_sync, m.finish);
    }
  };
  for (auto& g : groups) update_next_sync(g);

  while (true) {
    // Pick the unfinished group with the earliest next synchronization; for
    // LCDLB this establishes the arrival order at the central balancer.
    Group* group = nullptr;
    sim::SimTime t_sync = sim::kTimeInfinity;
    for (auto& g : groups) {
      if (g.done) continue;
      if (g.next_sync < t_sync) {
        t_sync = g.next_sync;
        group = &g;
      }
    }
    if (group == nullptr) break;
    Group& g = *group;

    // Execute each member's window [resume_at, t_sync): as many whole
    // iterations as its load-modulated capacity allows (Eqs. 1-2), plus the
    // in-flight iteration (the interrupt is polled between iterations, so
    // the current one completes before the profile goes out — exactly the
    // Fig. 3 slave).  Members whose exact finish time is t_sync (the
    // finishers) are drained outright — capacity re-integration must not
    // strand their last iteration on float rounding.
    std::vector<core::ProfileSnapshot> profiles;
    for (auto& m : g.members) {
      if (!m.active) continue;
      auto& lf = loads[static_cast<std::size_t>(m.proc)];
      const double window = std::max(sim::to_seconds(t_sync - m.resume_at), 0.0);
      std::int64_t done = 0;
      if (m.resume_at < t_sync) {
        if (m.finish <= t_sync) {
          done = m.owned.size();
          m.owned = core::IterationSet();
        } else {
          double capacity =
              ops_available(lf, station_speed(cp, m.proc), base_rate, m.resume_at, t_sync) *
              (1.0 + 1e-9);
          for (const auto& range : m.owned.ranges()) {
            std::int64_t j = range.lo;
            for (; j < range.hi && work_[static_cast<std::size_t>(j)] <= capacity; ++j) {
              capacity -= work_[static_cast<std::size_t>(j)];
            }
            done += j - range.lo;
            if (j < range.hi) break;
          }
          if (done < m.owned.size()) ++done;  // the in-flight iteration
          m.owned.drop_front(done);
        }
      }
      double rate;
      if (done > 0 && window > 0.0) {
        rate = static_cast<double>(done) / window;
      } else if (m.last_rate > 0.0) {
        rate = m.last_rate;
      } else {
        rate = station_speed(cp, m.proc) * base_rate / std::max(mean_ops_, 1.0);
      }
      m.last_rate = rate;
      profiles.push_back({m.proc, m.owned.size(), rate, true});
    }
    ++g.syncs;

    const int k = active_count(g);
    // Centralized sync: interrupt (one-to-all) + profiles (all-to-one) +
    // the outcome broadcast (one-to-all).  The paper's sigma omits the last
    // term and charges only iota = nu L for instructions, but the run-time
    // library must inform every waiting slave of the verdict (even a
    // no-move), so the broadcast is real cost.
    const double sigma = centralized
                             ? inputs_.costs.sync_centralized(k) +
                                   inputs_.costs.eval(net::Pattern::kOneToAll, k)
                             : inputs_.costs.sync_distributed(k);
    const auto decision = core::decide(profiles, config);

    // The distribution calculation runs under external load: on the master
    // for the centralized schemes (which also pay the collocated-slave
    // context-switch overhead folded into eta_base), replicated on every
    // member for the distributed ones (scaled by the group's mean slowdown).
    double eta = eta_base;
    if (centralized) {
      eta *= loads[0].slowdown_at(t_sync);
    } else {
      double slowdown_sum = 0.0;
      int counted = 0;
      for (const auto& m : g.members) {
        if (!m.active) continue;
        slowdown_sum += loads[static_cast<std::size_t>(m.proc)].slowdown_at(t_sync);
        ++counted;
      }
      eta *= counted > 0 ? slowdown_sum / counted : 1.0;
    }

    // LCDLB delay factor: wait for the central balancer to finish serving
    // earlier groups.
    double delay = 0.0;
    if (centralized && groups.size() > 1) {
      if (balancer_busy_until > t_sync) delay = sim::to_seconds(balancer_busy_until - t_sync);
    }

    double iota = 0.0;          // instruction cost (centralized only)
    double delta_serial = 0.0;  // Eq. 5's serialized movement cost (reporting)
    if (decision.moved) {
      const double nu = static_cast<double>(decision.transfers.size());
      delta_serial = nu * latency + static_cast<double>(decision.to_move) *
                                        loop.bytes_per_iteration / bandwidth;
      if (centralized) iota = nu * latency;
      ++g.redistributions;
      g.moved += decision.to_move;
    }
    if (centralized) {
      balancer_busy_until = t_sync + sim::from_seconds(delay + eta + iota);
    }

    if (decision.total_remaining == 0) {
      g.done = true;
      // The terminal sync still costs a synchronization round.
      g.finish = t_sync + sim::from_seconds(delay + sigma + eta);
      g.overhead_seconds += delay + sigma + eta;
      continue;
    }

    const double base_overhead = delay + sigma + eta + iota;
    g.overhead_seconds += base_overhead + delta_serial;
    const sim::SimTime base_resume = t_sync + sim::from_seconds(base_overhead);
    for (auto& m : g.members) {
      if (m.active) m.resume_at = base_resume;
    }

    // Apply the transfer plan.  The shared medium serializes the shipments;
    // only each *receiver* waits for its own transfer to finish — senders
    // and bystanders resume right after the synchronization (this is what
    // the protocol actually does, and charging the full delta to everyone
    // systematically over-penalizes the big global moves).
    if (decision.moved) {
      double cumulative_seconds = 0.0;
      for (const auto& t : decision.transfers) {
        auto from = std::find_if(g.members.begin(), g.members.end(),
                                 [&](const Member& m) { return m.proc == t.from; });
        auto to = std::find_if(g.members.begin(), g.members.end(),
                               [&](const Member& m) { return m.proc == t.to; });
        for (const auto& range : from->owned.take_back(t.count)) to->owned.add(range);
        cumulative_seconds +=
            latency + static_cast<double>(t.count) * loop.bytes_per_iteration / bandwidth;
        to->resume_at = base_resume + sim::from_seconds(cumulative_seconds);
      }
    }
    for (const int p : decision.newly_inactive) {
      for (auto& m : g.members) {
        if (m.proc == p) m.active = false;
      }
    }
    if (active_count(g) == 0) {
      g.done = true;
      g.finish = base_resume;
    } else {
      update_next_sync(g);
    }
  }

  sim::SimTime makespan = 0;
  for (const auto& g : groups) {
    makespan = std::max(makespan, g.finish);
    out.syncs += g.syncs;
    out.redistributions += g.redistributions;
    out.iterations_moved += g.moved;
    out.overhead_seconds += g.overhead_seconds;
  }
  out.makespan_seconds = sim::to_seconds(makespan);
  return out;
}

std::vector<StrategyPrediction> Predictor::predict_ranked() const {
  std::vector<StrategyPrediction> out;
  for (int id = 0; id < core::kRankedStrategyCount; ++id) {
    out.push_back(predict(core::ranked_strategy(id)));
  }
  return out;
}

}  // namespace dlb::model

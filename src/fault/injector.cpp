#include "fault/injector.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/time.hpp"

namespace dlb::fault {

/// Salt mixed with the cell seed to derive the loss stream, so arming loss
/// never perturbs the workstations' external-load streams.
constexpr std::uint64_t kLossStream = 0xFA17u;

FaultInjector::FaultInjector(const FaultPlan& plan, int procs, std::uint64_t seed)
    : plan_(plan),
      procs_(procs),
      loss_rng_(support::Rng(seed).fork(kLossStream)),
      alive_(static_cast<std::size_t>(procs), 1),
      revoked_until_(static_cast<std::size_t>(procs), 0) {
  plan_.validate(procs);
  for (FaultSpec& spec : plan_.events) {
    if (spec.proc == -1) spec.proc = procs - 1;
  }
}

void FaultInjector::arm(sim::Engine& engine, net::Network& network) {
  if (engine_ != nullptr) throw std::logic_error("FaultInjector: armed twice");
  engine_ = &engine;
  for (const FaultSpec& spec : plan_.events) {
    if (spec.trigger.at_seconds >= 0.0) {
      timed_.push_back(engine.schedule_cancellable_at(
          sim::from_seconds(spec.trigger.at_seconds),
          // dlblint:allow(schedule-ref-capture) armed injector outlives the run; cancel_pending() clears the timers
          [this, spec] { fire(spec); }));
    } else {
      progress_pending_.push_back(spec);
    }
  }
  network.set_drop_hook(
      [this](int src, int dst, int /*tag*/, std::size_t /*bytes*/, bool droppable) {
        if (alive_[static_cast<std::size_t>(src)] == 0 ||
            alive_[static_cast<std::size_t>(dst)] == 0) {
          ++stats_.dropped_frames;
          return true;
        }
        if (droppable && plan_.message_loss_rate > 0.0 &&
            loss_rng_.uniform01() < plan_.message_loss_rate) {
          ++stats_.dropped_frames;
          return true;
        }
        return false;
      });
}

int FaultInjector::first_alive() const {
  for (int p = 0; p < procs_; ++p) {
    if (alive_[static_cast<std::size_t>(p)] != 0) return p;
  }
  throw std::runtime_error("FaultInjector: no surviving workstation");
}

std::vector<int> FaultInjector::alive_procs() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(procs_));
  for (int p = 0; p < procs_; ++p) {
    if (alive_[static_cast<std::size_t>(p)] != 0) out.push_back(p);
  }
  return out;
}

void FaultInjector::on_progress(int loop_index, std::int64_t covered, std::int64_t total) {
  if (progress_pending_.empty() || total <= 0) return;
  for (std::size_t i = 0; i < progress_pending_.size();) {
    const FaultSpec& spec = progress_pending_[i];
    if (spec.trigger.loop_index == loop_index &&
        static_cast<double>(covered) >= spec.trigger.at_progress * static_cast<double>(total)) {
      const FaultSpec firing = spec;
      progress_pending_.erase(progress_pending_.begin() + static_cast<std::ptrdiff_t>(i));
      fire(firing);
    } else {
      ++i;
    }
  }
}

void FaultInjector::fire(const FaultSpec& spec) {
  kill(spec.proc, spec.kind, spec.down_seconds);
}

void FaultInjector::kill(int p, FaultKind kind, double down_seconds) {
  if (p < 0 || p >= procs_ || alive_[static_cast<std::size_t>(p)] == 0) return;
  alive_[static_cast<std::size_t>(p)] = 0;
  if (kind == FaultKind::kCrash) {
    ++stats_.crashes;
  } else {
    ++stats_.revocations;
    const sim::SimTime now = engine_ != nullptr ? engine_->now() : 0;
    revoked_until_[static_cast<std::size_t>(p)] = now + sim::from_seconds(down_seconds);
  }
  if (on_death_) on_death_(p);
}

void FaultInjector::revive(int p) {
  if (p < 0 || p >= procs_ || alive_[static_cast<std::size_t>(p)] != 0) return;
  alive_[static_cast<std::size_t>(p)] = 1;
  revoked_until_[static_cast<std::size_t>(p)] = 0;
  ++stats_.rejoins;
  if (on_rejoin_) on_rejoin_(p);
}

void FaultInjector::process_boundary_rejoins() {
  const sim::SimTime now = engine_ != nullptr ? engine_->now() : 0;
  for (int p = 0; p < procs_; ++p) {
    const sim::SimTime until = revoked_until_[static_cast<std::size_t>(p)];
    if (until != 0 && until <= now) revive(p);
  }
}

void FaultInjector::cancel_pending() {
  if (engine_ == nullptr) return;
  for (sim::Engine::Timer& t : timed_) engine_->cancel(t);
  timed_.clear();
}

}  // namespace dlb::fault

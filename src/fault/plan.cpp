#include "fault/plan.hpp"

#include <set>
#include <stdexcept>

namespace dlb::fault {

void FaultPlan::validate(int procs) const {
  if (procs < 1) throw std::invalid_argument("FaultPlan: procs < 1");
  if (message_loss_rate < 0.0 || message_loss_rate > 0.9) {
    throw std::invalid_argument("FaultPlan: message_loss_rate outside [0, 0.9]");
  }
  std::set<int> crashed;
  for (const FaultSpec& spec : events) {
    if (spec.proc < -1 || spec.proc >= procs) {
      throw std::invalid_argument("FaultPlan: fault proc out of range");
    }
    const bool timed = spec.trigger.at_seconds >= 0.0;
    const bool progress = spec.trigger.at_progress > 0.0;
    if (timed == progress) {
      throw std::invalid_argument("FaultPlan: trigger must set exactly one of at_seconds/at_progress");
    }
    if (progress && spec.trigger.at_progress > 1.0) {
      throw std::invalid_argument("FaultPlan: at_progress outside (0, 1]");
    }
    if (spec.trigger.loop_index < 0) throw std::invalid_argument("FaultPlan: negative loop_index");
    if (spec.kind == FaultKind::kRevoke && spec.down_seconds <= 0.0) {
      throw std::invalid_argument("FaultPlan: revocation needs down_seconds > 0");
    }
    if (spec.kind == FaultKind::kCrash) {
      crashed.insert(spec.proc == -1 ? procs - 1 : spec.proc);
    }
  }
  if (static_cast<int>(crashed.size()) >= procs) {
    throw std::invalid_argument("FaultPlan: crash set leaves no survivor");
  }
}

FaultPlan FaultPlan::preset(const std::string& name) {
  FaultPlan plan;
  plan.name = name;
  if (name == "none") return plan;
  if (name == "crash-half") {
    // The canonical acceptance scenario: the highest rank dies the moment
    // half of loop 0 is covered.
    plan.events.push_back({FaultKind::kCrash, -1, {-1.0, 0.5, 0}, 0.0});
    return plan;
  }
  if (name == "crash-coord") {
    // Kills rank 0 — the initial central manager — exercising successor
    // election on the centralized strategies.
    plan.events.push_back({FaultKind::kCrash, 0, {-1.0, 0.5, 0}, 0.0});
    return plan;
  }
  if (name == "crash-two") {
    plan.events.push_back({FaultKind::kCrash, -1, {-1.0, 0.3, 0}, 0.0});
    plan.events.push_back({FaultKind::kCrash, 0, {-1.0, 0.6, 0}, 0.0});
    return plan;
  }
  if (name == "revoke-half") {
    // Owner reclaims the highest rank for 5 virtual seconds at 40% coverage;
    // it rejoins at the next loop boundary after that.
    plan.events.push_back({FaultKind::kRevoke, -1, {-1.0, 0.4, 0}, 5.0});
    return plan;
  }
  if (name == "loss10") {
    plan.message_loss_rate = 0.10;
    return plan;
  }
  if (name == "crash-loss") {
    plan.events.push_back({FaultKind::kCrash, -1, {-1.0, 0.5, 0}, 0.0});
    plan.message_loss_rate = 0.05;
    return plan;
  }
  throw std::invalid_argument("FaultPlan: unknown preset '" + name + "'");
}

}  // namespace dlb::fault

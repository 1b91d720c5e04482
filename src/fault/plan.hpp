#pragma once

#include <string>
#include <vector>

namespace dlb::fault {

/// What happens to a workstation when a fault fires.
enum class FaultKind {
  kCrash,   // fail-stop: the station is gone for the rest of the run
  kRevoke,  // owner reclaims the workstation; it rejoins after down_seconds
};

/// One scheduled fault.  It fires the moment a fraction `at_progress` of the
/// app's first loop is covered ("crash the highest rank when 50 % of loop 0
/// has executed"): a coverage trigger makes a preset meaningful across
/// applications whose absolute runtimes differ by orders of magnitude.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  int proc = -1;              // -1: the highest rank (resolved when the injector is built)
  double at_progress = 0.0;   // in (0, 1]
  double down_seconds = 0.0;  // kRevoke: how long the owner keeps the machine
};

/// A deterministic fault scenario.  How the protocol survives it (timeouts,
/// retries, heartbeats, reclaim cost) is fixed by the fault-tolerant
/// protocol, not by the plan.  A default-constructed plan is *disarmed*: no
/// injector is built, no hook installed, and the simulation takes
/// byte-identical code paths to a build without the fault layer.
struct FaultPlan {
  std::string name = "none";
  std::vector<FaultSpec> events;

  /// Probability that a frame marked droppable by the sender is lost on the
  /// wire.  Retransmissions and acknowledgements are sent non-droppable, so
  /// loss degrades latency, never correctness.
  double message_loss_rate = 0.0;

  [[nodiscard]] bool armed() const noexcept {
    return !events.empty() || message_loss_rate > 0.0;
  }

  /// Throws std::invalid_argument on malformed specs (bad trigger, loss rate
  /// out of [0, 0.9], a crash set that leaves no survivor, ...).
  void validate(int procs) const;

  /// Named scenarios for the CLI (`--faults=`): none, crash-half,
  /// crash-coord, crash-two, revoke-half, loss10, crash-loss.
  /// Throws std::invalid_argument for unknown names.
  [[nodiscard]] static FaultPlan preset(const std::string& name);
};

}  // namespace dlb::fault

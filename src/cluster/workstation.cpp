#include "cluster/workstation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dlb::cluster {

Workstation::Workstation(int id, double speed, double base_ops_per_sec,
                         load::LoadFunction load_function, sim::Engine& engine,
                         net::Network& network, sim::SimTime cpu_quantum)
    : id_(id),
      speed_(speed),
      base_ops_per_sec_(base_ops_per_sec),
      load_(std::move(load_function)),
      engine_(engine),
      network_(network),
      mailbox_(engine),
      cpu_(engine, 1),
      cpu_quantum_(cpu_quantum) {
  if (speed <= 0.0) throw std::invalid_argument("Workstation: speed must be positive");
  if (base_ops_per_sec <= 0.0) throw std::invalid_argument("Workstation: rate must be positive");
  network_.attach(id, mailbox_);
}

sim::Task<void> Workstation::compute(double ops) {
  if (ops < 0.0) throw std::invalid_argument("Workstation: negative work");
  if (ops == 0.0) co_return;
  double remaining = ops;
  while (remaining > 0.0) {
    // Hold the CPU for at most one scheduling quantum, then yield through
    // the FIFO queue: a waiting coroutine (e.g. the centralized balancer)
    // gets in, approximating Unix round-robin timesharing.
    co_await cpu_.acquire();
    if (off_) {
      cpu_.release();
      co_return;
    }
    const sim::SimTime quantum_end =
        cpu_quantum_ > 0 ? engine_.now() + cpu_quantum_ : sim::kTimeInfinity;
    while (remaining > 0.0 && engine_.now() < quantum_end) {
      const auto segment = load_.segment_at(engine_.now());
      const double rate = base_ops_per_sec_ * speed_ / (1.0 + segment.level);
      const sim::SimTime finish_at = engine_.now() + sim::from_seconds(remaining / rate);
      const sim::SimTime stop_at = std::min({finish_at, segment.end, quantum_end});
      if (stop_at >= finish_at) {
        busy_time_ += finish_at - engine_.now();
        co_await engine_.sleep_until(finish_at);
        remaining = 0.0;
      } else {
        const double done = rate * sim::to_seconds(stop_at - engine_.now());
        remaining -= done;
        busy_time_ += stop_at - engine_.now();
        co_await engine_.sleep_until(stop_at);
      }
      if (off_) {
        cpu_.release();
        co_return;
      }
    }
    cpu_.release();
  }
  ops_executed_ += ops;
}

sim::Task<void> Workstation::busy(sim::SimTime duration) {
  if (duration <= 0) co_return;
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  busy_time_ += duration;
  co_await engine_.sleep_for(duration);
  cpu_.release();
}

sim::Task<void> Workstation::send(int dst, int tag, std::any payload, std::size_t bytes,
                                  bool droppable) {
  // Packing + transmit syscall occupy this station's CPU (the o_s inside
  // Network::send is the sender-side sleep).
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await network_.send(id_, dst, tag, std::move(payload), bytes, 1.0, droppable);
  cpu_.release();
}

sim::Task<void> Workstation::multicast(std::span<const int> dsts, int tag, std::any payload,
                                       std::size_t bytes, bool droppable) {
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await network_.multicast(id_, dsts, tag, std::move(payload), bytes, droppable);
  cpu_.release();
}

sim::Task<sim::Message> Workstation::receive(int tag, int source) {
  // Block (CPU free) until the message arrives, then pay the unpack cost on
  // this station's CPU.
  sim::Message message = co_await mailbox_.receive(tag, source);
  co_await cpu_.acquire();
  co_await engine_.sleep_for(network_.params().receiver_overhead);
  cpu_.release();
  co_return message;
}

sim::Task<std::optional<sim::Message>> Workstation::receive_until(sim::SimTime deadline,
                                                                  int tag_lo, int tag_hi,
                                                                  int source) {
  std::optional<sim::Message> message =
      co_await mailbox_.receive_until(deadline, tag_lo, tag_hi, source);
  if (message && !off_) {
    co_await cpu_.acquire();
    co_await engine_.sleep_for(network_.params().receiver_overhead);
    cpu_.release();
  }
  co_return message;
}

std::optional<sim::Message> Workstation::poll(int tag, int source) {
  return mailbox_.try_receive(tag, source);
}

std::optional<sim::Message> Workstation::poll_range(int tag_lo, int tag_hi, int source) {
  return mailbox_.try_receive_range(tag_lo, tag_hi, source);
}

}  // namespace dlb::cluster

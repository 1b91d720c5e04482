#include "cluster/workstation.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dlb::cluster {

Workstation::Workstation(int id, double speed, double base_ops_per_sec,
                         load::LoadFunction load_function, sim::Engine& engine,
                         net::Network& network)
    : id_(id),
      speed_(speed),
      base_ops_per_sec_(base_ops_per_sec),
      load_(std::move(load_function)),
      engine_(engine),
      network_(network),
      mailbox_(engine),
      cpu_(engine) {
  if (speed <= 0.0) throw std::invalid_argument("Workstation: speed must be positive");
  if (base_ops_per_sec <= 0.0) throw std::invalid_argument("Workstation: rate must be positive");
  network_.attach(id, mailbox_);
}

void Workstation::check_work(double ops) const {
  if (ops < 0.0) throw std::invalid_argument("Workstation: negative work");
  if (!std::isfinite(ops)) throw std::invalid_argument("Workstation: non-finite work");
  // No step of compute lasts longer than the whole work at the slowest rate
  // (the top load level), so if that finish fits SimTime, every conversion
  // in compute's loop is defined.
  const double slowest_rate = base_ops_per_sec_ * speed_ / (1.0 + load_.params().max_load);
  if (!sim::fits_sim_time(sim::to_seconds(engine_.now()) + ops / slowest_rate)) {
    std::ostringstream what;
    what << "Workstation: work of " << ops << " ops does not fit virtual time";
    throw std::invalid_argument(what.str());
  }
}

sim::Task<void> Workstation::compute(double ops) {
  check_work(ops);
  if (ops == 0.0) co_return;
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  sim::SimTime quantum_end = engine_.now() + kCpuQuantum;
  auto segment = load_.segment_at(engine_.now());
  double rate = base_ops_per_sec_ * speed_ / (1.0 + segment.level);
  double remaining = ops;
  while (remaining > 0.0) {
    if (engine_.now() >= quantum_end) {
      // Quantum over: yield through the FIFO queue so a waiting coroutine
      // (e.g. the centralized balancer) gets in, approximating Unix
      // round-robin timesharing.  With nobody waiting, a release would hand
      // the CPU straight back at the same instant, so keep it.
      if (cpu_.waiting() > 0) {
        cpu_.release();
        co_await cpu_.acquire();
        if (off_) {
          cpu_.release();
          co_return;
        }
      }
      quantum_end = engine_.now() + kCpuQuantum;
    }
    if (engine_.now() >= segment.end) {
      segment = load_.segment_at(engine_.now());
      rate = base_ops_per_sec_ * speed_ / (1.0 + segment.level);
    }
    const sim::SimTime finish_at = engine_.now() + sim::from_seconds(remaining / rate);
    const sim::SimTime stop_at = std::min({finish_at, segment.end, quantum_end});
    if (stop_at >= finish_at) {
      co_await engine_.sleep_until(finish_at);
      remaining = 0.0;
    } else {
      const double done = rate * sim::to_seconds(stop_at - engine_.now());
      remaining -= done;
      co_await engine_.sleep_until(stop_at);
    }
    if (off_) {
      cpu_.release();
      co_return;
    }
  }
  cpu_.release();
}

sim::Task<void> Workstation::busy(sim::SimTime duration) {
  if (duration <= 0) co_return;
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  co_await engine_.sleep_for(duration);
  cpu_.release();
}

sim::Task<void> Workstation::send(int dst, int tag, std::any payload, std::size_t bytes,
                                  bool droppable) {
  // Packing + transmit syscall occupy this station's CPU for o_s; the frame
  // then goes on the wire and delivery proceeds without the sender.
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  sim::Message message = network_.frame(id_, dst, tag, std::move(payload), bytes);
  co_await engine_.sleep_for(network_.params().sender_overhead);
  network_.transmit(dst, std::move(message), droppable);
  cpu_.release();
}

sim::Task<void> Workstation::multicast(std::span<const int> dsts, int tag, std::any payload,
                                       std::size_t bytes, bool droppable) {
  co_await cpu_.acquire();
  if (off_) {
    cpu_.release();
    co_return;
  }
  // pvm_mcast packs once: the first destination pays the full o_s, each
  // follow-up only the transmit syscall's fraction of it.
  const sim::SimTime full = network_.params().sender_overhead;
  const auto follow_up =
      static_cast<sim::SimTime>(static_cast<double>(full) * net::kMulticastExtraFraction);
  bool first = true;
  for (const int dst : dsts) {
    if (dst == id_) continue;
    sim::Message message = network_.frame(id_, dst, tag, payload, bytes);
    co_await engine_.sleep_for(first ? full : follow_up);
    network_.transmit(dst, std::move(message), droppable);
    first = false;
  }
  cpu_.release();
}

sim::Task<sim::Message> Workstation::receive(sim::Tags tags, int source) {
  // Block (CPU free) until the message arrives, then pay the unpack cost on
  // this station's CPU.
  sim::Message message = co_await mailbox_.receive(tags, source);
  co_await cpu_.acquire();
  co_await engine_.sleep_for(network_.params().receiver_overhead);
  cpu_.release();
  co_return message;
}

sim::Task<std::optional<sim::Message>> Workstation::receive_until(sim::SimTime deadline,
                                                                  sim::Tags tags, int source) {
  std::optional<sim::Message> message = co_await mailbox_.receive_until(deadline, tags, source);
  if (message && !off_) {
    co_await cpu_.acquire();
    co_await engine_.sleep_for(network_.params().receiver_overhead);
    cpu_.release();
  }
  co_return message;
}

std::optional<sim::Message> Workstation::poll(sim::Tags tags, int source) {
  return mailbox_.try_receive(tags, source);
}

}  // namespace dlb::cluster

#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/ethernet.hpp"
#include "net/params.hpp"
#include "net/topology.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"

namespace dlb::net {

/// The wire under the PVM-like message layer: racks of shared Ethernet
/// segments.  Endpoints (workstations) register a mailbox under an integer
/// id.  The network is passive, like `Ethernet`: it models medium contention
/// and asynchronous delivery and runs no coroutine.  The CPU costs live in
/// cluster::Workstation: the sender pays o_s before it hands a frame to
/// `transmit`, and the receiver pays the unpack overhead o_r on its own CPU
/// when it consumes a message.
///
/// Topology (§4.1 lists it as a network parameter): a network starts as one
/// rack holding every endpoint — the paper's single shared Ethernet, with
/// full uniform connectivity.  `set_switched` splits it into racks of
/// `rack_size` stations under a crossbar core (see TopologyKind).  An
/// intra-rack frame occupies only its rack segment, exactly as on the
/// paper's LAN.  A cross-rack frame takes source segment → cut-through
/// fabric → destination rack's crossbar output port → destination segment.
/// The fabric hop is the engine's cross-shard ingress channel: its timestamp
/// and sequence key depend only on source-side deterministic state, which is
/// what keeps a sharded run bit-identical to an unsharded one.  All
/// per-frame mutable state on the path (source segment, sender counters;
/// output port, destination segment) belongs to the source resp. destination
/// rack's shard, so traffic is data-race-free under the windowed parallel
/// engine.
class Network {
 public:
  Network(sim::Engine& engine, EthernetParams params)
      : engine_(engine), params_(params) {
    racks_.emplace_back(params);
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Splits the network for `procs` endpoints into racks of
  /// `params.rack_size` stations under a crossbar core.  `shards` is the
  /// engine's shard count (racks map onto shards in contiguous balanced
  /// blocks); pass 1 when the engine is unsharded.  Must be called once,
  /// before traffic flows.
  void set_switched(int procs, SwitchedParams params, int shards);

  /// Registers `mailbox` as endpoint `id` (ids must be dense from 0).
  void attach(int id, sim::Mailbox& mailbox);

  /// Decides whether a frame is lost after occupying the medium.  Installed
  /// by the fault layer; `droppable` is the *sender's* marking — protocols
  /// flag first-attempt messages droppable and retransmissions/acks not, so
  /// random loss cannot defeat bounded retry.  Frames to (or from) dead
  /// stations are dropped regardless of the marking.
  using DropHook = std::function<bool(int src, int dst, int tag, std::size_t bytes,
                                      bool droppable)>;

  /// Installs (or clears, with an empty function) the loss hook.  When no
  /// hook is set, transmit takes the exact pre-fault code path.
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Observability: when set, every frame is recorded (src, dst, tag, size,
  /// send and delivery times, loss) at the moment the medium reservation is
  /// made.  Null (the default) keeps the exact unobserved code path — the
  /// same arming discipline as the drop hook.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// The frame `src` is about to send to `dst`, stamped with the current
  /// time as its `sent_at`.  Throws std::invalid_argument unless `dst` is an
  /// attached endpoint, so a bad destination fails before the sender pays
  /// o_s.
  [[nodiscard]] sim::Message frame(int src, int dst, int tag, std::any payload,
                                   std::size_t bytes) const;

  /// The frame size of a modelled byte count (a shipment's iterations times
  /// their bytes, a share of a phase's data), truncated like a cast.  Throws
  /// std::invalid_argument, naming the count, unless it is non-negative and
  /// the slowest hop a frame can take (a rack segment or a crossbar port)
  /// holds it for a time that fits SimTime.
  [[nodiscard]] std::size_t frame_bytes(double bytes) const;

  /// Puts a frame whose sender has paid o_s on the wire and returns:
  /// delivery is asynchronous, like pvm_send.  The frame takes the source
  /// rack segment, then is delivered within the rack or crosses the fabric to
  /// another.  `message` comes from `frame`.  A frame the drop hook claims
  /// still occupies the source segment and counts in the traffic totals (the
  /// collision/garble happens on the wire); only its delivery is suppressed.
  void transmit(int dst, sim::Message message, bool droppable = true);

  [[nodiscard]] const EthernetParams& params() const noexcept { return params_; }
  /// Rack segments: 1 until `set_switched` splits the network.
  [[nodiscard]] int segments() const noexcept { return static_cast<int>(racks_.size()); }
  /// Rack segment of endpoint `id`.
  [[nodiscard]] int segment_of(int id) const;
  /// Engine shard owning endpoint `id` (0 when unsharded).
  [[nodiscard]] int shard_of(int id) const;

  // Traffic totals.  The per-frame increments go to the sender's rack row
  // (one writer per rack, so the counters stay race-free under the sharded
  // engine); the accessors sum the rows.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return rack_sum(&RackCounters::messages);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return rack_sum(&RackCounters::bytes);
  }
  /// Cross-rack fabric hops.
  [[nodiscard]] std::uint64_t bridge_crossings() const noexcept {
    return rack_sum(&RackCounters::crossings);
  }

 private:
  struct RackCounters {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t crossings = 0;
  };

  /// One rack.  Only the rack's own shard touches it: senders in the rack
  /// reserve its segment and bump its counters; fabric arrivals for the rack
  /// reserve its port, then its segment.
  struct Rack {
    explicit Rack(EthernetParams params) noexcept : segment(params) {}
    Ethernet segment;
    CrossbarPort port;      // crossbar output port into the rack
    int shard = 0;          // engine shard owning the rack
    RackCounters counters;  // frames sent from the rack
  };

  [[nodiscard]] std::uint64_t rack_sum(std::uint64_t RackCounters::* field) const noexcept {
    std::uint64_t total = 0;
    for (const Rack& rack : racks_) total += rack.counters.*field;
    return total;
  }

  sim::Engine& engine_;
  EthernetParams params_;
  /// Rack size of a network that is one rack holding every endpoint.
  static constexpr int kOneRack = std::numeric_limits<int>::max();
  int rack_size_ = kOneRack;
  std::vector<Rack> racks_;
  std::vector<std::uint32_t> ingress_counter_;  // per-source canonical frame counter
  std::vector<sim::Mailbox*> mailboxes_;
  DropHook drop_hook_;
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace dlb::net

#include "net/network.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace dlb::net {

void Network::set_switched(int procs, SwitchedParams params, int shards) {
  if (procs < 1) throw std::invalid_argument("Network: procs < 1");
  if (params.rack_size < 1) throw std::invalid_argument("Network: rack_size < 1");
  if (messages_sent() != 0) {
    throw std::logic_error("Network: set_switched after traffic started");
  }
  if (rack_size_ != kOneRack) throw std::logic_error("Network: topology already switched");
  const int racks = rack_count(procs, params.rack_size);
  if (shards < 1 || shards > racks) {
    throw std::invalid_argument("Network: shards must be in [1, racks]");
  }
  rack_size_ = params.rack_size;
  racks_.assign(static_cast<std::size_t>(racks), Rack(params_));
  for (int r = 0; r < racks; ++r) {
    racks_[static_cast<std::size_t>(r)].shard = shard_of_rack(r, racks, shards);
  }
  ingress_counter_.assign(static_cast<std::size_t>(procs), 0);
}

int Network::segment_of(int id) const {
  if (id < 0 || rack_of(id, rack_size_) >= segments()) {
    throw std::invalid_argument("Network: endpoint without a segment");
  }
  return rack_of(id, rack_size_);
}

int Network::shard_of(int id) const {
  return racks_[static_cast<std::size_t>(segment_of(id))].shard;
}

void Network::attach(int id, sim::Mailbox& mailbox) {
  if (id < 0) throw std::invalid_argument("Network: negative endpoint id");
  if (static_cast<std::size_t>(id) >= mailboxes_.size()) {
    mailboxes_.resize(static_cast<std::size_t>(id) + 1, nullptr);
  }
  if (mailboxes_[static_cast<std::size_t>(id)] != nullptr) {
    throw std::invalid_argument("Network: endpoint id already attached");
  }
  mailboxes_[static_cast<std::size_t>(id)] = &mailbox;
}

sim::Message Network::frame(int src, int dst, int tag, std::any payload,
                            std::size_t bytes) const {
  if (dst < 0 || static_cast<std::size_t>(dst) >= mailboxes_.size() ||
      mailboxes_[static_cast<std::size_t>(dst)] == nullptr) {
    throw std::invalid_argument("Network: send to unattached endpoint");
  }
  sim::Message message;
  message.source = src;
  message.tag = tag;
  message.bytes = bytes;
  message.payload = std::move(payload);
  message.sent_at = engine_.now();
  return message;
}

std::size_t Network::frame_bytes(double bytes) const {
  const double rate = std::min(params_.bandwidth_bytes_per_sec, kPortBandwidthBytesPerSec);
  const double hold =
      sim::to_seconds(std::max(params_.medium_overhead, kPortOverhead)) + bytes / rate;
  if (!(bytes >= 0.0) || !sim::fits_sim_time(hold)) {
    std::ostringstream what;
    what << "Network: a frame of " << bytes << " bytes does not fit virtual time";
    throw std::invalid_argument(what.str());
  }
  return static_cast<std::size_t>(bytes);
}

void Network::transmit(int dst, sim::Message message, bool droppable) {
  const int src = message.source;
  const int tag = message.tag;
  const std::size_t bytes = message.bytes;
  const int src_rack = rack_of(src, rack_size_);
  const int dst_rack = rack_of(dst, rack_size_);
  Rack& source = racks_[static_cast<std::size_t>(src_rack)];
  RackCounters& counters = source.counters;
  const sim::SimTime wire_done = source.segment.transmit(bytes, engine_.now());
  ++counters.messages;
  counters.bytes += bytes;
  if (src_rack != dst_rack) ++counters.crossings;

  // Loss is decided after the medium reservation so a dropped frame costs
  // the wire exactly what a delivered one does.
  const bool dropped = drop_hook_ && drop_hook_(src, dst, tag, bytes, droppable);
  sim::Mailbox* destination = mailboxes_[static_cast<std::size_t>(dst)];
  if (src_rack == dst_rack || dropped) {
    // Intra-rack: the rack segment behaves exactly like the paper's shared
    // Ethernet, and the whole path stays on the sender's shard.  A dropped
    // cross-rack frame is garbled on the source wire and never reaches the
    // fabric.
    if (recorder_ != nullptr) {
      recorder_->message(src, dst, tag, bytes, message.sent_at, wire_done, dropped);
    }
    if (dropped) return;
    engine_.schedule_at(wire_done, [destination, m = std::move(message)]() mutable {
      destination->deliver(std::move(m));
    });
    return;
  }

  // Cross-rack: the cut-through fabric hop — the one and only cross-shard
  // channel.  Canonical ingress key: bit 63 (orders after every same-time
  // shard-local event) | source station | per-source frame counter.  Both
  // the key and the ingress time derive only from source-side deterministic
  // state, so the destination shard pops fabric arrivals in the same order at
  // any shard count.
  std::uint32_t& frame_counter = ingress_counter_[static_cast<std::size_t>(src)];
  const std::uint64_t key =
      (std::uint64_t{1} << 63) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) | frame_counter++;
  const int dst_shard = racks_[static_cast<std::size_t>(dst_rack)].shard;
  engine_.schedule_ingress(
      dst_shard, wire_done + kCutThrough, key,
      [this, destination, dst_rack, src, dst, tag, m = std::move(message)]() mutable {
        // Runs on the destination rack's shard at fabric-egress time: the
        // crossbar output port serializes the frame onto the rack segment.
        Rack& target = racks_[static_cast<std::size_t>(dst_rack)];
        const sim::SimTime port_done = target.port.transmit(m.bytes, engine_.now());
        const sim::SimTime deliver_at = target.segment.transmit(m.bytes, port_done);
        if (recorder_ != nullptr) {
          recorder_->message(src, dst, tag, m.bytes, m.sent_at, deliver_at, false);
        }
        engine_.schedule_at(deliver_at, [destination, m2 = std::move(m)]() mutable {
          destination->deliver(std::move(m2));
        });
      });
}

}  // namespace dlb::net

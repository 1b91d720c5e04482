#include "sched/task_queue.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "net/params.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace dlb::sched {

namespace {

constexpr int kTagChunkRequest = 200;
constexpr int kTagChunkReply = 201;

struct ChunkReply {
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // lo == hi means "queue empty, stop"
};

struct QueueState {
  const core::LoopDescriptor* loop = nullptr;
  cluster::Cluster* cluster = nullptr;
  std::unique_ptr<ChunkPolicy> policy;
  std::int64_t next_index = 0;
  std::vector<std::int64_t> executed;
  std::vector<sim::SimTime> finished_at;
  core::LoopRunStats stats;
};

void record_handout(QueueState& q, int source, const ChunkReply& reply, std::int64_t remaining) {
  core::SyncEvent e;
  e.at_seconds = sim::to_seconds(q.cluster->engine().now());
  e.round = static_cast<int>(q.stats.events.size());
  e.initiator = source;
  e.iterations_moved = reply.hi - reply.lo;
  e.total_remaining = remaining;
  e.redistributed = true;
  e.transfer_messages = 1;
  q.stats.events.push_back(e);
}

sim::Process queue_master(QueueState& q) {
  auto& me = q.cluster->station(0);
  const std::int64_t total = q.loop->iterations;
  int done_slaves = 0;
  while (done_slaves < q.cluster->size()) {
    const sim::Message request = co_await me.receive(kTagChunkRequest);
    ChunkReply reply;
    if (q.next_index < total) {
      const std::int64_t chunk = q.policy->next(total - q.next_index);
      reply.lo = q.next_index;
      reply.hi = q.next_index + std::min(chunk, total - q.next_index);
      q.next_index = reply.hi;
      record_handout(q, request.source, reply, total - q.next_index);
    } else {
      ++done_slaves;
    }
    co_await me.send(request.source, kTagChunkReply, reply, net::kControlMessageBytes);
  }
}

sim::Process queue_slave(QueueState& q, int self) {
  auto& me = q.cluster->station(self);
  while (true) {
    co_await me.send(0, kTagChunkRequest, std::any{}, net::kControlMessageBytes);
    const sim::Message m = co_await me.receive(kTagChunkReply, 0);
    const auto& reply = m.as<ChunkReply>();
    if (reply.lo == reply.hi) break;
    co_await me.compute(q.loop->ops_in_range(reply.lo, reply.hi));
    q.executed[static_cast<std::size_t>(self)] += reply.hi - reply.lo;
  }
  q.finished_at[static_cast<std::size_t>(self)] = me.engine().now();
}

core::RunResult finish_result(QueueState& q, const core::AppDescriptor& app,
                              QueueScheme scheme) {
  auto& cluster = *q.cluster;
  q.stats.executed_per_proc = q.executed;
  for (const auto t : q.finished_at) q.stats.finish_per_proc.push_back(sim::to_seconds(t));
  q.stats.syncs = static_cast<int>(q.stats.events.size());
  for (const auto& e : q.stats.events) {
    q.stats.iterations_moved += e.iterations_moved;
    if (e.redistributed) ++q.stats.redistributions;
  }

  core::RunResult result;
  result.app_name = app.name;
  result.strategy_name = queue_scheme_name(scheme);
  result.loops.push_back(std::move(q.stats));
  result.messages = cluster.network().messages_sent();
  result.bytes = cluster.network().bytes_sent();
  return result;
}

}  // namespace

core::RunResult run_task_queue(const cluster::ClusterParams& params,
                               const core::AppDescriptor& app, QueueScheme scheme) {
  app.validate();
  if (app.loops.size() != 1) {
    throw std::invalid_argument("run_task_queue: single-loop applications only");
  }
  cluster::Cluster cluster(params);
  const auto& loop = app.loops[0];

  QueueState q;
  q.loop = &loop;
  q.cluster = &cluster;
  q.policy = make_chunk_policy(scheme, loop.iterations, cluster.size());
  q.executed.assign(static_cast<std::size_t>(cluster.size()), 0);
  q.finished_at.assign(static_cast<std::size_t>(cluster.size()), 0);
  q.stats.loop_name = loop.name;

  cluster.engine().spawn(queue_master(q));
  for (int p = 0; p < cluster.size(); ++p) cluster.engine().spawn(queue_slave(q, p));
  cluster.engine().run();

  std::int64_t executed_total = 0;
  for (const auto n : q.executed) executed_total += n;
  if (executed_total != loop.iterations) {
    throw std::logic_error("run_task_queue: iterations executed != scheduled");
  }
  q.stats.finish_seconds = sim::to_seconds(cluster.engine().now());
  auto result = finish_result(q, app, scheme);
  result.exec_seconds = sim::to_seconds(cluster.engine().now());
  return result;
}

}  // namespace dlb::sched

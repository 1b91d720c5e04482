#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "apps/synthetic.hpp"
#include "sched/chunk_policy.hpp"
#include "sched/task_queue.hpp"

namespace {

using dlb::sched::make_chunk_policy;
using dlb::sched::QueueScheme;
using dlb::sched::run_task_queue;

/// Drains a policy over `total` iterations and returns the chunk sequence.
std::vector<std::int64_t> drain(QueueScheme scheme, std::int64_t total, int procs) {
  auto policy = make_chunk_policy(scheme, total, procs);
  std::vector<std::int64_t> chunks;
  std::int64_t remaining = total;
  while (remaining > 0) {
    const auto c = policy->next(remaining);
    EXPECT_GE(c, 1);
    EXPECT_LE(c, remaining);
    chunks.push_back(c);
    remaining -= c;
  }
  return chunks;
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

TEST(ChunkPolicy, SelfSchedulingIsUnitChunks) {
  const auto chunks = drain(QueueScheme::kSelfScheduling, 10, 4);
  EXPECT_EQ(chunks.size(), 10u);
  for (const auto c : chunks) EXPECT_EQ(c, 1);
}

TEST(ChunkPolicy, FixedChunkUsesK) {
  const auto chunks = drain(QueueScheme::kFixedChunk, 20, 4);
  EXPECT_EQ(chunks, (std::vector<std::int64_t>{8, 8, 4}));
}

TEST(ChunkPolicy, GuidedIsRemainingOverP) {
  const auto chunks = drain(QueueScheme::kGuided, 100, 4);
  // 25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 2, 1, 1
  EXPECT_EQ(chunks[0], 25);
  EXPECT_EQ(chunks[1], 19);
  EXPECT_EQ(sum(chunks), 100);
  for (std::size_t i = 1; i < chunks.size(); ++i) EXPECT_LE(chunks[i], chunks[i - 1]);
  EXPECT_EQ(chunks.back(), 1);  // degenerates to self-scheduling at the end
}

TEST(ChunkPolicy, FactoringHalvesBatches) {
  const auto chunks = drain(QueueScheme::kFactoring, 100, 4);
  // Batch 1: 50 split into 4 chunks of 13 -> 13,13,13,13 (uses 52 > 50; the
  // queue clamps the last to remaining), then half of what's left, etc.
  EXPECT_EQ(chunks[0], 13);
  EXPECT_EQ(chunks[1], 13);
  EXPECT_EQ(chunks[2], 13);
  EXPECT_EQ(chunks[3], 13);
  EXPECT_LT(chunks[4], 13);
  EXPECT_EQ(sum(chunks), 100);
}

TEST(ChunkPolicy, TrapezoidDecreasesLinearly) {
  const auto chunks = drain(QueueScheme::kTrapezoid, 128, 4);
  EXPECT_EQ(chunks[0], 16);  // ceil(N / 2P)
  for (std::size_t i = 1; i < chunks.size(); ++i) EXPECT_LE(chunks[i], chunks[i - 1]);
  EXPECT_EQ(sum(chunks), 128);
}

TEST(ChunkPolicy, AllSchemesConserveIterations) {
  for (const auto scheme :
       {QueueScheme::kSelfScheduling, QueueScheme::kFixedChunk, QueueScheme::kGuided,
        QueueScheme::kFactoring, QueueScheme::kTrapezoid}) {
    for (const std::int64_t total : {1L, 7L, 100L, 1001L}) {
      EXPECT_EQ(sum(drain(scheme, total, 4)), total) << queue_scheme_name(scheme) << " " << total;
    }
  }
}

TEST(ChunkPolicy, Rejections) {
  EXPECT_THROW((void)make_chunk_policy(QueueScheme::kGuided, 10, 0), std::invalid_argument);
  EXPECT_THROW((void)make_chunk_policy(QueueScheme::kGuided, -1, 4), std::invalid_argument);
}

dlb::cluster::ClusterParams params_for(int procs, bool load = false) {
  dlb::cluster::ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  if (!load) p.load.max_load = 0;  // dedicated machines
  return p;
}

class TaskQueueAllSchemes : public ::testing::TestWithParam<QueueScheme> {};

TEST_P(TaskQueueAllSchemes, CompletesAndConservesIterations) {
  const auto app = dlb::apps::make_uniform(64, 20e3, 0.0);
  const auto r = run_task_queue(params_for(4), app, GetParam());
  std::int64_t total = 0;
  for (const auto n : r.loops[0].executed_per_proc) total += n;
  EXPECT_EQ(total, 64);
  EXPECT_GT(r.exec_seconds, 0.0);
  EXPECT_GT(r.loops[0].syncs, 0);
}

TEST_P(TaskQueueAllSchemes, CompletesUnderLoad) {
  const auto app = dlb::apps::make_uniform(64, 50e3, 0.0);
  const auto r = run_task_queue(params_for(4, /*load=*/true), app, GetParam());
  std::int64_t total = 0;
  for (const auto n : r.loops[0].executed_per_proc) total += n;
  EXPECT_EQ(total, 64);
}

INSTANTIATE_TEST_SUITE_P(Schemes, TaskQueueAllSchemes,
                         ::testing::Values(QueueScheme::kSelfScheduling,
                                           QueueScheme::kFixedChunk, QueueScheme::kGuided,
                                           QueueScheme::kFactoring, QueueScheme::kTrapezoid),
                         [](const auto& info) {
                           return std::string(dlb::sched::queue_scheme_name(info.param));
                         });

TEST(TaskQueue, SelfSchedulingHasMostRequests) {
  const auto app = dlb::apps::make_uniform(64, 20e3, 0.0);
  const auto r_ss = run_task_queue(params_for(4), app, QueueScheme::kSelfScheduling);
  const auto r_gss = run_task_queue(params_for(4), app, QueueScheme::kGuided);
  EXPECT_GT(r_ss.loops[0].syncs, r_gss.loops[0].syncs);
  EXPECT_EQ(r_ss.loops[0].syncs, 64);  // one request per iteration
}

TEST(TaskQueue, GuidedBeatsSelfSchedulingWhenMessagesAreExpensive) {
  // Small iterations relative to the 2.4 ms message latency: per-iteration
  // queue traffic dominates self-scheduling (the §2.2 critique).
  const auto app = dlb::apps::make_uniform(128, 5e3, 0.0);
  const auto r_ss = run_task_queue(params_for(4), app, QueueScheme::kSelfScheduling);
  const auto r_gss = run_task_queue(params_for(4), app, QueueScheme::kGuided);
  EXPECT_LT(r_gss.exec_seconds, r_ss.exec_seconds);
}

TEST(TaskQueue, RejectsMultiLoopApps) {
  auto app = dlb::apps::make_uniform(8, 1e3, 0.0);
  app.loops.push_back(app.loops[0]);
  EXPECT_THROW((void)run_task_queue(params_for(2), app, QueueScheme::kGuided),
               std::invalid_argument);
}

TEST(TaskQueue, Deterministic) {
  const auto app = dlb::apps::make_uniform(64, 20e3, 0.0);
  const auto a = run_task_queue(params_for(4, true), app, QueueScheme::kGuided);
  const auto b = run_task_queue(params_for(4, true), app, QueueScheme::kGuided);
  EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
}

}  // namespace

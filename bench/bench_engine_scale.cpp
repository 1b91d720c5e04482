// Event-core scaling benchmark (google-benchmark): events/sec sustained at
// 16 / 64 / 1k / 10k / 100k pending events on the engine's 4-ary heap event
// queue.  16 and 64 are the depths the workloads run at: the mean queue depth
// at push is about 3 on the P = 4 paper grids, 15 at P = 16, 8 on the fault
// grids and 53 on the service sim backend.  1k and up are the deep queues of
// the large-P switched runs (about 8k at P = 256).
//
// The queue-level benches use the classic *hold model*: the queue is primed
// to the target occupancy with offsets drawn from the same increment
// distribution the measurement loop uses — so the measured state is
// stationary from the first iteration, not a slowly-draining transient of
// some unrelated priming distribution — then every operation pops the
// minimum and pushes a replacement at a pseudo-random offset.  That is the
// steady state of a discrete-event simulation with that many live
// processes, and the step the replace-top pop serves with one sift.  The
// engine-level bench runs the same queue under whole coroutine processes.
//
// Regenerate the committed baseline from the default Release (-O3) build:
//   ./build/bench/bench_engine_scale --benchmark_out=BENCH_engine_scale.json
//     --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "support/rng.hpp"

namespace {

using dlb::sim::Event;
using dlb::sim::EventQueue;
using dlb::sim::SimTime;
using dlb::support::Rng;

/// Uniform hold: replacement offsets spread evenly, the common shape of
/// desynchronized workstation timers.
void BM_QueueHoldUniform(benchmark::State& state) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  EventQueue q;
  Rng rng(occupancy);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < occupancy; ++i) {
    q.push(Event{rng.uniform_int(1, 2'000), seq++, i, false});
  }
  for (auto _ : state) {
    const Event ev = q.front();
    q.pop_front();
    q.push(Event{ev.at + rng.uniform_int(1, 2'000), seq++, ev.payload, false});
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations());
}

/// Bursty hold: half the replacements land on the popped timestamp (the
/// iexchange-style same-time resume burst), the rest jump far ahead.
void BM_QueueHoldBursty(benchmark::State& state) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  EventQueue q;
  Rng rng(occupancy + 1);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < occupancy; ++i) {
    const SimTime delta = rng.uniform01() < 0.5 ? 0 : rng.uniform_int(10'000, 100'000);
    q.push(Event{delta, seq++, i, false});
  }
  for (auto _ : state) {
    const Event ev = q.front();
    q.pop_front();
    const SimTime delta = rng.uniform01() < 0.5 ? 0 : rng.uniform_int(10'000, 100'000);
    q.push(Event{ev.at + delta, seq++, ev.payload, false});
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations());
}

dlb::sim::Process ticker(dlb::sim::Engine& engine, SimTime gap, int hops) {
  for (int i = 0; i < hops; ++i) co_await engine.sleep_for(gap);
}

/// Whole-engine throughput with N live coroutine processes sleeping on
/// desynchronized periods — resume scheduling, queue churn and coroutine
/// switching included.
void BM_EngineLiveProcs(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  constexpr int kHops = 10;
  for (auto _ : state) {
    dlb::sim::Engine engine;
    for (int k = 0; k < procs; ++k) {
      engine.spawn(ticker(engine, 1'000 + 7 * (k % 997), kHops));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * procs * kHops);
}

}  // namespace

BENCHMARK(BM_QueueHoldUniform)->Arg(16)->Arg(64)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_QueueHoldBursty)->Arg(16)->Arg(64)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_EngineLiveProcs)->Arg(1000)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

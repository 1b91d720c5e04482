// Micro-benchmarks (google-benchmark) of the simulator primitives: event
// scheduling throughput, coroutine process switching, mailbox delivery,
// collective pattern measurement, the policy pipeline, and a full small DLB
// run — the costs that bound how large a campaign the harness can sweep.

#include <benchmark/benchmark.h>

#include "apps/mxm.hpp"
#include "cluster/cluster.hpp"
#include "core/policy.hpp"
#include "core/runtime.hpp"
#include "net/patterns.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "sim/process.hpp"

namespace {

using namespace dlb;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    long long sum = 0;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at(i * 10, [&sum] { ++sum; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

sim::Process sleeper_chain(sim::Engine& engine, int hops) {
  for (int i = 0; i < hops; ++i) co_await engine.sleep_for(1);
}

void BM_CoroutineResume(benchmark::State& state) {
  const auto hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn(sleeper_chain(engine, hops));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineResume)->Arg(1000)->Arg(10000);

sim::Process mailbox_consumer(sim::Mailbox& box, int count) {
  for (int i = 0; i < count; ++i) (void)co_await box.receive();
}

void BM_MailboxDeliverReceive(benchmark::State& state) {
  const auto messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::Mailbox box(engine);
    engine.spawn(mailbox_consumer(box, messages));
    for (int i = 0; i < messages; ++i) {
      engine.schedule_at(i, [&box, i] {
        sim::Message m;
        m.tag = 1;
        m.payload = i;
        box.deliver(std::move(m));
      });
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_MailboxDeliverReceive)->Arg(1000)->Arg(10000);

sim::Process trivial_process() { co_return; }

void BM_ProcessSpawnTeardown(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < procs; ++i) engine.spawn(trivial_process());
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_ProcessSpawnTeardown)->Arg(1000)->Arg(10000);

sim::Process ping(sim::Engine& engine, sim::Mailbox& mine, sim::Mailbox& theirs, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    sim::Message m;
    m.tag = 1;
    m.payload = i;
    theirs.deliver(std::move(m));
    (void)co_await mine.receive();
    co_await engine.sleep_for(1);
  }
}

sim::Process pong(sim::Mailbox& mine, sim::Mailbox& theirs, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    sim::Message m = co_await mine.receive();
    m.tag = 2;
    theirs.deliver(std::move(m));
  }
}

void BM_MailboxRoundTrip(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::Mailbox a(engine);
    sim::Mailbox b(engine);
    engine.spawn(ping(engine, a, b, rounds));
    engine.spawn(pong(b, a, rounds));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_MailboxRoundTrip)->Arg(1000)->Arg(10000);

void BM_PatternAllToAll(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  const net::EthernetParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::measure_pattern(net::Pattern::kAllToAll, procs, 64, params));
  }
}
BENCHMARK(BM_PatternAllToAll)->Arg(4)->Arg(16);

void BM_PolicyDecide(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  std::vector<core::ProfileSnapshot> profiles;
  for (int i = 0; i < procs; ++i) {
    profiles.push_back({i, 100 + i * 7, 1.0 + 0.1 * i, true});
  }
  const core::DlbConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decide(profiles, config));
  }
}
BENCHMARK(BM_PolicyDecide)->Arg(4)->Arg(16)->Arg(64);

void BM_FullMxmRun(benchmark::State& state) {
  const auto procs = static_cast<int>(state.range(0));
  const auto app = apps::make_mxm({procs * 25L, 64, 64});
  cluster::ClusterParams params;
  params.procs = procs;
  params.base_ops_per_sec = 1e6;
  core::DlbConfig config;
  config.strategy = core::Strategy::kGDDLB;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    params.seed = seed++;
    benchmark::DoNotOptimize(core::run_app(params, app, config));
  }
}
BENCHMARK(BM_FullMxmRun)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();

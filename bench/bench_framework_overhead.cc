// Micro-benchmarks (google-benchmark) for the framework's host-side hot
// paths and the ablation knobs called out in DESIGN.md: the event loop, the
// SPSC hint/record ring, token minting, the end-to-end per-invocation cost
// of the Enoki layer (ablating SimCosts::enoki_call_ns), and the
// simulator's events-per-second rate.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "src/base/ring_buffer.h"
#include "src/sched/wfq.h"
#include "src/workloads/pipe.h"

namespace enoki {
namespace {

void BM_EventLoopScheduleRun(benchmark::State& state) {
  EventLoop loop;
  uint64_t sink = 0;
  for (auto _ : state) {
    loop.ScheduleAfter(1, [&sink] { ++sink; });
    loop.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_RingBufferPushPop(benchmark::State& state) {
  RingBuffer<HintBlob> ring(1024);
  HintBlob blob;
  for (auto _ : state) {
    ring.Push(blob);
    benchmark::DoNotOptimize(ring.Pop());
  }
}
BENCHMARK(BM_RingBufferPushPop);

void BM_SchedulableMintMove(benchmark::State& state) {
  uint64_t gen = 0;
  for (auto _ : state) {
    Schedulable s = SchedulableMinter::Mint(42, 3, ++gen);
    Schedulable t = std::move(s);
    benchmark::DoNotOptimize(t.pid());
  }
}
BENCHMARK(BM_SchedulableMintMove);

// Simulated pipe latency as a function of the Enoki per-call overhead
// (ablation: 0 ns = free framework, 125 ns = calibrated, 500 ns = heavy).
void BM_PipeLatencyVsEnokiCallCost(benchmark::State& state) {
  const Duration call_ns = static_cast<Duration>(state.range(0));
  double last = 0;
  for (auto _ : state) {
    SimCosts costs;
    costs.enoki_call_ns = call_ns;
    Stack s = MakeEnokiStack(std::make_unique<WfqSched>(0), MachineSpec::OneSocket8(), costs);
    PipeBenchConfig cfg;
    cfg.messages = 2'000;
    last = RunPipeBench(*s.core, s.policy, cfg).usec_per_wakeup;
  }
  state.counters["sim_usec_per_wakeup"] = last;
}
BENCHMARK(BM_PipeLatencyVsEnokiCallCost)->Arg(0)->Arg(125)->Arg(250)->Arg(500);

// Host time per module call of a short pipe through EnokiRuntime+WFQ, with
// no tracing wrapper around the calls: the whole simulation's host time
// divided by the module calls it made. Arg 0 runs the bare shim, arg 1 adds
// the watchdog (its per-call latency check and histogram); the flight ring
// is always on. The difference between the two is the watchdog's share.
void BM_EnokiShimHostNsPerCall(benchmark::State& state) {
  const bool watchdog = state.range(0) != 0;
  uint64_t calls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Stack s = MakeEnokiStack(std::make_unique<WfqSched>(0));
    if (watchdog) {
      s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    }
    PipeBenchConfig cfg;
    cfg.messages = 2'000;
    state.ResumeTiming();
    benchmark::DoNotOptimize(RunPipeBench(*s.core, s.policy, cfg).completed);
    calls += s.runtime->module_calls();
  }
  // Host seconds per call; the console prints it SI-scaled, e.g. "90ns".
  state.counters["host_time_per_call"] = benchmark::Counter(
      static_cast<double>(calls), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EnokiShimHostNsPerCall)->ArgName("watchdog")->Arg(0)->Arg(1);

// Host-side simulator throughput: simulated pipe events per host second.
void BM_SimulatorEventRate(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    Stack s = MakeCfsStack();
    PipeBenchConfig cfg;
    cfg.messages = 5'000;
    RunPipeBench(*s.core, s.policy, cfg);
    events += s.core->loop().events_executed();
  }
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorEventRate);

}  // namespace
}  // namespace enoki

BENCHMARK_MAIN();

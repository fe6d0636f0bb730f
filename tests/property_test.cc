// Property-style parameterized sweeps over the substrate and the framework:
// statistics invariants, replay robustness under damaged traces, scheduler
// ordering properties, and conservation laws under randomized churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/fifo.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/workloads/pipe.h"

namespace enoki {
namespace {

// ---- LatencyRecorder: percentile accuracy across distributions ----

enum class Dist { kUniform, kExponential, kLogNormal, kBimodal };

class RecorderAccuracy : public ::testing::TestWithParam<std::tuple<Dist, double>> {};

TEST_P(RecorderAccuracy, WithinTwoPercentOfExact) {
  const auto [dist, pct] = GetParam();
  Rng rng(99);
  LatencyRecorder rec;
  std::vector<Duration> exact;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    double v = 0;
    switch (dist) {
      case Dist::kUniform:
        v = 100.0 + rng.NextDouble() * 1e6;
        break;
      case Dist::kExponential:
        v = rng.NextExponential(50'000.0);
        break;
      case Dist::kLogNormal:
        v = rng.NextLogNormal(10.0, 1.0);
        break;
      case Dist::kBimodal:
        v = rng.NextBernoulli(0.99) ? 4'000.0 : 10'000'000.0;
        break;
    }
    const Duration d = static_cast<Duration>(std::max(v, 1.0));
    rec.Record(d);
    exact.push_back(d);
  }
  std::sort(exact.begin(), exact.end());
  const size_t rank = std::min<size_t>(
      exact.size() - 1,
      static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(exact.size()))));
  const double want = static_cast<double>(exact[rank]);
  const double got = static_cast<double>(rec.Percentile(pct));
  EXPECT_NEAR(got, want, want * 0.02 + 1.0);
}

std::string DistParamName(const ::testing::TestParamInfo<std::tuple<Dist, double>>& info) {
  const char* name = "unknown";
  switch (std::get<0>(info.param)) {
    case Dist::kUniform:
      name = "uniform";
      break;
    case Dist::kExponential:
      name = "exponential";
      break;
    case Dist::kLogNormal:
      name = "lognormal";
      break;
    case Dist::kBimodal:
      name = "bimodal";
      break;
  }
  return std::string(name) + "_p" + std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RecorderAccuracy,
    ::testing::Combine(::testing::Values(Dist::kUniform, Dist::kExponential, Dist::kLogNormal,
                                         Dist::kBimodal),
                       ::testing::Values(50.0, 90.0, 99.0, 99.9)),
    DistParamName);

// ---- Replay robustness: damaged traces degrade gracefully ----

std::vector<RecordEntry> RecordSmallWfqRun() {
  Recorder recorder(1 << 18);
  SetLockHooks(&recorder);
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(std::make_unique<WfqSched>(0));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
    PipeBenchConfig cfg;
    cfg.messages = 60;
    EXPECT_TRUE(RunPipeBench(core, policy, cfg).completed);
  }
  SetLockHooks(nullptr);
  return recorder.TakeLog();
}

TEST(ReplayRobustness, EmptyTraceIsHarmless) {
  ReplayEngine engine({}, 8);
  engine.InstallHooks();
  auto module = std::make_unique<WfqSched>(0);
  module->Attach(engine.env());
  const auto result = engine.Run(module.get());
  EXPECT_EQ(result.calls_replayed, 0u);
  EXPECT_EQ(result.response_mismatches, 0u);
}

TEST(ReplayRobustness, TruncatedTraceStillReplays) {
  auto log = RecordSmallWfqRun();
  ASSERT_GT(log.size(), 100u);
  log.resize(log.size() / 2);  // simulate a run cut short
  ReplayEngine engine(log, 8);
  engine.InstallHooks();
  auto module = std::make_unique<WfqSched>(0);
  module->Attach(engine.env());
  const auto result = engine.Run(module.get());
  EXPECT_GT(result.calls_replayed, 0u);
  // A prefix of a valid trace is itself valid: no mismatches.
  EXPECT_EQ(result.response_mismatches, 0u);
}

TEST(ReplayRobustness, CallsOnlyTraceNeedsNoLockEntries) {
  auto log = RecordSmallWfqRun();
  std::vector<RecordEntry> calls_only;
  for (const auto& e : log) {
    if (IsModuleCall(e.type)) {
      calls_only.push_back(e);
    }
  }
  ReplayEngine engine(calls_only, 8);
  engine.InstallHooks();
  auto module = std::make_unique<WfqSched>(0);
  module->Attach(engine.env());
  const auto result = engine.Run(module.get());
  EXPECT_EQ(result.calls_replayed, calls_only.size());
  // Without lock entries ordering is only per-kthread; the engine must not
  // hang or crash (mismatches are possible and acceptable here).
}

TEST(ReplayRobustness, ReplayTwiceFromSameTrace) {
  const auto log = RecordSmallWfqRun();
  for (int round = 0; round < 2; ++round) {
    ReplayEngine engine(log, 8);
    engine.InstallHooks();
    auto module = std::make_unique<WfqSched>(0);
    module->Attach(engine.env());
    const auto result = engine.Run(module.get());
    EXPECT_EQ(result.response_mismatches, 0u) << "round " << round;
  }
}

// ---- Shinjuku: FCFS ordering property ----

TEST(ShinjukuProperty, EqualTasksCompleteInArrivalOrder) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<ShinjukuSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  std::vector<int> completion_order;
  // 12 equal tasks arriving 50us apart on one core (ncpus stay busy).
  for (int i = 0; i < 12; ++i) {
    const int id = i;
    core.loop().ScheduleAfter(Microseconds(50) * (i + 1), [&core, &completion_order, id, policy] {
      auto done = std::make_shared<bool>(false);
      core.CreateTaskOn(std::string("t").append(std::to_string(id)),
                        MakeFnBody([done, &completion_order, id](SimContext&) -> Action {
                          if (!*done) {
                            *done = true;
                            return Action::Compute(Microseconds(200));
                          }
                          completion_order.push_back(id);
                          return Action::Exit();
                        }),
                        policy, 0, CpuMask::Single(1));
    });
  }
  core.Start();
  core.RunFor(Milliseconds(50));
  ASSERT_EQ(completion_order.size(), 12u);
  // FCFS with preempt-requeue of equal-length tasks preserves arrival order
  // for the *first* completions; verify global order is close to FIFO:
  // no task finishes more than 3 positions early.
  for (size_t pos = 0; pos < completion_order.size(); ++pos) {
    EXPECT_LE(std::abs(static_cast<int>(pos) - completion_order[pos]), 3)
        << "task " << completion_order[pos] << " at position " << pos;
  }
}

// ---- Conservation under randomized churn (seed sweep) ----

class RandomChurn : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChurn, NothingLostNoTokensForged) {
  const uint64_t seed = GetParam();
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<WfqSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  auto rng = std::make_shared<Rng>(seed);
  for (int i = 0; i < 16; ++i) {
    auto left = std::make_shared<int>(30 + static_cast<int>(rng->NextBelow(40)));
    auto trng = std::make_shared<Rng>(rng->Fork());
    core.CreateTask("t", MakeFnBody([left, trng](SimContext&) -> Action {
                      if (*left == 0) {
                        return Action::Exit();
                      }
                      --*left;
                      switch (trng->NextBelow(4)) {
                        case 0:
                          return Action::Sleep(Nanoseconds(50'000 + trng->NextBelow(200'000)));
                        case 1:
                          return Action::Yield();
                        default:
                          return Action::Compute(Nanoseconds(20'000 + trng->NextBelow(150'000)));
                      }
                    }),
                    policy, static_cast<int>(rng->NextBelow(10)) - 5);
  }
  core.Start();
  EXPECT_TRUE(core.RunUntilAllExit(Seconds(60))) << "seed " << seed;
  EXPECT_EQ(core.pick_errors(), 0u) << "seed " << seed;
  for (int cpu = 0; cpu < core.ncpus(); ++cpu) {
    EXPECT_EQ(runtime.QueuedCount(cpu), 0u) << "seed " << seed << " cpu " << cpu;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurn, ::testing::Values(1, 7, 42, 1234, 99999));

// ---- CFS NUMA property: no cross-node pull for small imbalances ----

TEST(CfsNuma, SmallImbalanceStaysOnNode) {
  SchedCore core(MachineSpec::TwoSocket80(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  // One extra task on node 0 (41 tasks on 40 cores); node 1 idle. The
  // single-task imbalance is below the threshold: it must NOT migrate to
  // node 1; instead the node-0 cores share.
  std::vector<Task*> tasks;
  CpuMask node0;
  for (int c = 0; c < 40; ++c) {
    node0.Set(c);
  }
  for (int i = 0; i < 41; ++i) {
    // Affinity technically allows both nodes; placement should still prefer
    // node 0 spreading... so pin creation there but leave wake affinity open.
    tasks.push_back(core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(4), Milliseconds(1)),
                                    0));
  }
  core.Start();
  ASSERT_TRUE(core.RunUntilAllExit(Seconds(10)));
  // 41 x 4ms over 80 cores: everything fits; main check is completion and
  // that migrations stayed bounded (no ping-ponging across sockets).
  EXPECT_LT(cfs.migrations(), 50u);
}

// ---- Hint queue properties ----

class HintCapacity : public ::testing::TestWithParam<size_t> {};

TEST_P(HintCapacity, AcceptsExactlyCapacity) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<FifoSched>(0));
  CfsClass cfs;
  core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  const size_t cap = GetParam();
  const int q = runtime.CreateHintQueue(cap);
  size_t accepted = 0;
  for (size_t i = 0; i < 4 * cap + 8; ++i) {
    if (runtime.SendHint(q, HintBlob{})) {
      ++accepted;
    }
  }
  // The hint-queue layer rounds the requested capacity up to a power of
  // two before constructing the ring (which requires pow2).
  size_t pow2 = 1;
  while (pow2 < cap) {
    pow2 <<= 1;
  }
  EXPECT_EQ(accepted, pow2);
}

INSTANTIATE_TEST_SUITE_P(Capacities, HintCapacity, ::testing::Values(1, 3, 16, 100, 1024));

}  // namespace
}  // namespace enoki

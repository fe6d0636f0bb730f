// Cross-module integration and property tests: parameterized sweeps over
// schedulers, nice levels, and machine shapes; upgrade-under-load; and
// record->replay equivalence for multiple schedulers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/nice_weights.h"
#include "src/sched/fifo.h"
#include "src/sched/locality.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/workloads/fairness.h"
#include "src/workloads/pipe.h"
#include "src/workloads/schbench.h"

namespace enoki {
namespace {

enum class Sched { kCfs, kWfq, kFifo, kShinjuku, kLocality };

const char* SchedName(Sched s) {
  switch (s) {
    case Sched::kCfs:
      return "cfs";
    case Sched::kWfq:
      return "wfq";
    case Sched::kFifo:
      return "fifo";
    case Sched::kShinjuku:
      return "shinjuku";
    case Sched::kLocality:
      return "locality";
  }
  return "?";
}

// Builds a core with the requested scheduler as the primary policy and CFS
// below it.
struct Harness {
  explicit Harness(Sched which, MachineSpec spec = MachineSpec::OneSocket8())
      : core(spec, SimCosts{}) {
    switch (which) {
      case Sched::kCfs:
        policy = core.RegisterClass(&cfs);
        return;
      case Sched::kWfq:
        runtime = std::make_unique<EnokiRuntime>(std::make_unique<WfqSched>(0));
        break;
      case Sched::kFifo:
        runtime = std::make_unique<EnokiRuntime>(std::make_unique<FifoSched>(0));
        break;
      case Sched::kShinjuku:
        runtime = std::make_unique<EnokiRuntime>(std::make_unique<ShinjukuSched>(0));
        break;
      case Sched::kLocality:
        runtime = std::make_unique<EnokiRuntime>(
            std::make_unique<LocalitySched>(0, /*use_hints=*/false));
        break;
    }
    policy = core.RegisterClass(runtime.get());
    core.RegisterClass(&cfs);
  }
  SchedCore core;
  CfsClass cfs;
  std::unique_ptr<EnokiRuntime> runtime;
  int policy = 0;
};

// ---- Property: every scheduler completes the churn workload without losing
// tasks or producing pick errors. ----

class AllSchedChurn : public ::testing::TestWithParam<Sched> {};

TEST_P(AllSchedChurn, TaskConservation) {
  Harness h(GetParam());
  for (int i = 0; i < 20; ++i) {
    auto left = std::make_shared<int>(60);
    h.core.CreateTask("churn-" + std::to_string(i),
                      MakeFnBody([left](SimContext&) -> Action {
                        if (*left == 0) {
                          return Action::Exit();
                        }
                        --*left;
                        switch (*left % 5) {
                          case 0:
                            return Action::Sleep(Microseconds(170));
                          case 1:
                            return Action::Yield();
                          default:
                            return Action::Compute(Microseconds(110));
                        }
                      }),
                      h.policy);
  }
  h.core.Start();
  EXPECT_TRUE(h.core.RunUntilAllExit(Seconds(30))) << SchedName(GetParam());
  EXPECT_EQ(h.core.pick_errors(), 0u) << SchedName(GetParam());
}

TEST_P(AllSchedChurn, PipeCompletes) {
  Harness h(GetParam());
  PipeBenchConfig cfg;
  cfg.messages = 500;
  auto result = RunPipeBench(h.core, h.policy, cfg);
  EXPECT_TRUE(result.completed) << SchedName(GetParam());
  EXPECT_GT(result.usec_per_wakeup, 0.5) << SchedName(GetParam());
  EXPECT_LT(result.usec_per_wakeup, 30.0) << SchedName(GetParam());
}

TEST_P(AllSchedChurn, DeterministicElapsedTime) {
  auto run = [&] {
    Harness h(GetParam());
    for (int i = 0; i < 10; ++i) {
      h.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(4), Microseconds(300)),
                        h.policy);
    }
    h.core.Start();
    h.core.RunUntilAllExit(Seconds(30));
    return h.core.now();
  };
  EXPECT_EQ(run(), run()) << SchedName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Schedulers, AllSchedChurn,
                         ::testing::Values(Sched::kCfs, Sched::kWfq, Sched::kFifo,
                                           Sched::kShinjuku, Sched::kLocality),
                         [](const ::testing::TestParamInfo<Sched>& info) {
                           return SchedName(info.param);
                         });

// ---- Property: fair schedulers divide one core proportionally to weight
// across the full nice range. ----

class FairnessByNice : public ::testing::TestWithParam<std::tuple<Sched, int>> {};

TEST_P(FairnessByNice, WeightedShareWithinTolerance) {
  const Sched which = std::get<0>(GetParam());
  const int nice = std::get<1>(GetParam());
  Harness h(which);
  // Task 0 at `nice`, task 1 at 0, both pinned to core 0, run long enough
  // that slicing noise averages out; then compare achieved runtimes at a
  // fixed horizon.
  std::vector<Task*> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back(h.core.CreateTaskOn(std::string("t").append(std::to_string(i)),
                                        std::make_unique<SpinForeverBody>(Microseconds(500)),
                                        h.policy, i == 0 ? nice : 0, CpuMask::Single(0)));
  }
  h.core.Start();
  h.core.RunFor(Seconds(2));
  const double r0 = ToSeconds(h.core.TaskRuntime(tasks[0]));
  const double r1 = ToSeconds(h.core.TaskRuntime(tasks[1]));
  ASSERT_GT(r0 + r1, 1.8);  // the core stayed busy
  const double expected_ratio = static_cast<double>(NiceToWeight(nice)) /
                                static_cast<double>(NiceToWeight(0));
  const double measured_ratio = r0 / r1;
  // Within 30% of the ideal weighted share (slicing granularity).
  EXPECT_GT(measured_ratio, expected_ratio * 0.7) << SchedName(which) << " nice " << nice;
  EXPECT_LT(measured_ratio, expected_ratio * 1.45) << SchedName(which) << " nice " << nice;
}

INSTANTIATE_TEST_SUITE_P(
    WeightSweep, FairnessByNice,
    ::testing::Combine(::testing::Values(Sched::kCfs, Sched::kWfq),
                       ::testing::Values(-10, -5, -1, 0, 1, 5, 10, 19)),
    [](const ::testing::TestParamInfo<std::tuple<Sched, int>>& info) {
      const int nice = std::get<1>(info.param);
      return std::string(SchedName(std::get<0>(info.param))) + "_nice_" +
             (nice < 0 ? "m" : "p") + std::to_string(nice < 0 ? -nice : nice);
    });

// ---- Property: work conservation — with runnable tasks somewhere, no CPU
// idles for long under schedulers that balance. ----

class WorkConservation : public ::testing::TestWithParam<Sched> {};

TEST_P(WorkConservation, MakespanNearIdeal) {
  Harness h(GetParam());
  const int ntasks = 24;
  const Duration work = Milliseconds(20);
  for (int i = 0; i < ntasks; ++i) {
    h.core.CreateTask("t", std::make_unique<CpuBoundBody>(work, Milliseconds(1)), h.policy);
  }
  h.core.Start();
  ASSERT_TRUE(h.core.RunUntilAllExit(Seconds(30)));
  const double ideal = ToSeconds(work) * ntasks / 8.0;
  EXPECT_LT(ToSeconds(h.core.now()), ideal * 1.5) << SchedName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Balancers, WorkConservation,
                         ::testing::Values(Sched::kCfs, Sched::kWfq, Sched::kFifo,
                                           Sched::kShinjuku),
                         [](const ::testing::TestParamInfo<Sched>& info) {
                           return SchedName(info.param);
                         });

// ---- Upgrade under load ----

TEST(Integration, UpgradeUnderSchbenchLoad) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<WfqSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  SchbenchConfig cfg;
  cfg.warmup = Milliseconds(20);
  cfg.runtime = Milliseconds(400);
  // Three upgrades while schbench runs.
  for (int i = 1; i <= 3; ++i) {
    core.loop().ScheduleAfter(Milliseconds(100) * i, [&runtime] {
      EXPECT_TRUE(runtime.Upgrade(std::make_unique<WfqSched>(0)).ok);
    });
  }
  auto result = RunSchbench(core, policy, cfg);
  EXPECT_GT(result.wakeups, 100u);
  EXPECT_EQ(runtime.ladder().upgrades(), 3u);
  EXPECT_EQ(core.pick_errors(), 0u);
  // Paper 5.7: the pause is too short to affect schbench tails.
  EXPECT_LT(result.p99, Milliseconds(5));
}

// ---- Record -> replay equivalence across schedulers ----

class RecordReplayAll : public ::testing::TestWithParam<Sched> {};

std::unique_ptr<EnokiSched> MakeModule(Sched which) {
  switch (which) {
    case Sched::kWfq:
      return std::make_unique<WfqSched>(0);
    case Sched::kFifo:
      return std::make_unique<FifoSched>(0);
    case Sched::kShinjuku:
      return std::make_unique<ShinjukuSched>(0);
    case Sched::kLocality:
      return std::make_unique<LocalitySched>(0, false);
    case Sched::kCfs:
      break;
  }
  return nullptr;
}

TEST_P(RecordReplayAll, ReplayValidates) {
  const Sched which = GetParam();
  Recorder recorder(1 << 20);
  SetLockHooks(&recorder);
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(MakeModule(which));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
    PipeBenchConfig cfg;
    cfg.messages = 150;
    ASSERT_TRUE(RunPipeBench(core, policy, cfg).completed);
  }
  SetLockHooks(nullptr);
  auto log = recorder.TakeLog();
  ASSERT_EQ(recorder.dropped(), 0u);

  ReplayEngine engine(log, 8);
  engine.InstallHooks();
  auto module = MakeModule(which);
  module->Attach(engine.env());
  auto result = engine.Run(module.get());
  EXPECT_EQ(result.response_mismatches, 0u) << SchedName(which);
  EXPECT_EQ(result.lock_timeouts, 0u) << SchedName(which);
  EXPECT_GT(result.calls_replayed, 300u) << SchedName(which);
}

INSTANTIATE_TEST_SUITE_P(EnokiSchedulers, RecordReplayAll,
                         ::testing::Values(Sched::kWfq, Sched::kFifo, Sched::kShinjuku,
                                           Sched::kLocality),
                         [](const ::testing::TestParamInfo<Sched>& info) {
                           return SchedName(info.param);
                         });

// ---- Machine-shape sweep: the pipe bench completes on every topology. ----

class MachineShapes : public ::testing::TestWithParam<int> {};

TEST_P(MachineShapes, PipeOnNCpus) {
  const int ncpus = GetParam();
  SchedCore core(MachineSpec{ncpus, ncpus >= 40 ? 2 : 1, "shape"}, SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 300;
  EXPECT_TRUE(RunPipeBench(core, 0, cfg).completed);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MachineShapes, ::testing::Values(1, 2, 4, 8, 16, 40, 80));

}  // namespace
}  // namespace enoki

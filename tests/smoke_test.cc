#include <gtest/gtest.h>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/workloads/pipe.h"

namespace enoki {
namespace {

TEST(Smoke, PipeOnCfs) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 1000;
  auto result = RunPipeBench(core, 0, cfg);
  ASSERT_TRUE(result.completed);
  printf("CFS two-core: %.2f us/wakeup\n", result.usec_per_wakeup);
  EXPECT_GT(result.usec_per_wakeup, 0.5);
  EXPECT_LT(result.usec_per_wakeup, 50.0);
}

TEST(Smoke, PipeOnWfq) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  auto runtime = std::make_unique<EnokiRuntime>(std::make_unique<WfqSched>(0));
  CfsClass cfs;
  const int wfq_policy = core.RegisterClass(runtime.get());
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 1000;
  auto result = RunPipeBench(core, wfq_policy, cfg);
  ASSERT_TRUE(result.completed);
  printf("WFQ two-core: %.2f us/wakeup (pick errors %llu)\n", result.usec_per_wakeup,
         (unsigned long long)core.pick_errors());
  EXPECT_EQ(core.pick_errors(), 0u);
}

TEST(Smoke, PipeSameCore) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 1000;
  cfg.same_core = true;
  auto result = RunPipeBench(core, 0, cfg);
  ASSERT_TRUE(result.completed);
  printf("CFS one-core: %.2f us/wakeup\n", result.usec_per_wakeup);
}

}  // namespace
}  // namespace enoki

#include "src/enoki/replay.h"
#include "src/sched/fifo.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/shinjuku.h"

namespace enoki {
namespace {

TEST(Smoke, PipeOnGhostSol) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  AgentClass agents;
  CpuMask workers = CpuMask::All(7);  // core 7 dedicated to the agent
  GhostClass ghost(GhostClass::Mode::kSol, workers);
  const int agent_policy = core.RegisterClass(&agents);
  const int ghost_policy = core.RegisterClass(&ghost);
  CfsClass cfs;
  core.RegisterClass(&cfs);
  ghost.SpawnAgents(agent_policy, 7);
  PipeBenchConfig cfg;
  cfg.messages = 500;
  auto result = RunPipeBench(core, ghost_policy, cfg);
  ASSERT_TRUE(result.completed);
  printf("ghOSt SOL two-core: %.2f us/wakeup\n", result.usec_per_wakeup);
}

TEST(Smoke, PipeOnGhostFifo) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  AgentClass agents;
  GhostClass ghost(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
  const int agent_policy = core.RegisterClass(&agents);
  const int ghost_policy = core.RegisterClass(&ghost);
  CfsClass cfs;
  core.RegisterClass(&cfs);
  ghost.SpawnAgents(agent_policy, -1);
  PipeBenchConfig cfg;
  cfg.messages = 500;
  auto result = RunPipeBench(core, ghost_policy, cfg);
  ASSERT_TRUE(result.completed);
  printf("ghOSt FIFO two-core: %.2f us/wakeup\n", result.usec_per_wakeup);
}

TEST(Smoke, PipeOnShinjuku) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<ShinjukuSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 500;
  auto result = RunPipeBench(core, policy, cfg);
  ASSERT_TRUE(result.completed);
  printf("Shinjuku two-core: %.2f us/wakeup (pick errors %llu)\n", result.usec_per_wakeup,
         (unsigned long long)core.pick_errors());
  EXPECT_EQ(core.pick_errors(), 0u);
}

TEST(Smoke, UpgradeWfqLive) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<WfqSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  // Schedule an upgrade mid-run.
  core.loop().ScheduleAfter(Milliseconds(2), [&] {
    auto report = runtime.Upgrade(std::make_unique<WfqSched>(0));
    EXPECT_TRUE(report.ok);
    printf("upgrade pause: %.2f us\n", ToMicroseconds(report.pause_ns));
  });
  auto result = RunPipeBench(core, policy, cfg);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(core.pick_errors(), 0u);
  EXPECT_EQ(runtime.ladder().upgrades(), 1u);
}

TEST(Smoke, RecordReplayFifo) {
  std::vector<RecordEntry> log;
  {
    Recorder recorder(1 << 20);
    SetLockHooks(&recorder);
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(std::make_unique<FifoSched>(0));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
    PipeBenchConfig cfg;
    cfg.messages = 200;
    auto result = RunPipeBench(core, policy, cfg);
    ASSERT_TRUE(result.completed);
    SetLockHooks(nullptr);
    log = recorder.TakeLog();
    EXPECT_EQ(recorder.dropped(), 0u);
  }
  printf("recorded %zu entries\n", log.size());
  ASSERT_GT(log.size(), 500u);
  ReplayEngine engine(log, 8);
  engine.InstallHooks();
  auto module = std::make_unique<FifoSched>(0);
  module->Attach(engine.env());
  auto result = engine.Run(module.get());
  printf("replayed %llu calls, %llu mismatches, %llu lock blocks, %llu timeouts\n",
         (unsigned long long)result.calls_replayed, (unsigned long long)result.response_mismatches,
         (unsigned long long)result.lock_blocks, (unsigned long long)result.lock_timeouts);
  EXPECT_EQ(result.response_mismatches, 0u);
  EXPECT_EQ(result.lock_timeouts, 0u);
}

}  // namespace
}  // namespace enoki

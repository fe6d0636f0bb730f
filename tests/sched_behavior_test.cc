// Focused scheduler behaviour tests: WFQ sleeper fairness and migration
// renormalization, Shinjuku slice sweeps, locality oversubscription,
// CFS yield semantics and priority changes, and ghOSt commit accounting.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"

namespace enoki {
namespace {

struct WfqSim {
  WfqSim() : core(MachineSpec::OneSocket8(), SimCosts{}), runtime(std::make_unique<WfqSched>(0)) {
    policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
  }
  WfqSched* module() { return static_cast<WfqSched*>(runtime.module()); }
  SchedCore core;
  EnokiRuntime runtime;
  CfsClass cfs;
  int policy = 0;
};

TEST(WfqBehavior, SleeperDoesNotStarveAfterLongSleep) {
  // A task that slept 100ms competes against a CPU hog on one core: the
  // sleeper-fairness clamp must prevent it from monopolizing the CPU for
  // its entire "debt" — but it must still run promptly.
  WfqSim sim;
  Task* hog = sim.core.CreateTaskOn("hog", std::make_unique<SpinForeverBody>(Milliseconds(1)),
                                    sim.policy, 0, CpuMask::Single(0));
  auto steps = std::make_shared<int>(0);
  auto ran_at = std::make_shared<Time>(0);
  Task* sleeper = sim.core.CreateTaskOn("sleeper", MakeFnBody([steps, ran_at](SimContext& ctx) -> Action {
                                          if (*steps == 0) {
                                            *steps = 1;
                                            return Action::Sleep(Milliseconds(100));
                                          }
                                          if (*steps == 1) {
                                            *steps = 2;
                                            *ran_at = ctx.now();
                                            return Action::Compute(Milliseconds(5));
                                          }
                                          return Action::Exit();
                                        }),
                                        sim.policy, 0, CpuMask::Single(0));
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead({sleeper}, Seconds(5)));
  // Woken within a couple of ticks despite the hog...
  EXPECT_LT(*ran_at, Milliseconds(104));
  // ...and the hog was not starved for anywhere near the 100ms debt: by the
  // sleeper's exit (~110ms), the hog has far more runtime than a full-debt
  // repayment would leave it.
  EXPECT_GT(hog->total_runtime(), Milliseconds(80));
}

TEST(WfqBehavior, PrioChangeWhileQueuedTakesEffect) {
  WfqSim sim;
  Task* a = sim.core.CreateTaskOn("a", std::make_unique<SpinForeverBody>(Microseconds(500)),
                                  sim.policy, 0, CpuMask::Single(0));
  Task* b = sim.core.CreateTaskOn("b", std::make_unique<SpinForeverBody>(Microseconds(500)),
                                  sim.policy, 0, CpuMask::Single(0));
  sim.core.Start();
  sim.core.RunFor(Milliseconds(100));
  // Promote b mid-run; from here on it should accrue ~5.2x a's rate
  // (nice -5 weight ratio 3121/1024).
  const Duration a_before = sim.core.TaskRuntime(a);
  const Duration b_before = sim.core.TaskRuntime(b);
  sim.core.SetTaskNice(b, -5);
  sim.core.RunFor(Seconds(2));
  const double a_delta = ToSeconds(sim.core.TaskRuntime(a) - a_before);
  const double b_delta = ToSeconds(sim.core.TaskRuntime(b) - b_before);
  const double ratio = b_delta / a_delta;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(WfqBehavior, MigrationRenormalizesVruntime) {
  // A task pulled from a long-running core to a fresh one must not be
  // penalized by its absolute vruntime: after migration it still shares
  // fairly with its new neighbor.
  WfqSim sim;
  // Saturate cpu0 with two tasks for a while.
  Task* a = sim.core.CreateTaskOn("a", std::make_unique<SpinForeverBody>(Microseconds(500)),
                                  sim.policy, 0, CpuMask::Single(0));
  sim.core.CreateTaskOn("b", std::make_unique<SpinForeverBody>(Microseconds(500)), sim.policy, 0,
                        CpuMask::Single(0));
  sim.core.Start();
  sim.core.RunFor(Seconds(1));
  // Free task a to migrate; idle stealing will move it to an empty core.
  sim.core.SetTaskAffinity(a, CpuMask::All(8));
  sim.core.RunFor(Milliseconds(50));
  const Duration before = sim.core.TaskRuntime(a);
  sim.core.RunFor(Seconds(1));
  // On its own core it runs ~continuously.
  EXPECT_GT(ToSeconds(sim.core.TaskRuntime(a) - before), 0.9);
}

// ---- Shinjuku slice sweep ----

class ShinjukuSlice : public ::testing::TestWithParam<Duration> {};

TEST_P(ShinjukuSlice, ShortTaskBoundedByFewSlices) {
  const Duration slice = GetParam();
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<ShinjukuSched>(0, slice));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  CpuMask one = CpuMask::Single(1);
  core.CreateTaskOn("long", std::make_unique<CpuBoundBody>(Milliseconds(20), Milliseconds(20)),
                    policy, 0, one);
  auto done = std::make_shared<Time>(0);
  auto state = std::make_shared<int>(0);
  Task* short_task = core.CreateTaskOn("short", MakeFnBody([state, done](SimContext& ctx) -> Action {
                                         if (*state == 0) {
                                           *state = 1;
                                           return Action::Compute(Microseconds(5));
                                         }
                                         *done = ctx.now();
                                         return Action::Exit();
                                       }),
                                       policy, 0, one);
  core.Start();
  ASSERT_TRUE(core.RunUntilTasksDead({short_task}, Seconds(5)));
  // The short task waits at most a few preemption slices, never the long
  // task's full 20ms.
  EXPECT_LT(*done, 6 * slice + Microseconds(100));
  EXPECT_EQ(core.pick_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Slices, ShinjukuSlice,
                         ::testing::Values(Microseconds(5), Microseconds(10), Microseconds(20),
                                           Microseconds(50)),
                         [](const ::testing::TestParamInfo<Duration>& info) {
                           return std::to_string(info.param / 1000) + "us";
                         });

// ---- Locality oversubscription ----

TEST(LocalityBehavior, OversubscribedGroupSpills) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<LocalitySched>(0, /*use_hints=*/true));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);
  const int q = runtime.CreateHintQueue(256);
  // One group with far more runnable tasks than kMaxColocated: the hint is
  // advisory, so the scheduler must spill rather than build an unbounded
  // queue on one core.
  std::set<int> cpus_used;
  core.set_wake_latency_hook([&](Task* t, Duration) { cpus_used.insert(t->cpu()); });
  for (int i = 0; i < 3 * static_cast<int>(LocalitySched::kMaxColocated); ++i) {
    Task* t = core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(3), Microseconds(500)),
                              policy);
    HintBlob hint;
    hint.w[0] = t->pid();
    hint.w[1] = 1;  // everyone in group 1
    runtime.SendHint(q, hint);
  }
  core.Start();
  ASSERT_TRUE(core.RunUntilAllExit(Seconds(30)));
  EXPECT_GT(cpus_used.size(), 1u);  // spilled beyond the group core
  EXPECT_EQ(core.pick_errors(), 0u);
}

// ---- CFS yield semantics ----

TEST(CfsBehavior, YieldMovesBehindPeers) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  // A yielder and a spinner on one core: the yielder's repeated yields must
  // give the spinner the large majority of the CPU.
  auto yields = std::make_shared<int>(0);
  Task* yielder = core.CreateTaskOn("yielder", MakeFnBody([yields](SimContext&) -> Action {
                                      ++*yields;
                                      return Action::Yield();
                                    }),
                                    0, 0, CpuMask::Single(0));
  Task* spinner = core.CreateTaskOn("spinner", std::make_unique<SpinForeverBody>(Microseconds(500)),
                                    0, 0, CpuMask::Single(0));
  core.Start();
  core.RunFor(Milliseconds(500));
  EXPECT_GT(*yields, 10);
  EXPECT_GT(spinner->total_runtime(), yielder->total_runtime());
}

TEST(CfsBehavior, NicePlusNineteenGetsTinyShare) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  Task* fg = core.CreateTaskOn("fg", std::make_unique<SpinForeverBody>(Microseconds(500)), 0, -20,
                               CpuMask::Single(0));
  Task* bg = core.CreateTaskOn("bg", std::make_unique<SpinForeverBody>(Microseconds(500)), 0, 19,
                               CpuMask::Single(0));
  core.Start();
  core.RunFor(Seconds(2));
  // weight(-20)/weight(19) ~ 5900: the foreground takes essentially all.
  EXPECT_GT(ToSeconds(core.TaskRuntime(fg)), 1.9);
  EXPECT_LT(ToSeconds(core.TaskRuntime(bg)), 0.1);
}

TEST(CfsBehavior, ReniceReweightsARunnableTask) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  CfsClass cfs;
  core.RegisterClass(&cfs);
  Task* fg = core.CreateTaskOn("fg", std::make_unique<SpinForeverBody>(Microseconds(500)), 0, 0,
                               CpuMask::Single(0));
  Task* bg = core.CreateTaskOn("bg", std::make_unique<SpinForeverBody>(Microseconds(500)), 0, 0,
                               CpuMask::Single(0));
  core.Start();
  core.RunFor(Milliseconds(500));
  const Duration fg0 = core.TaskRuntime(fg);
  const Duration bg0 = core.TaskRuntime(bg);
  EXPECT_NEAR(ToSeconds(fg0), ToSeconds(bg0), 0.05);  // equal weights split the core
  core.SetTaskNice(bg, 19);  // CfsClass::PrioChanged takes the new weight
  core.RunFor(Seconds(1));
  EXPECT_GT(ToSeconds(core.TaskRuntime(fg) - fg0), 0.9);
  EXPECT_LT(ToSeconds(core.TaskRuntime(bg) - bg0), 0.1);
}

// ---- ghOSt accounting ----

TEST(GhostBehavior, EveryEventProducesAMessage) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  AgentClass agents;
  GhostClass ghost(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
  const int agent_policy = core.RegisterClass(&agents);
  const int ghost_policy = core.RegisterClass(&ghost);
  CfsClass cfs;
  core.RegisterClass(&cfs);
  ghost.SpawnAgents(agent_policy, -1);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    auto left = std::make_shared<int>(10);
    tasks.push_back(core.CreateTask("t", MakeFnBody([left](SimContext&) -> Action {
                                      if (*left == 0) {
                                        return Action::Exit();
                                      }
                                      --*left;
                                      return (*left % 2 == 0) ? Action::Sleep(Microseconds(120))
                                                              : Action::Compute(Microseconds(80));
                                    }),
                                    ghost_policy));
  }
  core.Start();
  ASSERT_TRUE(core.RunUntilTasksDead(tasks, Seconds(10)));
  // At minimum: new + dead per task, plus a blocked+wakeup per sleep.
  EXPECT_GE(ghost.messages(), 4u * (2 + 5));
  EXPECT_GE(ghost.commits(), 4u * 5);
}

TEST(GhostBehavior, EachYieldIsOneMessage) {
  // The same task with and without five yields between its computes: each
  // yield adds exactly one message, and the yielding task still finishes.
  auto run = [](bool yield) {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    AgentClass agents;
    GhostClass ghost(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
    const int agent_policy = core.RegisterClass(&agents);
    const int ghost_policy = core.RegisterClass(&ghost);
    CfsClass cfs;
    core.RegisterClass(&cfs);
    ghost.SpawnAgents(agent_policy, -1);
    auto left = std::make_shared<int>(10);
    Task* t = core.CreateTask("t", MakeFnBody([left, yield](SimContext&) -> Action {
                                if (*left == 0) {
                                  return Action::Exit();
                                }
                                --*left;
                                return *left % 2 == 0 && yield ? Action::Yield()
                                                               : Action::Compute(Microseconds(50));
                              }),
                              ghost_policy);
    core.Start();
    EXPECT_TRUE(core.RunUntilTasksDead({t}, Seconds(1)));
    return ghost.messages();
  };
  EXPECT_EQ(run(true), run(false) + 5);
}

TEST(GhostBehavior, StaleCommitDoesNotRunBlockedTask) {
  // Commit a task, then have it block before the kick lands: the pick must
  // reject the stale commit rather than run a non-runnable task. Covered
  // end-to-end by churn tests; here assert the counter-level invariant that
  // commits never exceed messages (every commit is a reaction).
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  AgentClass agents;
  GhostClass ghost(GhostClass::Mode::kSol, CpuMask::All(7));
  const int agent_policy = core.RegisterClass(&agents);
  const int ghost_policy = core.RegisterClass(&ghost);
  CfsClass cfs;
  core.RegisterClass(&cfs);
  ghost.SpawnAgents(agent_policy, 7);
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    auto left = std::make_shared<int>(20);
    tasks.push_back(core.CreateTask("t", MakeFnBody([left](SimContext&) -> Action {
                                      if (*left == 0) {
                                        return Action::Exit();
                                      }
                                      --*left;
                                      return (*left % 2 == 0) ? Action::Sleep(Microseconds(40))
                                                              : Action::Compute(Microseconds(30));
                                    }),
                                    ghost_policy));
  }
  core.Start();
  ASSERT_TRUE(core.RunUntilTasksDead(tasks, Seconds(10)));
  EXPECT_LE(ghost.commits(), ghost.messages());
}

}  // namespace
}  // namespace enoki

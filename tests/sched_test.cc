// Behavioural tests for every scheduler: CFS, Enoki WFQ, FIFO, Shinjuku,
// locality-aware, the Arachne core arbiter, and the ghOSt model.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "src/enoki/runtime.h"
#include "src/sched/arbiter.h"
#include "src/sched/cfs.h"
#include "src/sched/fifo.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/nice_weights.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/workloads/fairness.h"

namespace enoki {
namespace {

// ---- Nice weights ----

TEST(NiceWeights, MatchesLinuxTable) {
  EXPECT_EQ(NiceToWeight(0), 1024u);
  EXPECT_EQ(NiceToWeight(-20), 88761u);
  EXPECT_EQ(NiceToWeight(19), 15u);
}

TEST(NiceWeights, EachStepIsAbout25Percent) {
  for (int nice = kMinNice; nice < kMaxNice; ++nice) {
    const double ratio =
        static_cast<double>(NiceToWeight(nice)) / static_cast<double>(NiceToWeight(nice + 1));
    EXPECT_GT(ratio, 1.15) << nice;
    EXPECT_LT(ratio, 1.35) << nice;
  }
}

TEST(NiceWeights, VruntimeScalesInversely) {
  EXPECT_EQ(CalcDeltaVruntime(1024, kNice0Weight), 1024u);
  EXPECT_LT(CalcDeltaVruntime(1024, NiceToWeight(-5)), 1024u);
  EXPECT_GT(CalcDeltaVruntime(1024, NiceToWeight(5)), 1024u);
}

// ---- Helpers ----

struct CfsSim {
  CfsSim(MachineSpec spec = MachineSpec::OneSocket8()) : core(spec, SimCosts{}) {
    core.RegisterClass(&cfs);
  }
  SchedCore core;
  CfsClass cfs;
};

template <typename Module>
struct EnokiSim {
  template <typename... Args>
  explicit EnokiSim(Args&&... args)
      : core(MachineSpec::OneSocket8(), SimCosts{}),
        runtime(std::make_unique<Module>(0, std::forward<Args>(args)...)) {
    policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
  }
  SchedCore core;
  EnokiRuntime runtime;
  CfsClass cfs;
  int policy = 0;
  Module* module() { return static_cast<Module*>(runtime.module()); }
};

// ---- CFS ----

TEST(Cfs, EqualSharesOnOneCore) {
  CfsSim sim;
  auto result = RunFairness(sim.core, 0, 4, Seconds(1), /*same_core=*/true, {});
  ASSERT_TRUE(result.completed);
  const double first = *std::min_element(result.completion_seconds.begin(),
                                         result.completion_seconds.end());
  const double last = *std::max_element(result.completion_seconds.begin(),
                                        result.completion_seconds.end());
  // 4 x 1s of work sharing one core: all finish close to 4s.
  EXPECT_NEAR(last, 4.0, 0.3);
  EXPECT_LT(last - first, 0.25);
}

TEST(Cfs, LowPriorityTaskFinishesLast) {
  CfsSim sim;
  auto result = RunFairness(sim.core, 0, 3, Milliseconds(600), /*same_core=*/true,
                            {0, 0, kMaxNice});
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.completion_seconds[2], result.completion_seconds[0]);
  EXPECT_GT(result.completion_seconds[2], result.completion_seconds[1]);
}

TEST(Cfs, HighWeightGetsProportionallyMore) {
  // nice -5 vs nice 5: weight ratio ~9.3; the favored task should finish
  // much earlier when both share a core.
  CfsSim sim;
  auto result =
      RunFairness(sim.core, 0, 2, Milliseconds(500), /*same_core=*/true, {-5, 5});
  ASSERT_TRUE(result.completed);
  EXPECT_LT(result.completion_seconds[0] * 1.5, result.completion_seconds[1]);
}

TEST(Cfs, SpreadsTasksAcrossIdleCores) {
  CfsSim sim;
  auto result = RunFairness(sim.core, 0, 8, Milliseconds(100), /*same_core=*/false, {});
  ASSERT_TRUE(result.completed);
  // One task per core: everything completes in ~0.1s, not 0.8s.
  for (double c : result.completion_seconds) {
    EXPECT_LT(c, 0.2);
  }
}

TEST(Cfs, NewidleBalancePullsWork) {
  // 2 long tasks pinned nowhere; start 4 tasks on a machine and watch
  // migrations happen when cores go idle at different times.
  CfsSim sim;
  for (int i = 0; i < 12; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(20 + 10 * i),
                                                            Milliseconds(1)),
                        0);
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  EXPECT_GT(sim.cfs.migrations(), 0u);
}

TEST(Cfs, WakeupPreemptionByVruntime) {
  // A task that slept accumulates less vruntime and preempts a CPU hog when
  // it wakes on the same core.
  CfsSim sim;
  Task* hog = sim.core.CreateTaskOn("hog", std::make_unique<CpuBoundBody>(Milliseconds(100), Milliseconds(50)),
                                    0, 0, CpuMask::Single(0));
  auto steps = std::make_shared<int>(0);
  auto wake_lat = std::make_shared<Duration>(0);
  Task* sleeper = sim.core.CreateTaskOn(
      "sleeper", MakeFnBody([steps](SimContext&) -> Action {
        if (*steps >= 20) {
          return Action::Exit();
        }
        ++*steps;
        if (*steps % 2 == 1) {
          return Action::Sleep(Milliseconds(2));
        }
        return Action::Compute(Microseconds(100));
      }),
      0, 0, CpuMask::Single(0));
  sim.core.set_wake_latency_hook([&, sleeper_pid = sleeper->pid()](Task* t, Duration lat) {
    // Skip the initial new-task dispatch (no sleeper credit yet); measure
    // post-sleep wakeups, which is what wakeup preemption governs.
    if (t->pid() == sleeper_pid && t->wake_count() > 1 && lat > *wake_lat) {
      *wake_lat = lat;
    }
  });
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead({sleeper}, Seconds(5)));
  (void)hog;
  // The sleeper never waits anywhere near a full CFS slice behind the hog.
  EXPECT_LT(*wake_lat, Milliseconds(2));
}

// check_preempt_wakeup preempts only when the woken task trails the current
// one by more than the wakeup granularity: at exactly the granularity the
// current task keeps its CPU.
TEST(Cfs, WakeupPreemptNeedsMoreThanTheGranularity) {
  CfsSim sim(MachineSpec{1, 1, "1 core"});
  sim.core.set_ticks_enabled(false);
  Task* sleeper = sim.core.CreateTask(
      "sleeper", std::make_unique<ScriptedBody>(std::vector<Action>{Action::Sleep(Seconds(1))}),
      0);
  Task* hog =
      sim.core.CreateTask("hog", std::make_unique<CpuBoundBody>(Seconds(1), Seconds(1)), 0);
  sim.core.Start();
  sim.core.RunFor(Microseconds(100));
  ASSERT_EQ(sleeper->state(), TaskState::kBlocked);
  ASSERT_EQ(hog->state(), TaskState::kRunning);
  // Both start at vruntime 0 and run at nice 0, where vruntime is runtime.
  const Duration tie = sim.core.TaskRuntime(sleeper) + CfsClass::kWakeupGranularityNs;
  sim.core.RunFor(tie - sim.core.TaskRuntime(hog));
  ASSERT_EQ(sim.core.TaskRuntime(hog), tie);
  EXPECT_FALSE(sim.cfs.WakeupPreempt(0, hog, sleeper));
  sim.core.RunFor(1);
  EXPECT_TRUE(sim.cfs.WakeupPreempt(0, hog, sleeper));
}

// Builds CFS queue states on TwoNode16 (node 0 = CPUs 0-7, node 1 = 8-15)
// and asks which CPU an idle pick on CPU 0 pulls from. Every CPU from 2 up
// runs a pinned occupant; CPUs 0 and 1 stay idle, so tasks queued on CPU 1
// leave its idle-exit kick pending. Queued tasks are created pinned to their
// CPU and then given `affinity` (plus their own CPU), which does not move
// them. The loop is not run after queueing, so the state stays as built.
class CfsPull : public ::testing::Test {
 protected:
  static constexpr int kPuller = 0;
  static constexpr int kNcpus = 16;

  CfsPull() : sim_(MachineSpec::TwoNode16()) {
    sim_.core.set_ticks_enabled(false);
    for (int cpu = 2; cpu < kNcpus; ++cpu) {
      sim_.core.CreateTaskOn("occupant",
                             std::make_unique<CpuBoundBody>(Seconds(10), Seconds(10)), 0, 0,
                             CpuMask::Single(cpu));
    }
    sim_.core.Start();
    sim_.core.RunFor(Microseconds(100));
  }

  std::vector<Task*> Queue(int cpu, int n, CpuMask affinity = CpuMask::All(kNcpus)) {
    std::vector<Task*> out;
    for (int i = 0; i < n; ++i) {
      Task* t = sim_.core.CreateTaskOn("q", std::make_unique<CpuBoundBody>(Seconds(1), Seconds(1)),
                                       0, 0, CpuMask::Single(cpu));
      affinity.Set(cpu);
      sim_.core.SetTaskAffinity(t, affinity);
      out.push_back(t);
    }
    return out;
  }

  // Runs CPU 0's idle pick; returns the CPU whose queue it pulled from, or
  // -1 when nothing was pulled. `*pulled` receives the picked task.
  int PullSource(Task** pulled = nullptr) {
    std::vector<size_t> before(kNcpus);
    for (int c = 0; c < kNcpus; ++c) {
      before[c] = sim_.cfs.QueueDepth(c);
    }
    Task* t = sim_.cfs.PickNextTask(kPuller);
    if (pulled != nullptr) {
      *pulled = t;
    }
    if (t == nullptr) {
      return -1;
    }
    int src = -1;
    for (int c = 0; c < kNcpus; ++c) {
      if (sim_.cfs.QueueDepth(c) + 1 == before[c]) {
        EXPECT_EQ(src, -1) << "two queues shrank";
        src = c;
      }
    }
    return src;
  }

  void ExpectMaskMatchesDepths() {
    for (int c = 0; c < kNcpus; ++c) {
      EXPECT_EQ(sim_.cfs.queued_cpus().Test(c), sim_.cfs.QueueDepth(c) > 0) << "cpu " << c;
    }
  }

  CfsSim sim_;
};

TEST_F(CfsPull, LongestSameNodeQueueWins) {
  Queue(2, 1);
  Queue(3, 3);
  Queue(4, 2);
  Queue(9, 5);  // longer, but across the node boundary
  ExpectMaskMatchesDepths();
  EXPECT_EQ(PullSource(), 3);
  EXPECT_EQ(sim_.cfs.migrations(), 1u);
}

TEST_F(CfsPull, CrossNodeQueueBelowThresholdIsSkipped) {
  static_assert(CfsClass::kNumaImbalanceThreshold == 2);
  Queue(9, 1);
  EXPECT_EQ(PullSource(), -1);
  EXPECT_EQ(sim_.cfs.migrations(), 0u);
  Queue(10, 2);
  EXPECT_EQ(PullSource(), 10);
}

TEST_F(CfsPull, KickPendingCpuIsSkipped) {
  Queue(1, 3);
  ASSERT_TRUE(sim_.core.CpuKickPending(1));
  Queue(2, 1);
  ASSERT_FALSE(sim_.core.CpuKickPending(2));
  EXPECT_EQ(PullSource(), 2);
}

TEST_F(CfsPull, AffinityFilterApplies) {
  CpuMask not_puller = CpuMask::All(kNcpus);
  not_puller.Clear(kPuller);
  const std::vector<Task*> eligible = Queue(3, 1);
  Queue(3, 2, not_puller);  // the two rightmost entities may not run on CPU 0
  Task* pulled = nullptr;
  EXPECT_EQ(PullSource(&pulled), 3);
  EXPECT_EQ(pulled, eligible[0]);
  EXPECT_EQ(sim_.cfs.QueueDepth(3), 2u);
}

TEST_F(CfsPull, MaskClearedAfterLastPopAndDequeue) {
  Queue(2, 1);
  EXPECT_EQ(sim_.cfs.queued_cpus(), CpuMask::Single(2));
  // The pull dequeues CPU 2's only task (clears bit 2) and the pick pops it
  // off CPU 0's queue right after enqueueing it there (clears bit 0).
  EXPECT_EQ(PullSource(), 2);
  EXPECT_TRUE(sim_.cfs.queued_cpus().Empty());
  ExpectMaskMatchesDepths();
}

TEST(Cfs, QueuedMaskTracksDepthsThroughARun) {
  CfsSim sim(MachineSpec::TwoNode16());
  for (int i = 0; i < 40; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(3 + i % 7),
                                                            Microseconds(300 + 50 * (i % 5))),
                        0);
  }
  sim.core.Start();
  for (int step = 0; step < 200 && sim.core.live_task_count() > 0; ++step) {
    sim.core.RunFor(Microseconds(250));
    for (int c = 0; c < 16; ++c) {
      ASSERT_EQ(sim.cfs.queued_cpus().Test(c), sim.cfs.QueueDepth(c) > 0)
          << "step " << step << " cpu " << c;
    }
  }
  EXPECT_EQ(sim.core.live_task_count(), 0u);
  EXPECT_GT(sim.cfs.migrations(), 0u);
}

// ---- Enoki WFQ ----

TEST(Wfq, EqualSharesOnOneCore) {
  EnokiSim<WfqSched> sim;
  auto result = RunFairness(sim.core, sim.policy, 4, Seconds(1), /*same_core=*/true, {});
  ASSERT_TRUE(result.completed);
  const double last = *std::max_element(result.completion_seconds.begin(),
                                        result.completion_seconds.end());
  const double first = *std::min_element(result.completion_seconds.begin(),
                                         result.completion_seconds.end());
  EXPECT_NEAR(last, 4.0, 0.3);
  EXPECT_LT(last - first, 0.25);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Wfq, WeightingRespected) {
  EnokiSim<WfqSched> sim;
  auto result = RunFairness(sim.core, sim.policy, 3, Milliseconds(600), /*same_core=*/true,
                            {0, 0, kMaxNice});
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.completion_seconds[2], result.completion_seconds[0]);
}

TEST(Wfq, IdleStealingDrainsLongQueue) {
  // All tasks start pinned... rather: create 8 tasks while 7 cores are kept
  // busy is complex; instead create 16 tasks and verify total time ~2x the
  // single-task time (full utilization requires stealing to work).
  EnokiSim<WfqSched> sim;
  for (int i = 0; i < 16; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(50), Milliseconds(1)),
                        sim.policy);
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  // 16 x 50ms over 8 cores = 100ms ideal; allow 30% overhead.
  EXPECT_LT(ToSeconds(sim.core.now()), 0.13);
}

TEST(Wfq, VruntimeAdvancesWithRuntime) {
  EnokiSim<WfqSched> sim;
  Task* t = sim.core.CreateTaskOn("t", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(1)),
                                  sim.policy, 0, CpuMask::Single(0));
  // A competitor keeps the queue non-empty so vruntime is observable.
  sim.core.CreateTaskOn("u", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(1)),
                        sim.policy, 0, CpuMask::Single(0));
  sim.core.Start();
  sim.core.RunFor(Milliseconds(5));
  const uint64_t vr_mid = sim.module()->VruntimeOf(t->pid());
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(5)));
  EXPECT_GT(vr_mid, 0u);
}

TEST(Wfq, NoTaskLostUnderChurn) {
  // Tasks that block/wake/migrate continuously must all exit: nothing gets
  // lost in queues or token maps (task conservation).
  EnokiSim<WfqSched> sim;
  for (int i = 0; i < 24; ++i) {
    auto left = std::make_shared<int>(50);
    sim.core.CreateTask("churn-" + std::to_string(i),
                        MakeFnBody([left](SimContext&) -> Action {
                          if (*left == 0) {
                            return Action::Exit();
                          }
                          --*left;
                          if (*left % 3 == 0) {
                            return Action::Sleep(Microseconds(130));
                          }
                          if (*left % 7 == 0) {
                            return Action::Yield();
                          }
                          return Action::Compute(Microseconds(90));
                        }),
                        sim.policy);
  }
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  EXPECT_EQ(sim.core.pick_errors(), 0u);
  for (int cpu = 0; cpu < sim.core.ncpus(); ++cpu) {
    EXPECT_EQ(sim.module()->QueueDepth(cpu), 0u) << cpu;
    EXPECT_EQ(sim.runtime.QueuedCount(cpu), 0u) << cpu;
  }
}

// ---- FIFO ----

TEST(Fifo, RunsTasksInArrivalOrderPerCore) {
  EnokiSim<FifoSched> sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    const int id = i;
    auto ran = std::make_shared<bool>(false);
    sim.core.CreateTaskOn(std::string("t").append(std::to_string(i)),
                          MakeFnBody([&order, id, ran](SimContext&) -> Action {
                            if (!*ran) {
                              *ran = true;
                              order.push_back(id);
                              return Action::Compute(Milliseconds(3));
                            }
                            return Action::Exit();
                          }),
                          sim.policy, 0, CpuMask::Single(2));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(5)));
  // First scheduled in arrival order (round-robin ticks interleave later).
  EXPECT_EQ(order[0], 0);
}

TEST(Fifo, BalanceStealsFromLongestQueue) {
  EnokiSim<FifoSched> sim;
  // Round-robin placement puts one task per cpu; make 16 so queues form,
  // then watch the overall makespan stay near ideal (stealing works).
  for (int i = 0; i < 16; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(30), Milliseconds(1)),
                        sim.policy);
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  EXPECT_LT(ToSeconds(sim.core.now()), 0.09);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

// ---- Shinjuku ----

TEST(Shinjuku, PreemptsLongTasksQuickly) {
  // One long task and a stream of short tasks on a single worker CPU: the
  // short tasks must not wait for the long one to finish.
  EnokiSim<ShinjukuSched> sim;
  CpuMask one = CpuMask::Single(1);
  sim.core.CreateTaskOn("long", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(10)),
                        sim.policy, 0, one);
  std::vector<Task*> shorts;
  std::vector<Time> done(4, 0);
  for (int i = 0; i < 4; ++i) {
    auto state = std::make_shared<int>(0);
    const int idx = i;
    auto done_ptr = &done;
    shorts.push_back(sim.core.CreateTaskOn(
        "short" + std::to_string(i), MakeFnBody([state, idx, done_ptr](SimContext& ctx) -> Action {
          if (*state == 0) {
            *state = 1;
            return Action::Compute(Microseconds(5));
          }
          (*done_ptr)[idx] = ctx.now();
          return Action::Exit();
        }),
        sim.policy, 0, one));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead(shorts, Seconds(5)));
  for (Time t : done) {
    // Without 10us preemption the shorts would wait ~10ms behind the long
    // task; with it they finish within a few slices.
    EXPECT_LT(t, Microseconds(300));
  }
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Shinjuku, ApproximatesGlobalFcfsViaStealing) {
  EnokiSim<ShinjukuSched> sim;
  for (int i = 0; i < 20; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(5), Milliseconds(5)),
                        sim.policy);
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  // 20 x 5ms on 8 cores ~ 15ms ideal.
  EXPECT_LT(ToSeconds(sim.core.now()), 0.030);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Shinjuku, UpgradePreservesQueue) {
  EnokiSim<ShinjukuSched> sim;
  for (int i = 0; i < 6; ++i) {
    sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(1)),
                        sim.policy);
  }
  sim.core.loop().ScheduleAfter(Milliseconds(3), [&] {
    EXPECT_TRUE(sim.runtime.Upgrade(std::make_unique<ShinjukuSched>(0)).ok);
  });
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

// ---- Locality ----

TEST(Locality, HintsCoLocateGroups) {
  EnokiSim<LocalitySched> sim(/*use_hints=*/true);
  const int q = sim.runtime.CreateHintQueue(256);
  // Two groups of blocking/waking tasks.
  std::vector<Task*> tasks;
  for (int g = 0; g < 2; ++g) {
    for (int i = 0; i < 2; ++i) {
      auto left = std::make_shared<int>(30);
      Task* t = sim.core.CreateTask(std::string("g").append(std::to_string(g)),
                                    MakeFnBody([left](SimContext&) -> Action {
                                      if (*left == 0) {
                                        return Action::Exit();
                                      }
                                      --*left;
                                      if (*left % 2 == 0) {
                                        return Action::Sleep(Microseconds(100));
                                      }
                                      return Action::Compute(Microseconds(50));
                                    }),
                                    sim.policy);
      HintBlob hint;
      hint.w[0] = t->pid();
      hint.w[1] = static_cast<uint64_t>(g);
      sim.runtime.SendHint(q, hint);
      tasks.push_back(t);
    }
  }
  sim.core.Start();
  sim.core.RunFor(Milliseconds(2));
  // After the first wake cycle, group members share a CPU.
  EXPECT_EQ(tasks[0]->cpu(), tasks[1]->cpu());
  EXPECT_EQ(tasks[2]->cpu(), tasks[3]->cpu());
  EXPECT_NE(tasks[0]->cpu(), tasks[2]->cpu());
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(5)));
}

TEST(Locality, WithoutHintsPlacementIsSpread) {
  EnokiSim<LocalitySched> sim(/*use_hints=*/false);
  std::vector<Task*> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(sim.core.CreateTask(
        "t", std::make_unique<CpuBoundBody>(Milliseconds(3), Microseconds(500)), sim.policy));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(5)));
  // Random placement across 8 cores: more than 2 distinct cores used.
  std::set<int> cpus;
  for (Task* t : tasks) {
    cpus.insert(t->cpu());
  }
  EXPECT_GT(cpus.size(), 2u);
}

// ---- Arbiter ----

struct ArbiterSim {
  ArbiterSim()
      : core(MachineSpec::OneSocket8(), SimCosts{}),
        runtime(std::make_unique<ArbiterSched>(0, 1, 7)) {
    policy = core.RegisterClass(&runtime);
    cfs_policy = core.RegisterClass(&cfs);
    hint_q = runtime.CreateHintQueue(256);
    rev_q = runtime.CreateRevQueue(256);
  }
  ArbiterSched* module() { return static_cast<ArbiterSched*>(runtime.module()); }
  SchedCore core;
  EnokiRuntime runtime;
  CfsClass cfs;
  int policy = 0;
  int cfs_policy = 0;
  int hint_q = 0;
  int rev_q = 0;

  // Binds activation `pid` to app 1.
  void Bind(uint64_t pid) { Send(ArbiterSched::kBindActivation, pid); }
  // App 1 asks for `cores` cores.
  void Request(uint64_t cores) { Send(ArbiterSched::kReqCores, cores); }
  void Send(uint64_t op, uint64_t arg) {
    HintBlob h;
    h.w[0] = op;
    h.w[1] = 1;
    h.w[2] = arg;
    runtime.SendHint(hint_q, h);
  }
};

TEST(Arbiter, GrantsRequestedCores) {
  ArbiterSim sim;
  // Three activations, app requests 2 cores.
  std::vector<Task*> acts;
  for (int i = 0; i < 3; ++i) {
    auto first = std::make_shared<bool>(true);
    acts.push_back(sim.core.CreateTask("act", MakeFnBody([first](SimContext&) -> Action {
                                         return Action::Compute(Microseconds(100));
                                       }),
                                       sim.policy));
    sim.Bind(acts.back()->pid());
  }
  sim.Request(2);
  sim.core.Start();
  sim.core.RunFor(Milliseconds(10));
  EXPECT_EQ(sim.module()->granted_cores(1), 2u);
  // Two grant hints arrived on the reverse queue.
  int grants = 0;
  while (auto h = sim.runtime.PollRevHint(sim.rev_q)) {
    if (h->w[0] == ArbiterSched::kGrantCore) {
      ++grants;
    }
  }
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Arbiter, YieldingActivationIsRequeuedOnItsCore) {
  ArbiterSim sim;
  auto yields = std::make_shared<int>(0);
  Task* act = sim.core.CreateTask("act", MakeFnBody([yields](SimContext&) -> Action {
                                    if (*yields == 20) {
                                      return Action::Exit();
                                    }
                                    ++*yields;
                                    return Action::Yield();
                                  }),
                                  sim.policy);
  sim.Bind(act->pid());
  sim.Request(1);
  sim.core.Start();
  // Each yield hands the arbiter the activation's token back; a token it
  // dropped would leave the activation queued and unpicked for good.
  EXPECT_TRUE(sim.core.RunUntilAllExit(Milliseconds(20)));
  EXPECT_EQ(*yields, 20);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Arbiter, ReclaimReleasesOnBlock) {
  ArbiterSim sim;
  auto park = std::make_shared<WaitQueue>("park");
  auto should_park = std::make_shared<bool>(false);
  Task* act = sim.core.CreateTask("act", MakeFnBody([park, should_park](SimContext&) -> Action {
                                    if (*should_park) {
                                      *should_park = false;
                                      return Action::Block(park.get());
                                    }
                                    return Action::Compute(Microseconds(100));
                                  }),
                                  sim.policy);
  sim.Bind(act->pid());
  sim.Request(1);
  sim.core.Start();
  sim.core.RunFor(Milliseconds(5));
  EXPECT_EQ(sim.module()->granted_cores(1), 1u);

  // Now request zero cores; the arbiter asks for the core back; the
  // activation parks at its next check; the core returns to the free pool.
  sim.Request(0);
  sim.core.loop().ScheduleAfter(Milliseconds(2), [&] { *should_park = true; });
  sim.core.RunFor(Milliseconds(10));
  EXPECT_EQ(sim.module()->granted_cores(1), 0u);
  EXPECT_EQ(sim.module()->free_cores(), 7u);
}

TEST(Arbiter, DepartedQueuedActivationReturnsItsTokenOnce) {
  ArbiterSim sim;
  Recorder recorder(1024);
  sim.runtime.SetRecorder(&recorder);
  // Bound but never granted a core: the activation waits queued, unpicked,
  // and the arbiter holds its token.
  Task* act = sim.core.CreateTask(
      "act", std::make_unique<CpuBoundBody>(Milliseconds(1), Microseconds(100)), sim.policy);
  sim.Bind(act->pid());
  sim.core.Start();
  sim.core.RunFor(Milliseconds(1));
  ASSERT_EQ(act->state(), TaskState::kRunnable);
  EXPECT_EQ(sim.runtime.QueuedCount(act->cpu()), 1u);

  sim.core.SetTaskPolicy(act, sim.cfs_policy);
  recorder.Drain();
  int departures = 0;
  for (const RecordEntry& e : recorder.log()) {
    if (e.type == RecordType::kTaskDeparted) {
      ++departures;
      EXPECT_EQ(e.resp0, act->pid());  // the token handed back names the task
    }
  }
  EXPECT_EQ(departures, 1);
  // The token went back once: a second departure finds nothing to return.
  EXPECT_FALSE(sim.module()->TaskDeparted(TaskMessage{.pid = act->pid()}).has_value());
  EXPECT_TRUE(sim.core.RunUntilAllExit(Milliseconds(20)));
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Arbiter, DeadActivationLeavesNoGrant) {
  ArbiterSim sim;
  Task* brief = sim.core.CreateTask(
      "brief", std::make_unique<CpuBoundBody>(Microseconds(500), Microseconds(100)), sim.policy);
  Task* steady = sim.core.CreateTask(
      "steady", std::make_unique<CpuBoundBody>(Milliseconds(50), Microseconds(100)), sim.policy);
  sim.Bind(brief->pid());
  sim.Bind(steady->pid());
  sim.Request(2);
  sim.core.Start();
  sim.core.RunFor(Microseconds(200));
  EXPECT_EQ(sim.module()->granted_cores(1), 2u);
  sim.core.RunFor(Milliseconds(5));
  ASSERT_EQ(brief->state(), TaskState::kDead);
  // The dead activation's core went back to the pool, and asking again
  // cannot grant a core to the dead pid.
  EXPECT_EQ(sim.module()->granted_cores(1), 1u);
  EXPECT_EQ(sim.module()->free_cores(), 6u);
  sim.Request(2);
  sim.core.RunFor(Milliseconds(1));
  EXPECT_EQ(sim.module()->granted_cores(1), 1u);
  EXPECT_EQ(sim.module()->free_cores(), 6u);
  EXPECT_EQ(sim.core.pick_errors(), 0u);
}

TEST(Arbiter, DepartedActivationLeavesNoGrant) {
  ArbiterSim sim;
  Task* act = sim.core.CreateTask(
      "act", std::make_unique<CpuBoundBody>(Milliseconds(5), Microseconds(100)), sim.policy);
  sim.Bind(act->pid());
  sim.core.Start();
  sim.core.RunFor(Microseconds(200));
  // The activation leaves the arbiter before its app asks for a core: the
  // request must find no activation to grant one to.
  sim.core.SetTaskPolicy(act, sim.cfs_policy);
  sim.Request(1);
  sim.core.RunFor(Milliseconds(1));
  EXPECT_EQ(sim.module()->granted_cores(1), 0u);
  EXPECT_EQ(sim.module()->free_cores(), 7u);
  EXPECT_TRUE(sim.core.RunUntilAllExit(Milliseconds(20)));
}

TEST(Arbiter, BalanceErrRekicksTheGrantedCoreUntilThePullSucceeds) {
  ArbiterSim sim;
  // The activation may only run on CPU 2 but is granted core 1, so every
  // pull core 1's balance offers is refused. Each refusal reaches BalanceErr,
  // which kicks core 1 again; once the affinity allows core 1 the next retry
  // migrates the activation there.
  const CpuMask only2 = CpuMask::Single(2);
  Task* act = sim.core.CreateTaskOn(
      "act", std::make_unique<CpuBoundBody>(Milliseconds(2), Microseconds(100)), sim.policy, 0,
      only2);
  sim.Bind(act->pid());
  sim.Request(1);
  sim.core.Start();
  sim.core.RunFor(Milliseconds(1));
  EXPECT_EQ(act->state(), TaskState::kRunnable);
  EXPECT_EQ(act->cpu(), 2);
  const uint64_t refused = sim.runtime.balance_errors();
  EXPECT_GT(refused, 1u);  // the first refusal was retried
  CpuMask both = only2;
  both.Set(1);
  sim.core.SetTaskAffinity(act, both);
  EXPECT_TRUE(sim.core.RunUntilAllExit(Milliseconds(10)));
  EXPECT_EQ(act->cpu(), 1);
  EXPECT_LE(sim.runtime.balance_errors(), refused + 1);
}

// ---- ghOSt ----

struct GhostSim {
  explicit GhostSim(GhostClass::Mode mode, int agent_cpu = 7)
      : core(MachineSpec::OneSocket8(), SimCosts{}),
        ghost(mode, mode == GhostClass::Mode::kPerCpuFifo ? CpuMask::All(8) : CpuMask::All(7)) {
    agent_policy = core.RegisterClass(&agents);
    ghost_policy = core.RegisterClass(&ghost);
    core.RegisterClass(&cfs);
    ghost.SpawnAgents(agent_policy, agent_cpu);
  }
  SchedCore core;
  AgentClass agents;
  GhostClass ghost;
  CfsClass cfs;
  int agent_policy = 0;
  int ghost_policy = 0;
};

TEST(Ghost, PerCpuFifoRunsTasks) {
  GhostSim sim(GhostClass::Mode::kPerCpuFifo);
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(sim.core.CreateTask(
        "t", std::make_unique<CpuBoundBody>(Milliseconds(3), Milliseconds(1)), sim.ghost_policy));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead(tasks, sim.core.now() + Seconds(5)));
  EXPECT_GT(sim.ghost.commits(), 0u);
  EXPECT_GT(sim.ghost.messages(), 0u);
}

TEST(Ghost, SolRunsTasksFromDedicatedAgent) {
  GhostSim sim(GhostClass::Mode::kSol);
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(sim.core.CreateTask(
        "t", std::make_unique<CpuBoundBody>(Milliseconds(3), Milliseconds(1)), sim.ghost_policy));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead(tasks, sim.core.now() + Seconds(5)));
  // The agent occupies core 7 continuously.
  Task* agent = sim.core.CurrentOn(7);
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->name(), "ghost-agent-global");
}

TEST(Ghost, ShinjukuModePreemptsLongTasks) {
  GhostSim sim(GhostClass::Mode::kShinjuku);
  CpuMask one = CpuMask::Single(1);
  sim.core.CreateTaskOn("long", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(10)),
                        sim.ghost_policy, 0, one);
  auto state = std::make_shared<int>(0);
  auto done = std::make_shared<Time>(0);
  Task* short_task = sim.core.CreateTaskOn(
      "short", MakeFnBody([state, done](SimContext& ctx) -> Action {
        if (*state == 0) {
          *state = 1;
          return Action::Compute(Microseconds(5));
        }
        *done = ctx.now();
        return Action::Exit();
      }),
      sim.ghost_policy, 0, one);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead({short_task}, sim.core.now() + Seconds(5)));
  // Preempted within a few 10us slices plus agent latency, far below 10ms.
  EXPECT_LT(*done, Milliseconds(1));
}

TEST(Ghost, CedesIdleCpusToCfs) {
  // A CFS batch task shares the machine: when ghost has nothing runnable,
  // CFS runs.
  GhostSim sim(GhostClass::Mode::kSol);
  Task* batch = sim.core.CreateTask("batch", std::make_unique<CpuBoundBody>(Milliseconds(20), Milliseconds(1)),
                                    2 /* cfs policy */);
  std::vector<Task*> tasks{batch};
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilTasksDead(tasks, sim.core.now() + Seconds(5)));
  EXPECT_GE(batch->total_runtime(), Milliseconds(20));
}

}  // namespace
}  // namespace enoki

// Tests for the simulated kernel: task lifecycle, wake/block semantics,
// preemption, cost charging, idle-exit latencies, and scheduling-class
// dispatch — using a minimal native FIFO class to isolate the core from any
// real scheduler policy.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/multitenant.h"

namespace enoki {
namespace {

// Minimal native scheduling class: per-CPU FIFO, no balancing.
class TestFifoClass : public SchedClass {
 public:
  const char* name() const override { return "test_fifo"; }
  void Attach(SchedCore* core) override {
    SchedClass::Attach(core);
    queues_.resize(static_cast<size_t>(core->ncpus()));
  }
  int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) override {
    if (is_new) {
      next_ = (next_ + 1) % core_->ncpus();
      for (int i = 0; i < core_->ncpus(); ++i) {
        const int c = (next_ + i) % core_->ncpus();
        if (t->affinity().Test(c)) {
          return c;
        }
      }
    }
    return t->affinity().Test(prev_cpu) ? prev_cpu : t->affinity().First();
  }
  void EnqueueTask(int cpu, Task* t, bool wakeup) override { queues_[cpu].push_back(t); }
  void DequeueTask(int cpu, Task* t, DequeueReason reason) override {
    for (auto& q : queues_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == t) {
          q.erase(it);
          return;
        }
      }
    }
  }
  Task* PickNextTask(int cpu) override {
    if (queues_[cpu].empty()) {
      return nullptr;
    }
    Task* t = queues_[cpu].front();
    queues_[cpu].pop_front();
    return t;
  }
  void TaskPreempted(int cpu, Task* t) override { queues_[cpu].push_back(t); }
  void TaskYielded(int cpu, Task* t) override { queues_[cpu].push_back(t); }
  void TaskTick(int cpu, Task* t) override {
    if (!queues_[cpu].empty()) {
      core_->SetNeedResched(cpu);  // round robin at tick
    }
  }

  size_t depth(int cpu) const { return queues_[cpu].size(); }

 private:
  std::vector<std::deque<Task*>> queues_;
  int next_ = -1;
};

struct Sim {
  explicit Sim(MachineSpec spec = MachineSpec::OneSocket8(), SimCosts costs = SimCosts{})
      : core(spec, costs) {
    core.RegisterClass(&fifo);
  }
  SchedCore core;
  TestFifoClass fifo;
};

TEST(SimKernel, TaskRunsAndExits) {
  Sim sim;
  Task* t = sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(5), Milliseconds(1)), 0);
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_EQ(t->state(), TaskState::kDead);
  EXPECT_GE(t->total_runtime(), Milliseconds(5));
}

TEST(SimKernel, RuntimeAccountingMatchesWork) {
  Sim sim;
  Task* t = sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(10), Milliseconds(1)), 0);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  // Runtime covers the compute; action processing adds nothing here.
  EXPECT_GE(t->total_runtime(), Milliseconds(10));
  EXPECT_LE(t->total_runtime(), Milliseconds(11));
}

TEST(SimKernel, NewTasksSpreadAcrossCpus) {
  Sim sim;
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(sim.core.CreateTask(
        "t", std::make_unique<CpuBoundBody>(Milliseconds(2), Milliseconds(1)), 0));
  }
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  // With one task per CPU all should finish at roughly the same time.
  for (Task* t : tasks) {
    EXPECT_GE(t->total_runtime(), Milliseconds(2));
  }
  EXPECT_LE(ToSeconds(sim.core.now()), 0.01);
}

TEST(SimKernel, BlockAndWakeRoundTrip) {
  Sim sim;
  WaitQueue wq("test");
  auto steps = std::make_shared<int>(0);
  sim.core.CreateTask("sleeper", MakeFnBody([&wq, steps](SimContext&) -> Action {
                        if (*steps == 0) {
                          *steps = 1;
                          return Action::Block(&wq);
                        }
                        return Action::Exit();
                      }),
                      0);
  sim.core.CreateTask("waker", MakeFnBody([&wq](SimContext&) -> Action {
                        static int s = 0;
                        if (s == 0) {
                          s = 1;
                          return Action::Compute(Microseconds(50));
                        }
                        if (s == 1) {
                          s = 2;
                          return Action::Wake(&wq);
                        }
                        return Action::Exit();
                      }),
                      0);
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
}

TEST(SimKernel, CountingSignalsPreventLostWakeups) {
  Sim sim;
  WaitQueue wq("test");
  // Waker signals before sleeper ever blocks: the signal must be consumed.
  auto wsteps = std::make_shared<int>(0);
  sim.core.CreateTask("waker", MakeFnBody([&wq, wsteps](SimContext&) -> Action {
                        if (*wsteps == 0) {
                          *wsteps = 1;
                          return Action::Wake(&wq);
                        }
                        return Action::Exit();
                      }),
                      0);
  auto ssteps = std::make_shared<int>(0);
  sim.core.CreateTask("sleeper", MakeFnBody([&wq, ssteps](SimContext&) -> Action {
                        if (*ssteps == 0) {
                          *ssteps = 1;
                          return Action::Compute(Milliseconds(1));  // arrive late
                        }
                        if (*ssteps == 1) {
                          *ssteps = 2;
                          return Action::Block(&wq);  // consumes pending signal
                        }
                        return Action::Exit();
                      }),
                      0);
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
}

TEST(SimKernel, SleepWakesAfterDuration) {
  Sim sim;
  auto woke_at = std::make_shared<Time>(0);
  auto steps = std::make_shared<int>(0);
  sim.core.CreateTask("t", MakeFnBody([steps, woke_at](SimContext& ctx) -> Action {
                        if (*steps == 0) {
                          *steps = 1;
                          return Action::Sleep(Milliseconds(3));
                        }
                        *woke_at = ctx.now();
                        return Action::Exit();
                      }),
                      0);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_GE(*woke_at, Milliseconds(3));
  EXPECT_LE(*woke_at, Milliseconds(4));
}

TEST(SimKernel, TickPreemptsWithRoundRobin) {
  // Two CPU-bound tasks pinned to one core share it via tick preemption.
  Sim sim;
  Task* a = sim.core.CreateTaskOn("a", std::make_unique<CpuBoundBody>(Milliseconds(20), Milliseconds(10)), 0,
                                  0, CpuMask::Single(0));
  Task* b = sim.core.CreateTaskOn("b", std::make_unique<CpuBoundBody>(Milliseconds(20), Milliseconds(10)), 0,
                                  0, CpuMask::Single(0));
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(10)));
  // Both ran for 20ms on a shared core: elapsed ~40ms, and neither task
  // finished before the other had started (interleaving).
  EXPECT_GE(sim.core.now(), Milliseconds(40));
  EXPECT_GT(a->switch_in_count(), 1u);
  EXPECT_GT(b->switch_in_count(), 1u);
}

TEST(SimKernel, WakeLatencyRecorded) {
  Sim sim;
  auto steps = std::make_shared<int>(0);
  sim.core.CreateTask("t", MakeFnBody([steps](SimContext&) -> Action {
                        if (*steps == 0) {
                          *steps = 1;
                          return Action::Sleep(Milliseconds(1));
                        }
                        return Action::Exit();
                      }),
                      0);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  // New-task dispatch + post-sleep dispatch.
  EXPECT_GE(sim.core.wake_latency().count(), 2u);
}

TEST(SimKernel, WakeLatencyHookFires) {
  Sim sim;
  int hook_calls = 0;
  sim.core.set_wake_latency_hook([&](Task*, Duration) { ++hook_calls; });
  sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Microseconds(10), Microseconds(10)), 0);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_GE(hook_calls, 1);
}

TEST(SimKernel, DeepIdleExitSlowerThanShallow) {
  SimCosts costs;
  // Measure wakeup latency after a short vs long idle period.
  auto measure = [&](Duration idle_gap) {
    Sim sim(MachineSpec::OneSocket8(), costs);
    auto steps = std::make_shared<int>(0);
    sim.core.CreateTaskOn("t", MakeFnBody([steps, idle_gap](SimContext&) -> Action {
                            if (*steps == 0) {
                              *steps = 1;
                              return Action::Sleep(idle_gap);
                            }
                            return Action::Exit();
                          }),
                          0, 0, CpuMask::Single(3));
    sim.core.Start();
    LatencyRecorder& rec = sim.core.mutable_wake_latency();
    rec.Reset();
    EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(2)));
    return sim.core.wake_latency().max();
  };
  const Duration shallow = measure(Microseconds(5));
  const Duration deep = measure(Milliseconds(5));
  EXPECT_GT(deep, shallow + costs.deep_idle_exit_ns / 2);
}

TEST(SimKernel, AffinityRespectedOnWake) {
  Sim sim;
  Task* t = sim.core.CreateTaskOn("t", std::make_unique<CpuBoundBody>(Milliseconds(2), Microseconds(100)),
                                  0, 0, CpuMask::Single(5));
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_EQ(t->cpu(), 5);
}

TEST(SimKernel, SetNiceAndAffinityValidate) {
  Sim sim;
  Task* t = sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(1), Milliseconds(1)), 0);
  sim.core.SetTaskNice(t, 10);
  EXPECT_EQ(t->nice(), 10);
  sim.core.SetTaskAffinity(t, CpuMask::All(4));
  EXPECT_EQ(t->affinity().Count(), 4);
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
}

TEST(SimKernel, YieldRotatesTasks) {
  Sim sim;
  std::vector<int> order;
  auto make_body = [&order](int id, std::shared_ptr<int> left) {
    return MakeFnBody([&order, id, left](SimContext&) -> Action {
      if (*left == 0) {
        return Action::Exit();
      }
      --*left;
      order.push_back(id);
      return Action::Yield();
    });
  };
  sim.core.CreateTaskOn("a", make_body(1, std::make_shared<int>(3)), 0, 0, CpuMask::Single(0));
  sim.core.CreateTaskOn("b", make_body(2, std::make_shared<int>(3)), 0, 0, CpuMask::Single(0));
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  // FIFO + yield alternates the two tasks.
  ASSERT_GE(order.size(), 4u);
  EXPECT_NE(order[0], order[1]);
  EXPECT_NE(order[1], order[2]);
}

TEST(SimKernel, ContextSwitchesCounted) {
  Sim sim;
  sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(1), Milliseconds(1)), 0);
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_GE(sim.core.context_switches(), 1u);
}

TEST(SimKernel, ChargeDelaysDispatch) {
  // A large pending charge on a CPU delays the next task's start.
  SimCosts costs;
  Sim sim(MachineSpec::OneSocket8(), costs);
  sim.core.ChargeCpu(0, Microseconds(500));
  Task* t = sim.core.CreateTaskOn("t", std::make_unique<CpuBoundBody>(Microseconds(1), Microseconds(1)),
                                  0, 0, CpuMask::Single(0));
  sim.core.Start();
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
  EXPECT_GE(sim.core.wake_latency().max(), Microseconds(500));
  EXPECT_EQ(t->state(), TaskState::kDead);
}

TEST(SimKernel, RunUntilTasksDeadIgnoresDaemons) {
  Sim sim;
  // A daemon that never exits.
  sim.core.CreateTask("daemon", std::make_unique<SpinForeverBody>(Milliseconds(1)), 0);
  Task* worker =
      sim.core.CreateTask("worker", std::make_unique<CpuBoundBody>(Milliseconds(2), Milliseconds(1)), 0);
  sim.core.Start();
  EXPECT_TRUE(sim.core.RunUntilTasksDead({worker}, sim.core.now() + Seconds(1)));
  EXPECT_EQ(worker->state(), TaskState::kDead);
  EXPECT_EQ(sim.core.live_task_count(), 1u);
}

TEST(SimKernel, TwoSocketTopology) {
  SchedCore core(MachineSpec::TwoSocket80(), SimCosts{});
  EXPECT_EQ(core.ncpus(), 80);
  EXPECT_EQ(core.NodeOf(0), 0);
  EXPECT_EQ(core.NodeOf(39), 0);
  EXPECT_EQ(core.NodeOf(40), 1);
  EXPECT_EQ(core.NodeOf(79), 1);
}

TEST(SimKernel, BothConstructorsCheckTheNodeMapSize) {
  MachineSpec spec{4, 2, "4 cores"};
  spec.node_of = {0, 0, 1};  // three entries for four CPUs
  EXPECT_DEATH({ SchedCore core(spec, SimCosts{}); }, "node_of");
  EventLoop loop;
  EXPECT_DEATH({ SchedCore core(spec, SimCosts{}, &loop); }, "node_of");
  spec.node_of.push_back(1);  // one entry per CPU is accepted
  SchedCore core(spec, SimCosts{});
  EXPECT_EQ(core.NodeOf(2), 1);
}

TEST(SimKernel, BothConstructorsCheckTheCpuCount) {
  // The per-CPU state is sized after the checks, so a negative count fails
  // the check with its message instead of throwing from the vector.
  MachineSpec spec{-1, 1, "negative"};
  EXPECT_DEATH({ SchedCore core(spec, SimCosts{}); }, "ncpus > 0");
  EventLoop loop;
  EXPECT_DEATH({ SchedCore core(spec, SimCosts{}, &loop); }, "ncpus > 0");
}

TEST(SimKernel, FindTaskByPid) {
  Sim sim;
  Task* t = sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Microseconds(1), Microseconds(1)), 0);
  EXPECT_EQ(sim.core.FindTask(t->pid()), t);
  EXPECT_EQ(sim.core.FindTask(999999), nullptr);
}

TEST(SimKernel, DeterministicAcrossRuns) {
  auto run = [] {
    Sim sim;
    for (int i = 0; i < 10; ++i) {
      sim.core.CreateTask("t", std::make_unique<CpuBoundBody>(Milliseconds(3), Microseconds(250)), 0);
    }
    sim.core.Start();
    sim.core.RunUntilAllExit(Seconds(5));
    return sim.core.now();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace enoki

namespace enoki {
namespace {

TEST(SimKernel, AffinityChangeMigratesRunningTask) {
  Sim sim;
  Task* t = sim.core.CreateTaskOn("t", std::make_unique<CpuBoundBody>(Milliseconds(20), Milliseconds(20)),
                                  0, 0, CpuMask::Single(2));
  sim.core.Start();
  sim.core.RunFor(Milliseconds(5));
  ASSERT_EQ(t->state(), TaskState::kRunning);
  ASSERT_EQ(t->cpu(), 2);
  // Restrict to CPU 5 while running: the task must be forced off CPU 2.
  sim.core.SetTaskAffinity(t, CpuMask::Single(5));
  sim.core.RunFor(Milliseconds(1));
  EXPECT_EQ(t->cpu(), 5);
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
}

TEST(SimKernel, SameArrivalIpisCoalesce) {
  // Two kicks to the same busy CPU from the same source at the same instant
  // must schedule one resched event, not two (batched wakeup delivery).
  Sim sim;
  sim.core.CreateTaskOn("spin", std::make_unique<SpinForeverBody>(Milliseconds(10)), 0, 0,
                        CpuMask::Single(0));
  sim.core.Start();
  sim.core.RunFor(Microseconds(50));  // task now current on CPU 0
  const uint64_t before = sim.core.loop().events_executed();
  sim.core.KickCpu(0, /*from_cpu=*/1);
  sim.core.KickCpu(0, /*from_cpu=*/1);
  sim.core.KickCpu(0, /*from_cpu=*/1);
  EXPECT_EQ(sim.core.coalesced_ipis(), 2u);
  sim.core.RunFor(Microseconds(50));
  // Exactly one IPI delivery event ran for the three kicks (plus whatever
  // the preemption itself schedules — count only up to the arrival).
  EXPECT_GE(sim.core.loop().events_executed(), before + 1);
}

TEST(SimKernel, DistinctArrivalIpisNotCoalesced) {
  // Kicks with different in-flight arrival times (local vs remote) are
  // distinct IPIs and must not be merged.
  Sim sim;
  sim.core.CreateTaskOn("spin", std::make_unique<SpinForeverBody>(Milliseconds(10)), 0, 0,
                        CpuMask::Single(0));
  sim.core.Start();
  sim.core.RunFor(Microseconds(50));
  sim.core.KickCpu(0, /*from_cpu=*/1);   // remote: +ipi_ns
  sim.core.KickCpu(0, /*from_cpu=*/0);   // local: immediate
  EXPECT_EQ(sim.core.coalesced_ipis(), 0u);
}

TEST(SimKernel, ShardSpecSplitsMachineEvenly) {
  const MachineSpec m = MachineSpec::EightNode256();
  EXPECT_EQ(m.ncpus, 256);
  EXPECT_EQ(m.nodes, 8);
  const MachineSpec s = m.ShardSpec(3, 8);
  EXPECT_EQ(s.ncpus, 32);
  EXPECT_EQ(s.nodes, 1);
  const MachineSpec quad = MachineSpec::FourNode128().ShardSpec(0, 4);
  EXPECT_EQ(quad.ncpus, 32);
  EXPECT_EQ(quad.nodes, 1);
}

// The tentpole determinism contract: the multitenant workload on a sharded
// engine produces byte-identical fingerprints for any host thread count,
// across a seed sweep, with every configuration run twice (double-run) to
// also catch state leaking between runs through globals.
TEST(SimKernel, ShardedDeterminismSweepAcrossSeedsAndThreads) {
  // Small 4-node box so 100 seeds x {1,2,4} threads stays fast; the large
  // configs run in sharded_scale_test (ctest label "large").
  const MachineSpec machine{16, 4, "4-node mini (4x4)"};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    MultitenantConfig cfg;
    cfg.machine = machine;
    cfg.nshards = 4;
    cfg.tenants_per_group = 2;
    cfg.rate_per_tenant = 20'000.0;
    cfg.workers_per_group = 3;
    cfg.warmup = Microseconds(200);
    cfg.runtime = Milliseconds(2);
    cfg.seed = seed;

    cfg.shard_threads = 1;
    const MultitenantResult base = RunMultitenant(cfg);
    ASSERT_GT(base.events, 0u) << "seed " << seed;
    for (int threads : {1, 2, 4}) {
      cfg.shard_threads = threads;
      const MultitenantResult r = RunMultitenant(cfg);
      ASSERT_EQ(r.fingerprint, base.fingerprint) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.completed, base.completed) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.events, base.events) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.cross_messages, base.cross_messages)
          << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.p99, base.p99) << "seed " << seed << " threads " << threads;
    }
  }
}

// The same sweep with the epoch controller live: adaptive mode consumes only
// committed state, so the widen/narrow schedule — folded into the fingerprint
// along with the final window — must be identical across thread counts too.
TEST(SimKernel, AdaptiveShardedDeterminismSweepAcrossSeedsAndThreads) {
  const MachineSpec machine{16, 4, "4-node mini (4x4)"};
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    MultitenantConfig cfg;
    cfg.machine = machine;
    cfg.nshards = 4;
    cfg.tenants_per_group = 2;
    cfg.rate_per_tenant = 20'000.0;
    cfg.workers_per_group = 3;
    cfg.warmup = Microseconds(200);
    cfg.runtime = Milliseconds(2);
    cfg.seed = seed;
    cfg.adaptive_epochs = true;
    cfg.remote_latency = Microseconds(100);  // widening headroom above 20us

    cfg.shard_threads = 1;
    const MultitenantResult base = RunMultitenant(cfg);
    ASSERT_GT(base.events, 0u) << "seed " << seed;
    for (int threads : {1, 2, 4}) {
      cfg.shard_threads = threads;
      const MultitenantResult r = RunMultitenant(cfg);
      ASSERT_EQ(r.fingerprint, base.fingerprint) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.completed, base.completed) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.events, base.events) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.epochs, base.epochs) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.widens, base.widens) << "seed " << seed << " threads " << threads;
      ASSERT_EQ(r.final_window_ns, base.final_window_ns)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// perfbench's mt256_cfs shape, cut short: 8 node shards on 4 host threads
// with adaptive epochs. Small enough for the thread-sanitizer job, which
// runs this binary, to cover the engine's barrier and parity buffers at the
// shard-to-thread ratio the benchmark uses.
TEST(SimKernel, EightShardsOnFourThreadsAdaptiveMatchesSerial) {
  MultitenantConfig cfg;
  cfg.machine = MachineSpec::EightNode256();
  cfg.nshards = 8;
  cfg.adaptive_epochs = true;
  cfg.tenants_per_group = 4;
  cfg.rate_per_tenant = 20'000.0;
  cfg.workers_per_group = 8;
  cfg.remote_fraction = 0.2;
  cfg.warmup = Microseconds(500);
  cfg.runtime = Milliseconds(2);
  cfg.shard_threads = 1;
  const MultitenantResult serial = RunMultitenant(cfg);
  ASSERT_GT(serial.cross_messages, 0u);
  ASSERT_GT(serial.widens, 0u);
  cfg.shard_threads = 4;
  const MultitenantResult parallel = RunMultitenant(cfg);
  EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
  EXPECT_EQ(parallel.events, serial.events);
  EXPECT_EQ(parallel.cross_messages, serial.cross_messages);
  EXPECT_EQ(parallel.epochs, serial.epochs);
  EXPECT_EQ(parallel.final_window_ns, serial.final_window_ns);
}

// What one multitenant run computed, read through public accessors only:
// the counts, the latency percentiles, every shard core's fingerprint and
// the merge order. Unlike MultitenantResult::fingerprint it leaves out the
// epoch schedule (epochs, idle leaps, controller decisions, final window).
std::vector<uint64_t> SimulationDigest(const MultitenantConfig& cfg) {
  MultitenantSim sim(cfg);
  const MultitenantResult r = sim.Run();
  std::vector<uint64_t> d = {r.completed, r.handoffs, r.cross_messages, r.events,
                             r.p50,       r.p99};
  for (int i = 0; i < sim.ncores(); ++i) {
    d.push_back(sim.core(i).Fingerprint());
  }
  d.push_back(sim.engine().MergeFingerprint());
  return d;
}

// The simulation does not depend on the epoch schedule: with one fixed
// cross-node latency, every static window up to that latency, adaptive
// epochs and any host thread count compute the same digest, under Poisson
// and heavy-tailed arrivals alike.
TEST(SimKernel, ShardedDigestIndependentOfEpochSchedule) {
  const MachineSpec machine{16, 4, "4-node mini (4x4)"};
  for (ArrivalDist arrival : {ArrivalDist::kPoisson, ArrivalDist::kPareto}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      MultitenantConfig cfg;
      cfg.machine = machine;
      cfg.nshards = 4;
      cfg.tenants_per_group = 2;
      cfg.rate_per_tenant = 20'000.0;
      cfg.workers_per_group = 3;
      cfg.remote_fraction = 0.2;
      cfg.remote_latency = Microseconds(100);
      cfg.arrival = arrival;
      cfg.warmup = Microseconds(200);
      cfg.runtime = Milliseconds(2);
      cfg.seed = seed;
      cfg.shard_threads = 1;
      const std::vector<uint64_t> base = SimulationDigest(cfg);
      ASSERT_GT(base[1], 0u) << "seed " << seed << ": no handoffs";
      for (int threads : {1, 4}) {
        cfg.shard_threads = threads;
        for (int window_us : {5, 10, 20, 50, 100}) {
          cfg.epoch_ns = Microseconds(window_us);
          ASSERT_EQ(SimulationDigest(cfg), base)
              << "seed " << seed << " threads " << threads << " window " << window_us << "us";
        }
        cfg.epoch_ns = Microseconds(20);
        cfg.adaptive_epochs = true;
        ASSERT_EQ(SimulationDigest(cfg), base)
            << "seed " << seed << " threads " << threads << " adaptive";
        cfg.adaptive_epochs = false;
      }
    }
  }
}

// Heavy-tailed arrivals must preserve the determinism contract and the
// long-run rate: Pareto and log-normal gaps are mean-matched to the Poisson
// configuration, so completed counts stay within burstiness slack.
TEST(SimKernel, HeavyTailArrivalsDeterministicAndMeanMatched) {
  const MachineSpec machine{16, 4, "4-node mini (4x4)"};
  MultitenantConfig cfg;
  cfg.machine = machine;
  cfg.nshards = 4;
  cfg.tenants_per_group = 2;
  cfg.rate_per_tenant = 20'000.0;
  cfg.workers_per_group = 3;
  cfg.warmup = Milliseconds(1);
  cfg.runtime = Milliseconds(20);
  cfg.seed = 9;
  cfg.arrival = ArrivalDist::kPoisson;
  const MultitenantResult poisson = RunMultitenant(cfg);
  ASSERT_GT(poisson.completed, 0u);
  for (ArrivalDist dist : {ArrivalDist::kPareto, ArrivalDist::kLogNormal}) {
    cfg.arrival = dist;
    cfg.shard_threads = 1;
    const MultitenantResult t1 = RunMultitenant(cfg);
    cfg.shard_threads = 4;
    const MultitenantResult t4 = RunMultitenant(cfg);
    EXPECT_EQ(t1.fingerprint, t4.fingerprint);
    EXPECT_EQ(t1.completed, t4.completed);
    // Mean-matched: same long-run arrival rate despite the heavier tail.
    const double ratio =
        static_cast<double>(t1.completed) / static_cast<double>(poisson.completed);
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.3);
  }
}

TEST(SimKernel, ShardedAndUnshardedAgreeOnThroughput) {
  // nshards=1 and nshards=nodes simulate the same logical system; completed
  // counts agree to within boundary-request slack.
  const MachineSpec machine{16, 4, "4-node mini (4x4)"};
  MultitenantConfig cfg;
  cfg.machine = machine;
  cfg.tenants_per_group = 2;
  cfg.rate_per_tenant = 20'000.0;
  cfg.workers_per_group = 3;
  cfg.warmup = Microseconds(200);
  cfg.runtime = Milliseconds(10);
  cfg.seed = 5;
  cfg.nshards = 4;
  const MultitenantResult sharded = RunMultitenant(cfg);
  cfg.nshards = 1;
  const MultitenantResult flat = RunMultitenant(cfg);
  ASSERT_GT(sharded.completed, 0u);
  ASSERT_GT(flat.completed, 0u);
  EXPECT_GT(sharded.cross_messages, 0u);
  EXPECT_EQ(flat.cross_messages, 0u);  // self-posts skip the mailboxes
  const double ratio =
      static_cast<double>(sharded.completed) / static_cast<double>(flat.completed);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(SimKernel, FingerprintSensitiveToState) {
  // Sanity for the determinism sweeps: the fingerprint must actually change
  // when the simulation does.
  MultitenantConfig cfg;
  cfg.machine = MachineSpec{16, 4, "4-node mini (4x4)"};
  cfg.nshards = 4;
  cfg.tenants_per_group = 2;
  cfg.workers_per_group = 3;
  cfg.warmup = Microseconds(200);
  cfg.runtime = Milliseconds(2);
  cfg.seed = 1;
  const MultitenantResult a = RunMultitenant(cfg);
  cfg.seed = 2;
  const MultitenantResult b = RunMultitenant(cfg);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// A kick of an idle CPU pays the idle-exit latency, plus the IPI when it
// comes from another CPU. The kick stays pending for exactly that long.
TEST(SimKernel, KickOfIdleCpuPaysIpiOnlyFromAnotherCpu) {
  const SimCosts costs;
  auto kick_latency = [&costs](int from_cpu) {
    Sim sim(MachineSpec::OneSocket8(), costs);
    sim.core.set_ticks_enabled(false);
    sim.core.Start();
    const Time t0 = Microseconds(1);  // idle since 0: shallow C-state
    sim.core.RunUntil(t0);
    sim.core.KickCpu(3, from_cpu);
    Duration lat = 0;
    while (sim.core.CpuKickPending(3) && lat < Milliseconds(1)) {
      sim.core.RunUntil(t0 + ++lat);
    }
    return lat;
  };
  EXPECT_EQ(kick_latency(/*from_cpu=*/3), costs.shallow_idle_exit_ns);
  EXPECT_EQ(kick_latency(/*from_cpu=*/5), costs.shallow_idle_exit_ns + costs.ipi_ns);
}

TEST(SimKernel, KickPendingVisibleDuringIdleExit) {
  // While a wakeup kick is in flight to an idle CPU, CpuKickPending reports
  // it (balancers rely on this to avoid double-dispatch).
  Sim sim;
  auto steps = std::make_shared<int>(0);
  Task* t = sim.core.CreateTaskOn("t", MakeFnBody([steps](SimContext&) -> Action {
                                    if (*steps == 0) {
                                      *steps = 1;
                                      return Action::Sleep(Milliseconds(1));
                                    }
                                    return Action::Exit();
                                  }),
                                  0, 0, CpuMask::Single(4));
  sim.core.Start();
  // Run just past the sleep expiry: the wake fires, the kick (deep idle
  // exit) is pending, the task not yet dispatched.
  sim.core.RunUntil(Milliseconds(1) + Microseconds(2));
  if (t->state() == TaskState::kRunnable) {
    EXPECT_TRUE(sim.core.CpuKickPending(4));
  }
  ASSERT_TRUE(sim.core.RunUntilAllExit(Seconds(1)));
}

}  // namespace
}  // namespace enoki

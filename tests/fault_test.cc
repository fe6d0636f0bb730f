// Tests for the fault-containment subsystem (src/fault): the FaultInjector
// decorator, the watchdog's trip policy, and the recovery ladder's quarantine +
// graceful-fallback path. The capstone is a 100-seed sweep throwing the full
// fault menu at WfqSched under the pipe workload: zero crashes, zero task
// loss, and bit-identical CrashReports for identical seeds.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/enoki/runtime.h"
#include "src/fault/injector.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/workloads/pipe.h"
#include "tests/call_scenario.h"
#include "tests/fault_stack.h"
#include "tests/sweep_digest.h"

namespace enoki {
namespace {

std::unique_ptr<FaultInjector> MakeInjectedWfq(FaultPlan plan,
                                               FaultInjector** out = nullptr) {
  auto inj = std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);
  if (out != nullptr) {
    *out = inj.get();
  }
  return inj;
}

// ---- FaultInjector ----

TEST(FaultInjector, TransparentAtZeroRates) {
  // A default FaultPlan injects nothing: the wrapped run must be identical
  // to the bare run, event for event.
  PipeBenchConfig cfg;
  cfg.messages = 200;

  FaultStack bare = MakeFaultStack(std::make_unique<WfqSched>(0));
  auto bare_result = RunPipeBench(*bare.core, bare.enoki_policy, cfg);
  ASSERT_TRUE(bare_result.completed);

  FaultInjector* inj = nullptr;
  FaultStack wrapped = MakeFaultStack(MakeInjectedWfq(FaultPlan{}, &inj));
  auto wrapped_result = RunPipeBench(*wrapped.core, wrapped.enoki_policy, cfg);
  ASSERT_TRUE(wrapped_result.completed);

  EXPECT_EQ(inj->counts().total(), 0u);
  EXPECT_EQ(bare_result.elapsed_ns, wrapped_result.elapsed_ns);
  EXPECT_EQ(bare.core->context_switches(), wrapped.core->context_switches());

  // A run through every module call type: the record logs must agree entry
  // for entry. Lock ids come from a process-wide counter, so lock entries
  // are compared by the order their locks first appear.
  const std::vector<RecordEntry> bare_log =
      RecordEveryCallRun([] { return std::make_unique<RecordStreamWfq>(); });
  const std::vector<RecordEntry> wrapped_log = RecordEveryCallRun([] {
    return std::make_unique<FaultInjector>(std::make_unique<RecordStreamWfq>(), FaultPlan{});
  });
  ASSERT_EQ(bare_log.size(), wrapped_log.size());
  std::set<RecordType> types;
  std::map<uint64_t, uint64_t> bare_locks;
  std::map<uint64_t, uint64_t> wrapped_locks;
  for (size_t i = 0; i < bare_log.size(); ++i) {
    const RecordEntry& a = bare_log[i];
    const RecordEntry& b = wrapped_log[i];
    types.insert(a.type);
    uint64_t a0 = a.arg[0];
    uint64_t b0 = b.arg[0];
    if (SpecOf(a.type).kind == CallKind::kLock) {
      a0 = bare_locks.emplace(a0, bare_locks.size()).first->second;
      b0 = wrapped_locks.emplace(b0, wrapped_locks.size()).first->second;
    }
    EXPECT_EQ(std::tie(a.seq, a.time, a.kthread, a.type, a.pid, a.cpu, a.runtime, a0, a.arg[1],
                       a.arg[2], a.arg[3], a.resp0, a.has_resp, a.flag),
              std::tie(b.seq, b.time, b.kthread, b.type, b.pid, b.cpu, b.runtime, b0, b.arg[1],
                       b.arg[2], b.arg[3], b.resp0, b.has_resp, b.flag))
        << "entry " << i;
  }
  for (RecordType t : {RecordType::kTaskYield, RecordType::kTaskDeparted,
                       RecordType::kAffinityChanged, RecordType::kPrioChanged,
                       RecordType::kParseHint}) {
    EXPECT_EQ(types.count(t), 1u) << RecordTypeName(t);
  }
}

TEST(FaultInjector, ForwardsThePolicyId) {
  FaultInjector inj(std::make_unique<WfqSched>(7), FaultPlan{});
  EXPECT_EQ(inj.GetPolicy(), 7);
}

TEST(FaultInjector, WithoutWatchdogInjectedThrowPropagates) {
  // Containment off: the pre-watchdog contract is that module exceptions
  // propagate out of the simulation.
  FaultPlan plan;
  plan.seed = 7;
  plan.throw_rate = 1.0;
  FaultStack s = MakeFaultStack(MakeInjectedWfq(plan));
  PipeBenchConfig cfg;
  cfg.messages = 10;
  EXPECT_THROW(RunPipeBench(*s.core, s.enoki_policy, cfg), InjectedFault);
}

// ---- Watchdog trips, one per fault kind ----

struct TripOutcome {
  bool completed = false;
  bool tripped = false;
  CrashReport report;
};

TripOutcome RunWithPlan(FaultPlan plan, WatchdogConfig cfg, uint64_t messages = 200) {
  FaultStack s = MakeFaultStack(MakeInjectedWfq(plan));
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  PipeBenchConfig pcfg;
  pcfg.messages = messages;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  TripOutcome out;
  out.completed = r.completed;
  out.tripped = s.runtime->quarantined();
  if (s.runtime->ladder().crash_report().has_value()) {
    out.report = *s.runtime->ladder().crash_report();
  }
  return out;
}

TEST(Watchdog, TripsOnEscapedException) {
  FaultPlan plan;
  plan.seed = 11;
  plan.throw_rate = 1.0;
  WatchdogConfig cfg;
  cfg.max_escaped_exceptions = 1;
  TripOutcome out = RunWithPlan(plan, cfg);
  EXPECT_TRUE(out.tripped);
  EXPECT_EQ(out.report.reason, TripReason::kEscapedException);
  EXPECT_GE(out.report.escaped_exceptions, 1u);
  // Zero task loss: both pipe tasks finish under the CFS fallback.
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.report.tasks_repolicied, 2u);
  EXPECT_GT(out.report.fallback_pause_ns, 0);
}

TEST(Watchdog, TripsOnCallbackBudget) {
  FaultPlan plan;
  plan.seed = 12;
  plan.busy_spin_rate = 1.0;
  plan.busy_spin_ns = Milliseconds(20);
  WatchdogConfig cfg;
  cfg.callback_budget_ns = Milliseconds(10);
  TripOutcome out = RunWithPlan(plan, cfg);
  EXPECT_TRUE(out.tripped);
  EXPECT_EQ(out.report.reason, TripReason::kCallbackBudget);
  EXPECT_TRUE(out.completed);
  // The over-budget call is visible in the latency aggregates.
  EXPECT_GE(out.report.callback_max_ns, Milliseconds(20));
}

TEST(Watchdog, RunLengthLatencyKeepsAggregatesExact) {
  CallLatency latency;
  LatencyRecorder reference;
  auto feed = [&](Duration ns, int times) {
    for (int i = 0; i < times; ++i) {
      reference.Record(ns);
      latency.Add(ns);
    }
  };
  auto expect_exact = [&] {
    CrashReport r;
    latency.Summarize(&r);
    EXPECT_EQ(r.callback_count, reference.count());
    EXPECT_EQ(r.callback_mean_ns, reference.mean_ns());
    EXPECT_EQ(r.callback_max_ns, reference.max());
    EXPECT_EQ(r.callback_p50_ns, reference.Percentile(50.0));
    EXPECT_EQ(r.callback_p99_ns, reference.Percentile(99.0));
  };

  feed(125, 400);
  feed(300, 3);
  feed(125, 50);
  // A summary read mid-run flushes it; the run then continues without being
  // counted twice.
  expect_exact();
  feed(125, 50);
  expect_exact();
  feed(1001, 1);
  feed(125, 7);
  feed(700, 2);
  feed(500, 4);
  expect_exact();
}

TEST(Watchdog, BudgetChecksEveryCallInAndOutOfProbation) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  WatchdogConfig cfg;
  cfg.callback_budget_ns = 1000;
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  RecoveryLadder& ladder = s.runtime->ladder();
  // Feeds `times` calls of `lat`, one run of the latency histogram; only the
  // last call of a run may trip.
  auto run = [&](Duration lat, int times) {
    const RecoveryLadder::SlotState before = ladder.slot_state();
    for (int i = 0; i < times; ++i) {
      ASSERT_EQ(ladder.slot_state(), before) << "tripped before the last call of the run";
      ladder.OnCallReturn("test", lat, false);
    }
  };

  // Runs at and under the budget pass.
  run(1000, 3);
  run(125, 50);
  run(700, 2);
  EXPECT_EQ(ladder.slot_state(), RecoveryLadder::SlotState::kActive);

  // An upgrade's probation keeps the same budget. Calls exactly at it pass,
  // any number in a row, and one nanosecond over trips on that very call,
  // which rolls the upgrade back.
  ASSERT_TRUE(s.runtime->Upgrade(std::make_unique<WfqSched>(0)).ok);
  ASSERT_TRUE(ladder.in_probation());
  run(1000, 4);
  EXPECT_EQ(ladder.slot_state(), RecoveryLadder::SlotState::kUpgradeProbation);
  run(1001, 1);
  EXPECT_EQ(ladder.slot_state(), RecoveryLadder::SlotState::kRollbackPending);
  ASSERT_TRUE(ladder.crash_report().has_value());
  EXPECT_EQ(ladder.crash_report()->reason, TripReason::kCallbackBudget);
  EXPECT_TRUE(ladder.crash_report()->during_probation);
  s.core->RunFor(Microseconds(10));
  ASSERT_EQ(ladder.slot_state(), RecoveryLadder::SlotState::kActive);
  EXPECT_EQ(ladder.rollbacks(), 1u);

  // Back on the predecessor, calls at the budget pass and one call over it
  // quarantines at once.
  run(1000, 3);
  EXPECT_FALSE(ladder.quarantined());
  run(1001, 1);
  EXPECT_TRUE(ladder.quarantined());
}

TEST(Watchdog, TripsOnRepeatedPickErrors) {
  // Every pick returns a stale-generation forgery; the injector's pnt_err
  // recovery keeps the task alive, so the error count is what trips.
  FaultPlan plan;
  plan.seed = 13;
  plan.stale_token_rate = 1.0;
  WatchdogConfig cfg;
  cfg.max_pick_errors = 4;
  cfg.starvation_bound_ns = Milliseconds(500);  // let pick errors trip first
  TripOutcome out = RunWithPlan(plan, cfg);
  EXPECT_TRUE(out.tripped);
  EXPECT_EQ(out.report.reason, TripReason::kPickErrors);
  EXPECT_GE(out.report.pick_errors, 4u);
  EXPECT_TRUE(out.completed);
}

// Offers a pid no CPU holds on every balance: a module bug, which the
// runtime's offer validation refuses each time.
class PhantomBalanceWfq : public WfqSched {
 public:
  PhantomBalanceWfq() : WfqSched(0) {}
  std::optional<uint64_t> Balance(int cpu) override { return 424242; }
};

TEST(Watchdog, TripsOnRepeatedBalanceErrors) {
  FaultStack s = MakeFaultStack(std::make_unique<PhantomBalanceWfq>());
  WatchdogConfig cfg;
  cfg.max_balance_errors = 8;
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  PipeBenchConfig pcfg;
  pcfg.messages = 200;
  // Zero task loss: both pipe tasks finish under the CFS fallback.
  EXPECT_TRUE(RunPipeBench(*s.core, s.enoki_policy, pcfg).completed);
  ASSERT_TRUE(s.runtime->ladder().crash_report().has_value());
  const CrashReport& report = *s.runtime->ladder().crash_report();
  EXPECT_EQ(report.reason, TripReason::kBalanceErrors);
  EXPECT_EQ(report.balance_errors, 8u);
  EXPECT_EQ(report.tasks_repolicied, 2u);
  EXPECT_TRUE(s.runtime->ladder().fallback_done());
  // The module went offline at the eighth refusal and was not asked again.
  EXPECT_EQ(s.runtime->balance_errors(), 8u);
}

TEST(Watchdog, TripsOnStarvationFromDroppedEnqueues) {
  // Every wakeup is swallowed before the module sees it: the classic
  // lost-task bug. Only the core's starvation scan can notice.
  FaultPlan plan;
  plan.seed = 14;
  plan.drop_enqueue_rate = 1.0;
  WatchdogConfig cfg;
  cfg.starvation_bound_ns = Milliseconds(20);
  TripOutcome out = RunWithPlan(plan, cfg);
  EXPECT_TRUE(out.tripped);
  EXPECT_EQ(out.report.reason, TripReason::kStarvation);
  EXPECT_NE(out.report.starved_pid, 0u);
  EXPECT_TRUE(out.completed);
}

// ---- Wrong tokens the runtime can only warn about ----

// WFQ that hands back another pid's token from task_departed and
// migrate_task_rq. The old token cannot be fully validated (section 3.1), so
// the runtime warns; its own bookkeeping must come out right regardless.
class WrongTokenWfq : public WfqSched {
 public:
  static constexpr uint64_t kPidSkew = 1000;
  WrongTokenWfq() : WfqSched(0) {}
  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    (void)WfqSched::TaskDeparted(msg);
    return SchedulableMinter::Mint(msg.pid + kPidSkew, msg.cpu, 0);
  }
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    (void)WfqSched::MigrateTaskRq(msg, std::move(sched));
    return SchedulableMinter::Mint(msg.pid + kPidSkew, msg.to_cpu, 0);
  }
};

TEST(WrongToken, DepartureAndMigrationBookkeepingHolds) {
  const std::vector<RecordEntry> log = RecordEveryCallRun(
      [] { return std::make_unique<WrongTokenWfq>(); }, nullptr,
      [](SchedCore& core, EnokiRuntime& runtime) {
        // Every task finishes, and the departed pid was left in no queue:
        // once all have exited, the runtime's queues are empty.
        ASSERT_TRUE(core.RunUntilAllExit(Milliseconds(50)));
        for (int cpu = 0; cpu < core.ncpus(); ++cpu) {
          EXPECT_EQ(runtime.QueuedCount(cpu), 0u) << "cpu " << cpu;
        }
      });
  uint64_t departures = 0;
  uint64_t landed = 0;
  std::map<uint64_t, int> moved_to;  // pid -> the CPU its migration targeted
  for (const RecordEntry& e : log) {
    EXPECT_NE(e.type, RecordType::kPntErr) << "a pick bounced";
    if (e.type == RecordType::kTaskDeparted) {
      ++departures;
      EXPECT_EQ(e.resp0, e.pid + WrongTokenWfq::kPidSkew);
    } else if (e.type == RecordType::kMigrateTaskRq) {
      EXPECT_EQ(e.resp0, e.pid + WrongTokenWfq::kPidSkew);
      moved_to[e.pid] = e.cpu;
    } else if (e.type == RecordType::kPickNextTask && moved_to.contains(e.resp0)) {
      // The migration landed: the task's next pick is on the CPU it moved
      // to, and it validates there.
      EXPECT_EQ(e.cpu, moved_to[e.resp0]) << "pid " << e.resp0;
      moved_to.erase(e.resp0);
      ++landed;
    }
  }
  EXPECT_EQ(departures, 1u);
  EXPECT_GE(landed, 1u);
}

// ---- Manual abort, fallback mechanics ----

TEST(Fallback, ManualAbortRepoliciesAllTasksAndRefusesUpgrade) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  // Trip mid-workload, from event context (sysrq-style).
  s.core->loop().ScheduleAfter(Milliseconds(1),
                               [rt] { rt->ladder().AbortModule("operator abort"); });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  ASSERT_TRUE(rt->quarantined());
  ASSERT_TRUE(rt->ladder().crash_report().has_value());
  EXPECT_EQ(rt->ladder().crash_report()->reason, TripReason::kManual);
  EXPECT_EQ(rt->ladder().crash_report()->detail, "operator abort");
  EXPECT_EQ(rt->ladder().crash_report()->tasks_repolicied, 2u);
  // Every former module task now runs CFS.
  for (const auto& t : s.core->tasks()) {
    EXPECT_EQ(t->sched_class(), s.cfs.get()) << t->name();
  }
  // A quarantined runtime refuses live upgrades.
  auto report = rt->Upgrade(std::make_unique<WfqSched>(0));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("quarantined"), std::string::npos);
}

TEST(Fallback, TaskCreatedAfterFallbackIsHandedToFallbackClass) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.core->Start();
  s.core->RunFor(Milliseconds(1));
  s.runtime->ladder().AbortModule("abort before late task");
  s.core->RunFor(Milliseconds(1));
  ASSERT_TRUE(s.runtime->ladder().fallback_done());
  // A task created with the quarantined policy must still run to completion.
  Task* late = s.core->CreateTask(
      "late",
      MakeFnBody([](SimContext&) -> Action {
        static int step = 0;
        return step++ == 0 ? Action::Compute(Microseconds(10)) : Action::Exit();
      }),
      s.enoki_policy);
  EXPECT_TRUE(s.core->RunUntilTasksDead({late}, s.core->now() + Seconds(1)));
  EXPECT_EQ(late->sched_class(), s.cfs.get());
}

TEST(Fallback, CrashReportCapturesRecorderTail) {
  // Trip via accumulated pick errors so a history of successful calls
  // precedes the trip and lands in the report's tail.
  FaultPlan plan;
  plan.seed = 21;
  plan.stale_token_rate = 1.0;
  FaultStack s = MakeFaultStack(MakeInjectedWfq(plan));
  Recorder recorder(1024);
  s.runtime->SetRecorder(&recorder);
  WatchdogConfig cfg;
  cfg.max_pick_errors = 3;
  cfg.starvation_bound_ns = Milliseconds(500);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  PipeBenchConfig pcfg;
  pcfg.messages = 50;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  EXPECT_TRUE(r.completed);
  ASSERT_TRUE(s.runtime->ladder().crash_report().has_value());
  const CrashReport& report = *s.runtime->ladder().crash_report();
  EXPECT_FALSE(report.last_calls.empty());
  EXPECT_LE(report.last_calls.size(), CrashReport::kLastCalls);
  // The rendering is the determinism fingerprint; it must be non-trivial.
  EXPECT_NE(report.ToString().find("pick-errors"), std::string::npos);
}

TEST(Fallback, FailedUpgradeRollsBackAndKeepsModuleOnline) {
  // The swap succeeds but the incoming module rejects the transferred
  // state. The outgoing WFQ module checkpoints, so the failure is a
  // transaction abort: the predecessor is reinstalled, its tasks are
  // re-injected, and the watchdog never trips.
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    auto report = rt->Upgrade(std::make_unique<RejectsStateSched>(0));
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.rolled_back);
  });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_FALSE(rt->ladder().fallback_done());
  EXPECT_EQ(rt->rollbacks(), 1u);
  EXPECT_EQ(rt->ladder().upgrades(), 0u);
}

TEST(Fallback, FailedUpgradeWithoutCheckpointTripsWatchdogAndRescuesTasks) {
  // Legacy path: no checkpoint means no rollback target, so a post-swap
  // init failure is a containment event — the broken module is quarantined
  // and its tasks survive on CFS.
  FaultStack s = MakeFaultStack(std::make_unique<UncheckpointableWfq>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    auto report = rt->Upgrade(std::make_unique<RejectsStateSched>(0));
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.rolled_back);
  });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  ASSERT_TRUE(rt->quarantined());
  ASSERT_TRUE(rt->ladder().crash_report().has_value());
  EXPECT_EQ(rt->ladder().crash_report()->reason, TripReason::kUpgradeFailure);
  EXPECT_EQ(rt->ladder().crash_report()->tasks_repolicied, 2u);
}

TEST(Fallback, QuarantinedUpgradeRefusalChargesNoPause) {
  // Regression: the refusal happens before any quiesce attempt, so no
  // blackout may be charged and the upgrade counter must stay untouched.
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.core->Start();
  s.core->RunFor(Milliseconds(1));
  s.runtime->ladder().AbortModule("operator abort");
  s.core->RunFor(Milliseconds(1));
  ASSERT_TRUE(s.runtime->quarantined());
  auto report = s.runtime->Upgrade(std::make_unique<WfqSched>(0));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("quarantined"), std::string::npos);
  EXPECT_EQ(report.pause_ns, 0);
  EXPECT_FALSE(report.checkpointed);
  EXPECT_EQ(s.runtime->ladder().upgrades(), 0u);
}

// ---- The seeded fault sweep (acceptance criterion) ----

// Digest of all 100 seeds' outcomes (see tests/sweep_digest.h).
constexpr uint64_t kFaultSweepDigest = 0x7277bf7169ad937full;

struct SweepOutcome {
  bool completed = false;
  bool tripped = false;
  std::string report;  // empty when the watchdog never tripped
  uint64_t faults = 0;
  uint64_t reinjected = 0;
  Time end_time = 0;
};

SweepOutcome RunSweep(uint64_t seed) {
  FaultInjector* inj = nullptr;
  FaultStack s = MakeFaultStack(MakeInjectedWfq(FaultPlan::FullMenu(seed), &inj));
  Recorder recorder(1024);
  s.runtime->SetRecorder(&recorder);
  s.runtime->CreateRevQueue(64);  // give hint floods somewhere to land
  WatchdogConfig cfg;
  cfg.callback_budget_ns = Milliseconds(5);
  cfg.max_escaped_exceptions = 3;
  cfg.max_pick_errors = 8;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  SweepOutcome out;
  out.completed = r.completed;
  out.tripped = s.runtime->quarantined();
  if (s.runtime->ladder().crash_report().has_value()) {
    out.report = s.runtime->ladder().crash_report()->ToString();
  }
  out.faults = inj->counts().total();
  out.reinjected = inj->counts().reinjected;
  out.end_time = s.core->now();
  return out;
}

TEST(FaultSweep, HundredSeedsFullMenuZeroTaskLoss) {
  int tripped_seeds = 0;
  uint64_t total_faults = 0;
  SweepDigest digest;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SweepOutcome a = RunSweep(seed);
    for (uint64_t v : {uint64_t{a.completed}, uint64_t{a.tripped}, a.faults, a.reinjected,
                       a.end_time}) {
      digest.Add(v);
    }
    digest.Add(a.report);
    // Zero task loss: every pipe task completes, tripped or not.
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    // Determinism: the identical seed yields the identical run, down to the
    // CrashReport rendering and the final simulated clock.
    SweepOutcome b = RunSweep(seed);
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.tripped, b.tripped) << "seed " << seed;
    EXPECT_EQ(a.report, b.report) << "seed " << seed;
    EXPECT_EQ(a.faults, b.faults) << "seed " << seed;
    EXPECT_EQ(a.reinjected, b.reinjected) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
    tripped_seeds += a.tripped ? 1 : 0;
    total_faults += a.faults;
  }
  // The menu must actually bite: faults were injected and some seeds tripped.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(tripped_seeds, 0);
  EXPECT_EQ(digest.value(), kFaultSweepDigest) << std::hex << digest.value();
}

}  // namespace
}  // namespace enoki

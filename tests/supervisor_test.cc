// Tests for the recovery ladder (probation -> rollback -> supervised
// restart -> quarantine): the Checkpoint format, the ModuleSupervisor
// restart policy, the runtime's transactional upgrades, and replay's
// graceful degradation on truncated traces. The capstones are two seeded
// sweeps — upgrade-boundary faults (100 seeds) and runtime faults under a
// supervisor (200 seeds) — asserting zero task loss, zero CFS fallbacks
// whenever the restart budget suffices, and bit-identical recovery
// timelines for identical seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/enoki/checkpoint.h"
#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/fault/injector.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/nice_weights.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/workloads/pipe.h"
#include "tests/fault_stack.h"
#include "tests/sweep_digest.h"

namespace enoki {
namespace {

// ---- Checkpoint byte format ----

TEST(Checkpoint, ByteRoundTripSealAndTamper) {
  ByteWriter w;
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.U64(42);

  Checkpoint ck;
  ck.state_version = 7;
  ck.bytes = w.Take();
  ck.Seal();
  EXPECT_TRUE(ck.Valid());

  ByteReader r(ck.bytes);
  uint32_t a = 0;
  uint64_t b = 0, c = 0;
  ASSERT_TRUE(r.U32(&a));
  ASSERT_TRUE(r.U64(&b));
  ASSERT_TRUE(r.U64(&c));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c, 42u);
  EXPECT_TRUE(r.AtEnd());

  // A single flipped byte must invalidate the seal, and so must a version
  // mismatch (the checksum folds the format version).
  ck.bytes[3] ^= 0x01;
  EXPECT_FALSE(ck.Valid());
  ck.bytes[3] ^= 0x01;
  EXPECT_TRUE(ck.Valid());
  ck.state_version = 8;
  EXPECT_FALSE(ck.Valid());
}

TEST(Checkpoint, ByteReaderOverrunPoisons) {
  ByteWriter w;
  w.U32(5);
  const std::vector<uint8_t> bytes = w.Take();  // only 4 bytes
  ByteReader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.U64(&v));  // needs 8
  EXPECT_TRUE(r.overrun());
  // Poisoned: even a read that would fit now fails.
  uint32_t u = 0;
  EXPECT_FALSE(r.U32(&u));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Checkpoint, SaboteurCorruptionIsDetected) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) {
    w.U64(static_cast<uint64_t>(i));
  }
  Checkpoint ck;
  ck.state_version = 2;
  ck.bytes = w.Take();
  ck.Seal();
  ASSERT_TRUE(ck.Valid());
  CheckpointSaboteur sab(123, 1.0);
  EXPECT_TRUE(sab.MaybeCorrupt(&ck));
  EXPECT_EQ(sab.corruptions(), 1u);
  EXPECT_FALSE(ck.Valid());
}

// ---- WFQ / FIFO checkpoint implementations ----

TaskMessage Msg(uint64_t pid, int cpu, int nice = 0, Duration runtime = 0) {
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = cpu;
  msg.prev_cpu = cpu;
  msg.runtime = runtime;
  msg.nice = nice;
  return msg;
}

TEST(WfqCheckpoint, RoundTripRestoresAccounting) {
  ReplayEnv env(4);
  WfqSched a(0);
  a.Attach(&env);
  a.TaskNew(Msg(1, 0, /*nice=*/0), SchedulableMinter::Mint(1, 0, 1));
  a.TaskNew(Msg(2, 1, /*nice=*/-5), SchedulableMinter::Mint(2, 1, 1));
  a.TaskTick(0, 1, Milliseconds(3));  // accumulate some vruntime for pid 1

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 2u);
  const std::vector<uint8_t> bytes = w.Take();

  WfqSched b(0);
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(2, &r));
  EXPECT_EQ(b.WeightOf(1), NiceToWeight(0));
  EXPECT_EQ(b.WeightOf(2), NiceToWeight(-5));
  EXPECT_EQ(b.VruntimeOf(1), a.VruntimeOf(1));
  EXPECT_GT(b.VruntimeOf(1), 0u);
  // Queue membership is deliberately NOT part of a checkpoint: restored
  // entities start parked until the runtime re-injects wakeups.
  EXPECT_EQ(b.QueueDepth(0), 0u);
  EXPECT_EQ(b.QueueDepth(1), 0u);
}

TEST(WfqCheckpoint, AcceptsV1PayloadWithoutSliceStart) {
  // v1 predates the slice_start_runtime field; a v1 payload must still load
  // (cross-version restore), seeding the missing field from last_runtime.
  ByteWriter w;
  w.U64(2);  // ncpus
  w.U64(1000);
  w.U64(2000);
  w.U64(1);        // one live entity
  w.U64(7);        // pid
  w.U64(1234);     // vruntime
  w.U64(NiceToWeight(0));
  w.U64(5555);     // last_runtime
  w.U64(1);        // cpu (no slice_start field in v1)
  const std::vector<uint8_t> bytes = w.Take();

  ReplayEnv env(2);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(1, &r));
  EXPECT_EQ(s.VruntimeOf(7), 1234u);
  EXPECT_EQ(s.WeightOf(7), NiceToWeight(0));
}

TEST(WfqCheckpoint, RejectsWrongVersionTruncationAndGarbage) {
  ReplayEnv env(2);
  WfqSched s(0);
  s.Attach(&env);

  ByteWriter w;
  w.U64(2);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  std::vector<uint8_t> good = w.bytes();
  {
    ByteReader r(good);
    EXPECT_FALSE(s.LoadCheckpoint(3, &r));  // unknown future version
  }
  {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + 10);
    ByteReader r(truncated);
    EXPECT_FALSE(s.LoadCheckpoint(2, &r));
  }
  {
    ByteWriter bad;
    bad.U64(2);
    bad.U64(0);
    bad.U64(0);
    bad.U64(1);  // one entity...
    bad.U64(0);  // ...with pid 0 (pids are assigned from 1)
    bad.U64(1);
    bad.U64(NiceToWeight(0));
    bad.U64(0);
    bad.U64(0);
    bad.U64(0);
    std::vector<uint8_t> bytes = bad.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(s.LoadCheckpoint(2, &r));
  }
}

TEST(WfqSched, AdoptsUnknownTaskOnFirstSighting) {
  // The wfq.cc "first sighting after an upgrade with partial state" path: a
  // wakeup for a pid absent from the restored accounting must be adopted
  // with the message's nice and a vruntime clamped to the sleeper floor.
  ByteWriter w;
  w.U64(2);
  w.U64(0);
  w.U64(Milliseconds(50));  // min_vruntime on cpu 1
  w.U64(1);                 // one known entity: pid 1
  w.U64(1);
  w.U64(Milliseconds(50));
  w.U64(NiceToWeight(0));
  w.U64(0);
  w.U64(0);
  w.U64(1);
  const std::vector<uint8_t> bytes = w.Take();

  ReplayEnv env(2);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));

  // pid 2 was never transferred: first sighting adopts it.
  s.TaskWakeup(Msg(2, 1, /*nice=*/5), SchedulableMinter::Mint(2, 1, 1));
  EXPECT_EQ(s.WeightOf(2), NiceToWeight(5));
  EXPECT_EQ(s.QueueDepth(1), 1u);
  // Sleeper fairness: the adopted task lands at min_vruntime - sched_latency,
  // not at zero (which would starve everyone else).
  EXPECT_GE(s.VruntimeOf(2), Milliseconds(50) - WfqSched::kSchedLatencyNs);
  auto token = s.PickNextTask(1, std::nullopt);
  ASSERT_TRUE(token.has_value());
  EXPECT_EQ(token->pid(), 2u);
}

// ---- FlightRecorder ----

TEST(FlightRecorder, KeepsBoundedTailInOrder) {
  FlightRecorder fr(8);
  for (uint64_t i = 1; i <= 100; ++i) {
    fr.Append(static_cast<Time>(i), RecordType::kTaskTick, /*cpu=*/0, /*pid=*/i, /*resp0=*/0);
  }
  EXPECT_EQ(fr.appended(), 100u);
  auto tail = fr.Tail(4);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().pid, 97u);
  EXPECT_EQ(tail.back().pid, 100u);
  // Asking for more than the capacity returns at most the capacity.
  EXPECT_EQ(fr.Tail(64).size(), 8u);
  // Seq is the append position; time is the `now` each Append was given.
  EXPECT_EQ(tail.back().seq, 100u);
  EXPECT_EQ(tail.back().time, 100);
}

TEST(FlightRecorder, WrappedTailRoundTripsPrintedFields) {
  FlightRecorder fr(8);
  for (uint64_t i = 1; i <= 21; ++i) {
    SetCurrentKthread(static_cast<int>(255 - i));
    fr.Append(static_cast<Time>(1000 * i), static_cast<RecordType>(1 + i % 27),
              /*cpu=*/static_cast<int>(i % 5) - 1,  // -1 (no CPU) included
              /*pid=*/(i << 40) | i, /*resp0=*/~i);
  }
  SetCurrentKthread(0);
  const auto tail = fr.Tail(8);
  ASSERT_EQ(tail.size(), 8u);
  for (uint64_t k = 0; k < tail.size(); ++k) {
    const uint64_t i = 14 + k;
    const RecordEntry& e = tail[k];
    EXPECT_EQ(e.seq, i);
    EXPECT_EQ(e.time, static_cast<Time>(1000 * i));
    EXPECT_EQ(e.type, static_cast<RecordType>(1 + i % 27));
    EXPECT_EQ(e.pid, (i << 40) | i);
    EXPECT_EQ(e.cpu, static_cast<int>(i % 5) - 1);
    EXPECT_EQ(e.resp0, ~i);
    EXPECT_EQ(e.kthread, static_cast<int>(255 - i));
    // Fields the ring does not keep come back zero.
    EXPECT_EQ(e.runtime, 0u);
    EXPECT_EQ(e.arg[2], 0u);
    EXPECT_FALSE(e.has_resp);
    EXPECT_FALSE(e.flag);
  }
}

TEST(FlightRecorderDeathTest, RejectsNonPowerOfTwoCapacity) {
  EXPECT_DEATH(FlightRecorder(48), "power of two");
  EXPECT_DEATH(FlightRecorder(0), "power of two");
}

// ---- ModuleSupervisor policy ----

CrashReport FakeReport(TripReason reason = TripReason::kManual) {
  CrashReport r;
  r.reason = reason;
  r.detail = "test";
  return r;
}

TEST(Supervisor, BackoffIsExponentialAndClamped) {
  SupervisorConfig cfg;
  cfg.backoff_initial_ns = Microseconds(50);
  cfg.backoff_multiplier = 2;
  cfg.backoff_max_ns = Milliseconds(5);
  ModuleSupervisor sup(cfg, [] { return std::make_unique<WfqSched>(0); });
  EXPECT_EQ(sup.BackoffFor(1), Microseconds(50));
  EXPECT_EQ(sup.BackoffFor(2), Microseconds(100));
  EXPECT_EQ(sup.BackoffFor(3), Microseconds(200));
  EXPECT_EQ(sup.BackoffFor(30), Milliseconds(5));  // clamped, no overflow
}

TEST(Supervisor, WindowBudgetExhaustionEscalates) {
  SupervisorConfig cfg;
  cfg.restart_budget = 2;
  cfg.restart_window_ns = Seconds(1);
  ModuleSupervisor sup(cfg, [] { return std::make_unique<WfqSched>(0); });

  auto d1 = sup.OnTrip(FakeReport(), Milliseconds(1));
  EXPECT_EQ(d1.action, RecoveryAction::kRestart);
  EXPECT_EQ(d1.attempt, 1u);
  sup.OnRestartComplete(Milliseconds(2), true);

  auto d2 = sup.OnTrip(FakeReport(), Milliseconds(3));
  EXPECT_EQ(d2.action, RecoveryAction::kRestart);
  EXPECT_EQ(d2.attempt, 2u);
  EXPECT_GT(d2.backoff_ns, d1.backoff_ns);
  sup.OnRestartComplete(Milliseconds(4), true);

  // Budget spent inside the same window: escalate.
  auto d3 = sup.OnTrip(FakeReport(), Milliseconds(5));
  EXPECT_EQ(d3.action, RecoveryAction::kQuarantine);
  EXPECT_EQ(sup.escalations(), 1u);

  // A trip a full window later opens a fresh budget.
  auto d4 = sup.OnTrip(FakeReport(), Milliseconds(5) + Seconds(1));
  EXPECT_EQ(d4.action, RecoveryAction::kRestart);
  EXPECT_EQ(d4.attempt, 1u);

  EXPECT_EQ(sup.restarts_decided(), 3u);
  EXPECT_EQ(sup.history().size(), 4u);
  EXPECT_EQ(sup.timeline().size(), 2u);
  EXPECT_NE(sup.TimelineString().find("restart attempt=1"), std::string::npos);
}

TEST(Supervisor, TimelineStringIsDeterministic) {
  auto drive = [] {
    SupervisorConfig cfg;
    ModuleSupervisor sup(cfg, [] { return std::make_unique<WfqSched>(0); });
    sup.OnTrip(FakeReport(TripReason::kPickErrors), Microseconds(700));
    sup.OnRestartComplete(Microseconds(760), true);
    sup.OnTrip(FakeReport(TripReason::kEscapedException), Milliseconds(2));
    sup.OnRestartComplete(Milliseconds(2) + Microseconds(150), false);
    sup.OnHealthy();
    return sup.TimelineString();
  };
  EXPECT_EQ(drive(), drive());
}

// ---- Runtime integration ----

TEST(SupervisedRuntime, RestartRecoversWithoutCfsFallback) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1),
                               [rt] { rt->ladder().AbortModule("injected abort"); });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_FALSE(rt->ladder().fallback_done());
  EXPECT_EQ(rt->module_restarts(), 1u);
  ASSERT_TRUE(rt->ladder().crash_report().has_value());
  EXPECT_EQ(rt->ladder().crash_report()->reason, TripReason::kManual);
  // The flight recorder fed the report's tail even with no Recorder armed.
  EXPECT_FALSE(rt->ladder().crash_report()->last_calls.empty());
  ASSERT_EQ(rt->ladder().supervisor()->timeline().size(), 1u);
  const RestartEvent& ev = rt->ladder().supervisor()->timeline()[0];
  EXPECT_EQ(ev.attempt, 1u);
  EXPECT_EQ(ev.backoff_ns, SupervisorConfig{}.backoff_initial_ns);
  EXPECT_GE(ev.restarted_at, ev.tripped_at + ev.backoff_ns);
}

TEST(SupervisedRuntime, BudgetExhaustionEscalatesToQuarantine) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  SupervisorConfig scfg;
  scfg.restart_budget = 1;
  s.runtime->ladder().EnableSupervisor(scfg, [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] { rt->ladder().AbortModule("first abort"); });
  s.core->loop().ScheduleAfter(Milliseconds(2), [rt] { rt->ladder().AbortModule("second abort"); });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  // Tasks survive the terminal rung on CFS.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->module_restarts(), 1u);
  EXPECT_TRUE(rt->quarantined());
  EXPECT_TRUE(rt->ladder().fallback_done());
  EXPECT_EQ(rt->ladder().supervisor()->escalations(), 1u);
}

TEST(SupervisedRuntime, CorruptCheckpointIsDetectedNotDeserialized) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  CheckpointSaboteur sab(99, 1.0);
  s.runtime->ladder().SetCheckpointSaboteur(&sab);  // every checkpoint rots in storage
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  EXPECT_GE(sab.corruptions(), 1u);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] { rt->ladder().AbortModule("abort"); });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_EQ(rt->module_restarts(), 1u);
  // The checksum rejected the rotten checkpoint before any deserialization;
  // the restart proceeded from a fresh state instead.
  EXPECT_GE(rt->ladder().checkpoint_rejects(), 1u);
  ASSERT_GE(rt->ladder().supervisor()->timeline().size(), 1u);
  EXPECT_FALSE(rt->ladder().supervisor()->timeline()[0].restored_from_checkpoint);
}

TEST(SupervisedRuntime, SurvivingProbationCommitsAndRefreshesCheckpoint) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  const uint64_t seeded_seq = s.runtime->ladder().checkpoint_store().newest()->sequence;
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] { rt->ladder().AbortModule("abort"); });
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->ladder().in_probation());  // the restarted module proved itself
  EXPECT_GE(rt->ladder().supervisor()->healthy_commits(), 1u);
  ASSERT_NE(rt->ladder().checkpoint_store().newest(), nullptr);
  EXPECT_GT(rt->ladder().checkpoint_store().newest()->sequence, seeded_seq);
}

TEST(SupervisedRuntime, EveryRestoredCheckpointWasSavedInTheRecordStream) {
  // Three saves push a generation onto the ring: CheckpointNow, an upgrade's
  // quiesce checkpoint and a probation commit's. A restore may only name a
  // sequence whose kCheckpointSave the record stream already holds.
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  Recorder recorder(1 << 20);
  s.runtime->SetRecorder(&recorder);
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    EXPECT_TRUE(rt->Upgrade(std::make_unique<WfqSched>(0)).ok);
    EXPECT_TRUE(rt->ladder().in_probation());
  });
  s.core->loop().ScheduleAfter(Milliseconds(10), [rt] {
    EXPECT_EQ(rt->ladder().slot_state(), RecoveryLadder::SlotState::kActive);  // committed
    rt->ladder().AbortModule("abort after the upgrade committed");
  });
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  EXPECT_TRUE(RunPipeBench(*s.core, s.enoki_policy, cfg).completed);
  EXPECT_EQ(rt->module_restarts(), 1u);
  recorder.Drain();
  std::set<uint64_t> saved;
  uint64_t restores = 0;
  for (const RecordEntry& e : recorder.log()) {
    if (e.type == RecordType::kCheckpointSave) {
      saved.insert(e.arg[0]);
    } else if (e.type == RecordType::kCheckpointRestore) {
      ++restores;
      EXPECT_TRUE(saved.contains(e.arg[0])) << "restored sequence " << e.arg[0] << " never saved";
    }
  }
  EXPECT_EQ(restores, 1u);
  EXPECT_GE(saved.size(), 3u);  // the supervisor's seed, the quiesce and the commit
}

// ---- Transactional upgrades: probation rollback and commit ----

// WFQ whose own DefaultProbation() is a time-only window of `window`. Its
// VersionFingerprint() differs from plain WFQ's (it folds the type).
class ShortProbationWfq : public WfqSched {
 public:
  explicit ShortProbationWfq(Duration window = Microseconds(500)) : WfqSched(0), window_(window) {}
  ProbationConfig DefaultProbation() const override {
    ProbationConfig p;
    p.window_ns = window_;
    p.window_calls = 0;
    return p;
  }

 private:
  Duration window_;
};

std::unique_ptr<FaultInjector> InjectedWfq(FaultPlan plan, FaultInjector** out = nullptr) {
  auto inj = std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);
  if (out != nullptr) {
    *out = inj.get();
  }
  return inj;
}

TEST(UpgradeProbation, MisbehavingIncomingModuleRollsBack) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  EnokiSched* old_module = rt->module();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    FaultPlan plan;
    plan.seed = 5;
    plan.probation_misbehave_rate = 1.0;  // first hot callbacks throw
    auto report = rt->Upgrade(std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan));
    // The swap itself succeeds; the misbehavior lands inside probation.
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(report.checkpointed);
  });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_FALSE(rt->ladder().fallback_done());
  EXPECT_EQ(rt->rollbacks(), 1u);
  EXPECT_EQ(rt->module(), old_module);  // the checkpointed predecessor is back
  ASSERT_TRUE(rt->ladder().crash_report().has_value());
  EXPECT_TRUE(rt->ladder().crash_report()->during_probation);
}

TEST(UpgradeProbation, HealthySuccessorCommits) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    auto report = rt->Upgrade(std::make_unique<WfqSched>(0));
    EXPECT_TRUE(report.ok);
    EXPECT_TRUE(rt->ladder().in_probation());
  });
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->ladder().upgrades(), 1u);
  EXPECT_EQ(rt->rollbacks(), 0u);
  EXPECT_FALSE(rt->ladder().in_probation());  // committed by window or call count
  EXPECT_FALSE(rt->ladder().recovery_pending());
}

TEST(UpgradeProbation, SecondUpgradeRefusedWhileFirstIsOnProbation) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    // Hold probation open for the test.
    EXPECT_TRUE(rt->Upgrade(std::make_unique<ShortProbationWfq>(Seconds(10))).ok);
    auto second = rt->Upgrade(std::make_unique<WfqSched>(0));
    EXPECT_FALSE(second.ok);
    EXPECT_NE(second.error.find("probation"), std::string::npos);
    EXPECT_EQ(second.pause_ns, 0);
  });
  PipeBenchConfig cfg;
  cfg.messages = 500;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->ladder().upgrades(), 1u);
}

// ---- The ladder as one explicit state ----

using SlotState = RecoveryLadder::SlotState;

// Samples the slot state and checks the ladder invariants that must hold in
// every state, from the test body and from a 25 us sampling timer.
struct LadderWalk {
  const EnokiRuntime* rt = nullptr;
  std::set<SlotState> seen;
  std::optional<uint64_t> periodic_at_quarantine;

  void Check() {
    const SlotState st = rt->ladder().slot_state();
    seen.insert(st);
    // At most one recovery pending: a restart the supervisor decided but the
    // runtime has not performed exists exactly in kRestartPending.
    EXPECT_EQ(rt->ladder().recovery_pending(),
              st == SlotState::kRollbackPending || st == SlotState::kRestartPending);
    EXPECT_EQ(rt->ladder().supervisor()->restarts_decided() - rt->module_restarts(),
              st == SlotState::kRestartPending ? 1u : 0u);
    EXPECT_FALSE(rt->ladder().recovery_pending() && rt->ladder().in_probation());
    EXPECT_FALSE(rt->quarantined() &&
                 (rt->ladder().in_probation() || rt->ladder().recovery_pending()));
    // Upgrade probation, and the rollback it can turn into, has a target.
    EXPECT_EQ(rt->ladder().rollback_target() != nullptr,
              st == SlotState::kUpgradeProbation || st == SlotState::kRollbackPending);
    // No periodic checkpoint is taken after quarantine.
    if (rt->quarantined() && !periodic_at_quarantine.has_value()) {
      periodic_at_quarantine = rt->periodic_checkpoints();
    }
    if (periodic_at_quarantine.has_value()) {
      EXPECT_EQ(rt->periodic_checkpoints(), *periodic_at_quarantine);
    }
  }
};

struct LadderSampler {
  LadderWalk* walk;
  SchedCore* core;
  void operator()() const {
    walk->Check();
    if (core->now() < Milliseconds(20)) {
      core->loop().ScheduleAfter(Microseconds(25), *this);
    }
  }
};

TEST(LadderStateWalk, EveryStateReachedThroughThePublicApi) {
  // Every module is a ShortProbationWfq, so all checkpoints share one
  // fingerprint and each restore may load any generation on the ring.
  FaultStack s = MakeFaultStack(std::make_unique<ShortProbationWfq>());
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  SupervisorConfig scfg;
  scfg.probation.window_ns = Milliseconds(1);  // restart probation closes by time only
  scfg.probation.window_calls = 0;
  s.runtime->ladder().EnableSupervisor(scfg, [] { return std::make_unique<ShortProbationWfq>(); });
  s.runtime->SetCheckpointInterval(Microseconds(200));
  EnokiRuntime* rt = s.runtime.get();
  LadderWalk walk;
  walk.rt = rt;
  s.core->Start();
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(s.core->CreateTask(
        std::string("w").append(std::to_string(i)),
        std::make_unique<CpuBoundBody>(Milliseconds(8), Microseconds(50)), s.enoki_policy));
  }
  s.core->loop().ScheduleAfter(0, LadderSampler{&walk, s.core.get()});
  // Runs the simulation for `d` (0 = stay at this instant, before any
  // deferred ladder step), then checks the state.
  auto step = [&](Duration d, SlotState want) {
    if (d > 0) {
      s.core->RunFor(d);
    }
    walk.Check();
    EXPECT_EQ(rt->ladder().slot_state(), want) << "at t=" << s.core->now();
  };
  step(Microseconds(500), SlotState::kActive);

  // An upgrade whose init throws aborts in place and never leaves kActive.
  FaultPlan init_throws;
  init_throws.init_throw_rate = 1.0;
  EXPECT_TRUE(rt->Upgrade(InjectedWfq(init_throws)).rolled_back);
  step(0, SlotState::kActive);
  EXPECT_EQ(rt->rollbacks(), 1u);

  // A healthy upgrade: probation, then commit once its 500 us window closes.
  EXPECT_TRUE(rt->Upgrade(std::make_unique<ShortProbationWfq>()).ok);
  step(0, SlotState::kUpgradeProbation);
  step(Milliseconds(1), SlotState::kActive);
  EXPECT_EQ(rt->ladder().upgrades(), 1u);

  // A trip during upgrade probation rolls back at the next event boundary.
  EXPECT_TRUE(rt->Upgrade(std::make_unique<ShortProbationWfq>()).ok);
  step(Microseconds(100), SlotState::kUpgradeProbation);
  rt->ladder().AbortModule("probation trip");
  step(0, SlotState::kRollbackPending);
  EXPECT_TRUE(rt->ladder().crash_report()->during_probation);
  step(Microseconds(100), SlotState::kActive);
  EXPECT_EQ(rt->rollbacks(), 2u);

  // Supervised restart: pending for the backoff, then restart probation,
  // then committed (the upgrade's commit was the first healthy one).
  rt->ladder().AbortModule("restart 1");
  step(0, SlotState::kRestartPending);
  step(Microseconds(500), SlotState::kRestartProbation);
  step(Milliseconds(1), SlotState::kActive);
  EXPECT_EQ(rt->ladder().supervisor()->healthy_commits(), 2u);

  // A trip inside restart probation restarts again until the budget (3 per
  // window) is spent; the next one quarantines.
  rt->ladder().AbortModule("restart 2");
  step(0, SlotState::kRestartPending);
  step(Microseconds(500), SlotState::kRestartProbation);
  rt->ladder().AbortModule("restart 3");
  step(0, SlotState::kRestartPending);
  step(Microseconds(500), SlotState::kRestartProbation);
  rt->ladder().AbortModule("budget spent");
  step(0, SlotState::kQuarantined);
  step(Microseconds(100), SlotState::kFallenBack);
  EXPECT_EQ(rt->module_restarts(), 3u);
  EXPECT_EQ(rt->ladder().supervisor()->escalations(), 1u);

  // The cadence stays dead and every task still finishes, on CFS.
  EXPECT_TRUE(s.core->RunUntilTasksDead(tasks, Milliseconds(200)));
  walk.Check();
  EXPECT_EQ(walk.seen.size(), 7u);
  ASSERT_TRUE(walk.periodic_at_quarantine.has_value());
  EXPECT_GT(*walk.periodic_at_quarantine, 0u);  // the cadence was live before
}

// ---- Bounded model check of the ladder ----
//
// Every sequence of up to four ladder events, each replayed on a fresh
// 2-CPU stack through the public API only. The slot state is observed after
// every simulated event; between consecutive observations it must stay put
// or move along a path of legal edges, the LadderWalk invariants must hold,
// and no runnable task may fall out of the runtime's bookkeeping. Each run
// ends by draining the workload: every task must exit.

// Adopts no transferred state, so the runtime re-injects every queued task
// into it, and throws on the first wakeup it sees. A wakeup must never reach
// it once its trip has taken the module offline.
class ThrowsOnFirstWakeupWfq : public ShortProbationWfq {
 public:
  explicit ThrowsOnFirstWakeupWfq(const EnokiRuntime* rt) : rt_(rt) {}
  void ReregisterInit(TransferState) override {}
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    EXPECT_FALSE(rt_->ladder().recovery_pending() || rt_->quarantined()) << "wakeup while offline";
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("first wakeup");
    }
    ShortProbationWfq::TaskWakeup(msg, std::move(sched));
  }

 private:
  const EnokiRuntime* rt_;
  bool thrown_ = false;
};

enum class LadderEvent {
  kUpgradeOk,
  kUpgradeInitThrows,
  kTrip,             // AbortModule
  kProbationCommit,  // run past the probation window
  kRestartTimer,     // run past the longest restart backoff
  kExhaustBudget,    // trip through restarts until none is left
  kCheckpointNow,
  kReinjectThrow,  // upgrade to a successor that throws on a re-injected wakeup
};
constexpr int kLadderEvents = 8;

// The legal edges of EnokiRuntime::Enter() (DESIGN.md "Recovery ladder").
const std::set<std::pair<SlotState, SlotState>>& LegalLadderEdges() {
  using S = SlotState;
  static const std::set<std::pair<S, S>> edges = {
      {S::kActive, S::kUpgradeProbation},          {S::kActive, S::kRestartPending},
      {S::kActive, S::kQuarantined},               {S::kUpgradeProbation, S::kActive},
      {S::kUpgradeProbation, S::kRollbackPending}, {S::kRestartProbation, S::kActive},
      {S::kRestartProbation, S::kRestartPending},  {S::kRestartProbation, S::kQuarantined},
      {S::kRollbackPending, S::kActive},           {S::kRestartPending, S::kRestartProbation},
      {S::kQuarantined, S::kFallenBack},
  };
  return edges;
}

bool LadderReachable(SlotState from, SlotState to) {
  std::set<SlotState> seen = {from};
  std::vector<SlotState> frontier = {from};
  while (!frontier.empty()) {
    const SlotState at = frontier.back();
    frontier.pop_back();
    for (const auto& [a, b] : LegalLadderEdges()) {
      if (a == at && seen.insert(b).second) {
        frontier.push_back(b);
      }
    }
  }
  return seen.count(to) > 0;
}

class LadderModel {
 public:
  static constexpr Duration kRestartWait = Microseconds(250);  // > 200 us, the third backoff
  static constexpr Duration kCommitWait = Microseconds(600);   // > 500 us probation windows

  explicit LadderModel(std::set<std::pair<SlotState, SlotState>>* edges)
      : s_(MakeFaultStack(std::make_unique<ShortProbationWfq>(), MachineSpec{2, 1, "2 cores"})),
        rt_(s_.runtime.get()),
        edges_(edges) {
    s_.runtime->EnableWatchdog(WatchdogConfig{}, s_.cfs_policy);
    SupervisorConfig scfg;
    scfg.probation.window_ns = Microseconds(500);
    scfg.probation.window_calls = 0;
    s_.runtime->ladder().EnableSupervisor(scfg,
                                          [] { return std::make_unique<ShortProbationWfq>(); });
    s_.runtime->SetCheckpointInterval(Microseconds(250));
    walk_.rt = rt_;
    s_.core->Start();
    for (int i = 0; i < 4; ++i) {
      tasks_.push_back(s_.core->CreateTask(
          std::string("m").append(std::to_string(i)),
          std::make_unique<CpuBoundBody>(Milliseconds(5), Microseconds(100)), s_.enoki_policy));
    }
    Advance(Microseconds(300));
  }

  void Apply(LadderEvent ev) {
    switch (ev) {
      case LadderEvent::kUpgradeOk:
        (void)rt_->Upgrade(std::make_unique<ShortProbationWfq>());
        break;
      case LadderEvent::kUpgradeInitThrows: {
        FaultPlan plan;
        plan.init_throw_rate = 1.0;
        (void)rt_->Upgrade(
            std::make_unique<FaultInjector>(std::make_unique<ShortProbationWfq>(), plan));
        break;
      }
      case LadderEvent::kTrip:
        rt_->ladder().AbortModule("model trip");
        break;
      case LadderEvent::kProbationCommit:
        Advance(kCommitWait);
        break;
      case LadderEvent::kRestartTimer:
        Advance(kRestartWait);
        break;
      case LadderEvent::kExhaustBudget: {
        const uint64_t budget = rt_->ladder().supervisor()->config().restart_budget;
        for (int i = 0; i < 16 && !rt_->quarantined() &&
                        rt_->ladder().supervisor()->restarts_decided() < budget;
             ++i) {
          if (rt_->ladder().recovery_pending()) {
            Advance(kRestartWait);
          } else {
            rt_->ladder().AbortModule("exhaust budget");
            Observe();
          }
        }
        if (rt_->ladder().slot_state() == SlotState::kRestartPending) {
          Advance(kRestartWait);
        }
        break;
      }
      case LadderEvent::kCheckpointNow:
        (void)rt_->ladder().CheckpointNow();
        break;
      case LadderEvent::kReinjectThrow:
        (void)rt_->Upgrade(std::make_unique<ThrowsOnFirstWakeupWfq>(rt_));
        break;
    }
    Observe();
  }

  // Runs the workload to completion; false if a task never exits.
  bool Drain() {
    const Time deadline = s_.core->now() + Milliseconds(200);
    while (!AllDead() && s_.core->now() < deadline && s_.core->loop().RunOne()) {
      Observe();
    }
    return AllDead();
  }

  const std::set<SlotState>& seen() const { return walk_.seen; }

 private:
  // Runs every simulated event due within `d`, observing after each.
  void Advance(Duration d) {
    const Time deadline = s_.core->now() + d;
    while (s_.core->loop().PeekTime() <= deadline) {
      s_.core->loop().RunOne();
      Observe();
    }
  }

  void Observe() {
    walk_.Check();
    const SlotState st = rt_->ladder().slot_state();
    if (st != last_) {
      EXPECT_TRUE(LadderReachable(last_, st))
          << static_cast<int>(last_) << " -> " << static_cast<int>(st);
      edges_->insert({last_, st});
      last_ = st;
    }
    // Every runnable task of the class sits in the runtime's bookkeeping,
    // except one that a CPU has picked and is still switching to.
    for (int cpu = 0; cpu < s_.core->ncpus(); ++cpu) {
      size_t runnable = 0;
      for (const Task* t : tasks_) {
        runnable += t->sched_class() == rt_ && t->state() == TaskState::kRunnable &&
                    t->cpu() == cpu;
      }
      const size_t queued = rt_->QueuedCount(cpu);
      EXPECT_TRUE(queued == runnable || (queued + 1 == runnable && s_.core->CpuInSwitch(cpu)))
          << "cpu " << cpu << " queued " << queued << " runnable " << runnable;
    }
  }

  bool AllDead() const {
    return std::all_of(tasks_.begin(), tasks_.end(),
                       [](const Task* t) { return t->state() == TaskState::kDead; });
  }

  FaultStack s_;
  EnokiRuntime* rt_;
  std::set<std::pair<SlotState, SlotState>>* edges_;
  LadderWalk walk_;
  std::vector<Task*> tasks_;
  SlotState last_ = SlotState::kActive;
};

TEST(LadderModelCheck, EverySequenceOfUpToFourEventsKeepsTheInvariants) {
  std::set<std::pair<SlotState, SlotState>> edges;
  std::set<SlotState> states;
  int sequences = 0;
  for (int len = 0; len <= 4; ++len) {
    int count = 1;
    for (int i = 0; i < len; ++i) {
      count *= kLadderEvents;
    }
    for (int code = 0; code < count; ++code) {
      std::string events;  // the sequence as event digits, for failure messages
      LadderModel model(&edges);
      for (int i = 0, c = code; i < len; ++i, c /= kLadderEvents) {
        events.push_back(static_cast<char>('0' + c % kLadderEvents));
        SCOPED_TRACE(events);
        model.Apply(static_cast<LadderEvent>(c % kLadderEvents));
      }
      SCOPED_TRACE(events);
      EXPECT_TRUE(model.Drain()) << "a task never exited";
      states.insert(model.seen().begin(), model.seen().end());
      ++sequences;
      if (HasFailure()) {
        return;  // one failing sequence is enough to debug
      }
    }
  }
  EXPECT_EQ(sequences, 1 + 8 + 64 + 512 + 4096);
  EXPECT_EQ(states.size(), 7u);
  for (const auto& edge : LegalLadderEdges()) {
    EXPECT_EQ(edges.count(edge), 1u) << "edge never taken: " << static_cast<int>(edge.first)
                                     << " -> " << static_cast<int>(edge.second);
  }
}

// ---- Seeded sweeps (acceptance criteria) ----

// Digests of all seeds' outcomes (see tests/sweep_digest.h).
constexpr uint64_t kUpgradeSweepDigest = 0x0ba703c22084a944ull;
constexpr uint64_t kSupervisorSweepDigest = 0x213a02288ec70387ull;

struct UpgradeSweepOutcome {
  bool completed = false;
  bool quarantined = false;
  bool fallback = false;
  uint64_t upgrades = 0;
  uint64_t rollbacks = 0;
  std::string report;
  Time end_time = 0;
};

UpgradeSweepOutcome RunUpgradeSweep(uint64_t seed) {
  FaultStack s = MakeFaultStack(InjectedWfq(FaultPlan::UpgradeMenu(seed)));
  WatchdogConfig cfg;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt, seed] {
    // The incoming module misbehaves at the upgrade boundary: prepare
    // refusal comes from the outgoing injector, init-throw and probation
    // misbehavior from the incoming one.
    (void)rt->Upgrade(InjectedWfq(FaultPlan::UpgradeMenu(seed ^ 0xBADC0FFEull)));
  });
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  UpgradeSweepOutcome out;
  out.completed = r.completed;
  out.quarantined = rt->quarantined();
  out.fallback = rt->ladder().fallback_done();
  out.upgrades = rt->ladder().upgrades();
  out.rollbacks = rt->rollbacks();
  if (rt->ladder().crash_report().has_value()) {
    out.report = rt->ladder().crash_report()->ToString();
  }
  out.end_time = s.core->now();
  return out;
}

TEST(RecoverySweep, UpgradeBoundaryHundredSeedsZeroTaskLossZeroFallback) {
  int refused = 0, rolled_back = 0, committed = 0;
  SweepDigest digest;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    UpgradeSweepOutcome a = RunUpgradeSweep(seed);
    for (uint64_t v : {uint64_t{a.completed}, uint64_t{a.quarantined}, uint64_t{a.fallback},
                       a.upgrades, a.rollbacks, a.end_time}) {
      digest.Add(v);
    }
    digest.Add(a.report);
    // Zero task loss, and the transactional ladder always has a rollback
    // target here — the terminal CFS rung must never be reached.
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    EXPECT_FALSE(a.quarantined) << "seed " << seed;
    EXPECT_FALSE(a.fallback) << "seed " << seed;
    // Determinism: identical seed, identical recovery — down to the
    // CrashReport rendering and the final simulated clock.
    UpgradeSweepOutcome b = RunUpgradeSweep(seed);
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.upgrades, b.upgrades) << "seed " << seed;
    EXPECT_EQ(a.rollbacks, b.rollbacks) << "seed " << seed;
    EXPECT_EQ(a.report, b.report) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
    if (a.rollbacks > 0) {
      ++rolled_back;
    } else if (a.upgrades > 0) {
      ++committed;
    } else {
      ++refused;
    }
  }
  // The menu must actually exercise every arm of the transaction.
  EXPECT_GT(refused, 0);
  EXPECT_GT(rolled_back, 0);
  EXPECT_GT(committed, 0);
  EXPECT_EQ(digest.value(), kUpgradeSweepDigest) << std::hex << digest.value();
}

struct SupervisorSweepOutcome {
  bool completed = false;
  bool quarantined = false;
  bool fallback = false;
  uint64_t restarts = 0;
  uint64_t escalations = 0;
  std::string timeline;
  std::string report;
  Time end_time = 0;
};

SupervisorSweepOutcome RunSupervisorSweep(uint64_t seed) {
  FaultStack s = MakeFaultStack(InjectedWfq(FaultPlan::FullMenu(seed)));
  s.runtime->CreateRevQueue(64);  // give hint floods somewhere to land
  WatchdogConfig cfg;
  cfg.callback_budget_ns = Milliseconds(5);
  cfg.max_escaped_exceptions = 3;
  cfg.max_pick_errors = 8;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                              [seed] { return InjectedWfq(FaultPlan::FullMenu(seed)); });
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  SupervisorSweepOutcome out;
  out.completed = r.completed;
  out.quarantined = s.runtime->quarantined();
  out.fallback = s.runtime->ladder().fallback_done();
  out.restarts = s.runtime->module_restarts();
  out.escalations = s.runtime->ladder().supervisor()->escalations();
  out.timeline = s.runtime->ladder().supervisor()->TimelineString();
  if (s.runtime->ladder().crash_report().has_value()) {
    out.report = s.runtime->ladder().crash_report()->ToString();
  }
  out.end_time = s.core->now();
  return out;
}

TEST(RecoverySweep, SupervisorTwoHundredSeedsZeroTaskLoss) {
  int restarted_seeds = 0, escalated_seeds = 0;
  SweepDigest digest;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SupervisorSweepOutcome a = RunSupervisorSweep(seed);
    for (uint64_t v : {uint64_t{a.completed}, uint64_t{a.quarantined}, uint64_t{a.fallback},
                       a.restarts, a.escalations, a.end_time}) {
      digest.Add(v);
    }
    digest.Add(a.timeline);
    digest.Add(a.report);
    // Zero task loss on every rung of the ladder.
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    // Zero CFS fallbacks whenever the restart budget sufficed.
    if (a.escalations == 0) {
      EXPECT_FALSE(a.fallback) << "seed " << seed;
      EXPECT_FALSE(a.quarantined) << "seed " << seed;
    }
    // Determinism: identical seed, identical recovery timeline.
    SupervisorSweepOutcome b = RunSupervisorSweep(seed);
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.restarts, b.restarts) << "seed " << seed;
    EXPECT_EQ(a.escalations, b.escalations) << "seed " << seed;
    EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
    EXPECT_EQ(a.report, b.report) << "seed " << seed;
    EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
    restarted_seeds += a.restarts > 0 ? 1 : 0;
    escalated_seeds += a.escalations > 0 ? 1 : 0;
  }
  // The sweep must exercise both the self-healing and the terminal rung.
  EXPECT_GT(restarted_seeds, 0);
  EXPECT_GT(escalated_seeds, 0);
  EXPECT_EQ(digest.value(), kSupervisorSweepDigest) << std::hex << digest.value();
}

// ---- Replay graceful degradation ----

std::vector<RecordEntry> RecordPipeTrace(uint64_t messages) {
  Recorder recorder(1 << 20);
  SetLockHooks(&recorder);
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(std::make_unique<WfqSched>(0));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
    PipeBenchConfig cfg;
    cfg.messages = messages;
    EXPECT_TRUE(RunPipeBench(core, policy, cfg).completed);
  }
  SetLockHooks(nullptr);
  return recorder.TakeLog();
}

TEST(ReplayDegradation, TruncatedTraceCountsTimeoutsInsteadOfHanging) {
  // Simulate a record-ring overrun: a middle window of *call* entries is
  // gone while the lock-order entries survive, so some recorded lock turns
  // can never arrive. Replay must count lock_timeouts (and possibly
  // mismatches) and finish — degradation is reported, not fatal.
  auto log = RecordPipeTrace(100);
  ASSERT_GT(log.size(), 300u);
  const size_t lo = log.size() / 3;
  const size_t hi = 2 * log.size() / 3;
  std::vector<RecordEntry> truncated;
  truncated.reserve(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    if (i >= lo && i < hi && IsModuleCall(log[i].type)) {
      continue;  // the ring overwrote these calls
    }
    truncated.push_back(log[i]);
  }
  ASSERT_LT(truncated.size(), log.size());

  ReplayEngine engine(truncated, 8, /*max_outstanding=*/16, /*lock_wait_timeout_ms=*/50);
  engine.InstallHooks();
  auto module = std::make_unique<WfqSched>(0);
  module->Attach(engine.env());
  auto result = engine.Run(module.get());
  EXPECT_GT(result.calls_replayed, 0u);
  // The dropped calls held recorded lock turns: waiting threads must have
  // timed out (gracefully) rather than deadlocking.
  EXPECT_GT(result.lock_timeouts, 0u);
}

}  // namespace
}  // namespace enoki

// Tests for the deepened recovery ladder: the CheckpointStore generation
// ring, metadata-sealed checksums, periodic CheckpointNow() cadence,
// per-policy probation budgets, version-fingerprint flap damping,
// cross-MachineSpec checkpoint renormalization, and the versioned v1
// checkpoint formats of the locality / nest / ghost policies. The capstone
// is a 100-seed sweep mixing upgrade-boundary faults with ring-slot bit-rot
// and crash-during-CheckpointNow, asserting zero task loss and
// byte-identical fallback order (restore timelines) across reruns.

#include <gtest/gtest.h>

#include <memory>
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
#include "src/sched/ext/central.h"
#include "src/sched/ext/rusty.h"
#include "src/sched/ghost.h"
#include "src/sched/locality.h"
#include "src/sched/nest.h"
#include "src/sched/nice_weights.h"
#include "src/sched/wfq.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/pipe.h"
#include "tests/fault_stack.h"
#include "tests/sweep_digest.h"

namespace enoki {
namespace {

// ---- CheckpointStore: the generation ring ----

Checkpoint MakeSealed(uint64_t seq, Time taken_at = 0, uint64_t fp = 0) {
  ByteWriter w;
  w.U64(seq * 1000);
  Checkpoint ck;
  ck.state_version = 1;
  ck.sequence = seq;
  ck.taken_at = taken_at;
  ck.module_fingerprint = fp;
  ck.bytes = w.Take();
  ck.Seal();
  return ck;
}

TEST(CheckpointStore, PushEvictsOldestAtCapacity) {
  CheckpointStore store(3);
  EXPECT_TRUE(store.empty());
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    store.Push(MakeSealed(seq));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.pushed(), 5u);
  EXPECT_EQ(store.evicted(), 2u);
  // Newest-first indexing: generations 5, 4, 3 remain.
  EXPECT_EQ(store.FromNewest(0).sequence, 5u);
  EXPECT_EQ(store.FromNewest(1).sequence, 4u);
  EXPECT_EQ(store.FromNewest(2).sequence, 3u);
  EXPECT_EQ(store.newest()->sequence, 5u);
}

TEST(CheckpointStore, DropNewestWalksBackward) {
  CheckpointStore store(4);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    store.Push(MakeSealed(seq));
  }
  store.DropNewest();
  EXPECT_EQ(store.newest()->sequence, 2u);
  store.DropNewest();
  EXPECT_EQ(store.newest()->sequence, 1u);
  store.DropNewest();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.newest(), nullptr);
  store.DropNewest();  // harmless on empty
}

TEST(CheckpointStore, ShrinkingCapacityEvictsOldest) {
  CheckpointStore store(4);
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    store.Push(MakeSealed(seq));
  }
  store.set_capacity(2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.FromNewest(0).sequence, 4u);
  EXPECT_EQ(store.FromNewest(1).sequence, 3u);
  EXPECT_EQ(store.evicted(), 2u);
}

// ---- Metadata-sealed checksums ----

TEST(CheckpointSeal, CoversSequenceTakenAtAndFingerprint) {
  Checkpoint ck = MakeSealed(7, Milliseconds(3), 0xFEEDull);
  ASSERT_TRUE(ck.Valid());

  // A stale generation replayed into a different ring slot: same payload,
  // forged sequence. The seal must break.
  ck.sequence = 8;
  EXPECT_FALSE(ck.Valid());
  ck.sequence = 7;
  EXPECT_TRUE(ck.Valid());

  ck.taken_at = Milliseconds(4);
  EXPECT_FALSE(ck.Valid());
  ck.taken_at = Milliseconds(3);
  EXPECT_TRUE(ck.Valid());

  ck.module_fingerprint = 0xBEEFull;
  EXPECT_FALSE(ck.Valid());
  ck.module_fingerprint = 0xFEEDull;
  EXPECT_TRUE(ck.Valid());
}

// ---- Version fingerprints and per-policy probation defaults ----

TEST(VersionFingerprint, StablePerBuildDistinctAcrossPolicies) {
  WfqSched a(0), b(0), c(1);
  NestSched n(0);
  EXPECT_NE(a.VersionFingerprint(), 0u);
  EXPECT_EQ(a.VersionFingerprint(), b.VersionFingerprint());  // same build
  EXPECT_NE(a.VersionFingerprint(), c.VersionFingerprint());  // policy id folded
  EXPECT_NE(a.VersionFingerprint(), n.VersionFingerprint());  // type folded
}

TEST(DefaultProbation, PoliciesDeclareTheirOwnBudgets) {
  const ProbationConfig base;
  CentralSched central(0);
  EXPECT_EQ(central.DefaultProbation().max_pick_errors, 8u);
  EXPECT_EQ(central.DefaultProbation().window_ns, base.window_ns);
  EXPECT_EQ(central.DefaultProbation().window_calls, base.window_calls);
  RustySched rusty(0);
  EXPECT_EQ(rusty.DefaultProbation().max_balance_errors, 64u);
  EXPECT_EQ(rusty.DefaultProbation().window_ns, base.window_ns);
  // Policies without an override keep the ladder defaults.
  WfqSched wfq(0);
  EXPECT_EQ(wfq.DefaultProbation().max_pick_errors, base.max_pick_errors);
  // Decorators are transparent: the inner module's budgets and identity win.
  FaultPlan plan;
  FaultInjector inj(std::make_unique<CentralSched>(0), plan);
  EXPECT_EQ(inj.DefaultProbation().max_pick_errors, 8u);
  EXPECT_EQ(inj.VersionFingerprint(), CentralSched(0).VersionFingerprint());
}

// ---- Policy checkpoint round-trips (locality / nest / ghost) ----

TaskMessage Msg(uint64_t pid, int cpu, int nice = 0) {
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = cpu;
  msg.prev_cpu = cpu;
  msg.nice = nice;
  return msg;
}

TEST(LocalityCheckpoint, RoundTripKeepsCoLocationAcrossMachineShapes) {
  ReplayEnv env(4);
  LocalitySched a(0, /*use_hints=*/true);
  a.Attach(&env);
  HintBlob h;
  h.w[0] = 1;  // pid 1 -> group 7
  h.w[1] = 7;
  a.ParseHint(h);
  h.w[0] = 2;  // pid 2 -> group 7
  a.ParseHint(h);
  h.w[0] = 3;  // pid 3 -> group 9 (a second group advances the cursor)
  h.w[1] = 9;
  a.ParseHint(h);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 1u);
  const std::vector<uint8_t> bytes = w.Take();

  // Same shape: byte-for-byte identical placement.
  LocalitySched b(0, /*use_hints=*/true);
  b.Attach(&env);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(b.LoadCheckpoint(1, &r));
  }
  EXPECT_EQ(b.SelectTaskRq(Msg(1, 0)), a.SelectTaskRq(Msg(1, 0)));
  EXPECT_EQ(b.SelectTaskRq(Msg(1, 0)), b.SelectTaskRq(Msg(2, 0)));

  // Shrunk machine: homes renormalize by % live instead of being dropped —
  // the group still has one stable home and co-location survives.
  ReplayEnv small(2);
  LocalitySched c(0, /*use_hints=*/true);
  c.Attach(&small);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(c.LoadCheckpoint(1, &r));
  }
  const int home1 = c.SelectTaskRq(Msg(1, 0));
  EXPECT_LT(home1, 2);
  EXPECT_EQ(home1, c.SelectTaskRq(Msg(2, 0)));
}

TEST(LocalityCheckpoint, RejectsWrongVersionTruncationAndGarbage) {
  ReplayEnv env(2);
  LocalitySched s(0, /*use_hints=*/true);
  s.Attach(&env);

  ByteWriter w;
  w.U64(1);  // cursor
  w.U64(0);  // no groups
  w.U64(0);  // no pids
  const std::vector<uint8_t> good = w.bytes();
  {
    ByteReader r(good);
    EXPECT_FALSE(s.LoadCheckpoint(2, &r));  // unknown future version
  }
  {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + 10);
    ByteReader r(truncated);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
  {
    ByteWriter bad;
    bad.U64(0);
    bad.U64(0);
    bad.U64(1);  // one membership...
    bad.U64(0);  // ...for pid 0 (pids are assigned from 1)
    bad.U64(3);
    const std::vector<uint8_t> bytes = bad.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
}

TEST(NestCheckpoint, RoundTripKeepsWarmCoresAndFoldsOnShrink) {
  ReplayEnv env(8);
  NestSched a(0);
  a.Attach(&env);
  // Touch core 2 early (will have decayed cold by 3ms) and core 6 late
  // (still inside the 2ms decay horizon at 3ms).
  env.SetNow(Microseconds(500));
  a.TaskNew(Msg(1, 2), SchedulableMinter::Mint(1, 2, 1));
  (void)a.PickNextTask(2, std::nullopt);
  env.SetNow(Microseconds(2500));
  a.TaskNew(Msg(2, 6), SchedulableMinter::Mint(2, 6, 1));
  (void)a.PickNextTask(6, std::nullopt);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 1u);
  const std::vector<uint8_t> bytes = w.Take();

  // Same shape: warm cores restored exactly.
  NestSched b(0);
  b.Attach(&env);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(b.LoadCheckpoint(1, &r));
  }
  env.SetNow(Milliseconds(3));  // decay horizon 2ms: only the 2.5ms core is warm
  EXPECT_EQ(b.WarmCoreCount(), 1u);
  EXPECT_EQ(b.SelectTaskRq(Msg(9, 0)), 6);  // wakeup lands on the warm core

  // Shrunk machine: recency folds by cpu % live keeping the most recent use,
  // so cores 2 and 6 both land on slot 2 and the nest stays warm there.
  ReplayEnv small(4);
  small.SetNow(Milliseconds(3));
  NestSched c(0);
  c.Attach(&small);
  {
    ByteReader r(bytes);
    ASSERT_TRUE(c.LoadCheckpoint(1, &r));
  }
  EXPECT_EQ(c.WarmCoreCount(), 1u);
  EXPECT_EQ(c.SelectTaskRq(Msg(9, 0)), 2);
}

TEST(NestCheckpoint, RejectsWrongVersionTruncationAndGarbage) {
  ReplayEnv env(4);
  NestSched s(0);
  s.Attach(&env);
  ByteWriter w;
  w.U64(4);
  for (int i = 0; i < 4; ++i) {
    w.U64(0);
  }
  const std::vector<uint8_t> good = w.bytes();
  {
    ByteReader r(good);
    EXPECT_FALSE(s.LoadCheckpoint(2, &r));
  }
  {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + 12);
    ByteReader r(truncated);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
  {
    ByteWriter bad;
    bad.U64(100000);  // absurd cpu count
    const std::vector<uint8_t> bytes = bad.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
}

TEST(GhostCheckpoint, RoundTripRestoresAgentCursors) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  GhostClass a(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
  GhostClass b(GhostClass::Mode::kPerCpuFifo, CpuMask::All(8));
  const int ga = core.RegisterClass(&a);
  core.RegisterClass(&b);
  // Creating tasks in the ghost class drives the arrival cursor, message
  // counter, and round-robin placement cursor exactly like live traffic.
  core.CreateTaskOn("g1", MakeFnBody([](SimContext&) { return Action::Exit(); }), ga, 0,
                    CpuMask::All(8));
  core.CreateTaskOn("g2", MakeFnBody([](SimContext&) { return Action::Exit(); }), ga, 0,
                    CpuMask::All(8));
  EXPECT_GE(a.messages(), 2u);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  EXPECT_EQ(a.CheckpointVersion(), 1u);
  const std::vector<uint8_t> bytes = w.Take();

  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(1, &r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.messages(), a.messages());
  EXPECT_EQ(b.commits(), a.commits());
}

TEST(GhostCheckpoint, RejectsWrongVersionTruncationAndGarbage) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  GhostClass s(GhostClass::Mode::kSol, CpuMask::All(8));
  s.Attach(&core);
  ByteWriter w;
  w.U64(5);  // next_seq
  w.U64(2);  // commits
  w.U64(9);  // messages
  w.U64(3);  // rr cursor
  const std::vector<uint8_t> good = w.bytes();
  {
    ByteReader r(good);
    EXPECT_FALSE(s.LoadCheckpoint(2, &r));  // unknown future version
  }
  {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + 20);
    ByteReader r(truncated);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
  {
    ByteWriter bad;
    bad.U64(0);  // sequence cursors start at 1
    bad.U64(0);
    bad.U64(0);
    bad.U64(0);
    const std::vector<uint8_t> bytes = bad.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(s.LoadCheckpoint(1, &r));
  }
}

// ---- Cross-MachineSpec renormalization (WFQ) ----

// Builds a WFQ v2 payload for `ncpus` with the given per-CPU vruntime
// baselines and no entities.
std::vector<uint8_t> WfqPayload(const std::vector<uint64_t>& cursors) {
  ByteWriter w;
  w.U64(cursors.size());
  for (uint64_t c : cursors) {
    w.U64(c);
  }
  w.U64(0);  // no entities
  return w.Take();
}

TEST(WfqRenormalization, ShrinkFoldsBaselinesByMin) {
  // 8 saved CPUs with baselines 10ms..80ms, restored onto 4: slot k folds
  // min(saved[k], saved[k+4]) so restored sleepers join at the *fair* (low)
  // frontier instead of a starving high one.
  std::vector<uint64_t> cursors;
  for (uint64_t cpu = 0; cpu < 8; ++cpu) {
    cursors.push_back(Milliseconds(10) * (cpu + 1));
  }
  const std::vector<uint8_t> bytes = WfqPayload(cursors);

  ReplayEnv env(4);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));

  // A first-sighting wakeup on cpu 1 adopts at the sleeper floor of that
  // cpu's baseline: min(20ms, 60ms) = 20ms, so vruntime lands within
  // [20ms - sched_latency, 20ms]. A max fold (60ms) would land far above.
  s.TaskWakeup(Msg(42, 1), SchedulableMinter::Mint(42, 1, 1));
  EXPECT_GE(s.VruntimeOf(42), Milliseconds(20) - WfqSched::kSchedLatencyNs);
  EXPECT_LE(s.VruntimeOf(42), Milliseconds(20));
}

TEST(WfqRenormalization, GrowSeedsNewCpusAtGlobalMin) {
  // 2 saved CPUs restored onto 8: the 6 new CPUs start at the global minimum
  // baseline (30ms), not at zero — a zero baseline would hand every task
  // placed there a huge fairness credit over restored ones.
  const std::vector<uint8_t> bytes =
      WfqPayload({Milliseconds(40), Milliseconds(30)});
  ReplayEnv env(8);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));

  s.TaskWakeup(Msg(43, 5), SchedulableMinter::Mint(43, 5, 1));
  EXPECT_GE(s.VruntimeOf(43), Milliseconds(30) - WfqSched::kSchedLatencyNs);
  EXPECT_LE(s.VruntimeOf(43), Milliseconds(30));
}

TEST(WfqRenormalization, EntityCpuRemapsInsteadOfDropping) {
  // An entity parked on cpu 6 restores onto a 4-CPU machine at cpu 6 % 4,
  // with its accounting intact.
  ByteWriter w;
  w.U64(8);
  for (int cpu = 0; cpu < 8; ++cpu) {
    w.U64(Milliseconds(1));
  }
  w.U64(1);  // one entity
  w.U64(7);  // pid
  w.U64(Milliseconds(2));
  w.U64(NiceToWeight(0));
  w.U64(0);
  w.U64(0);
  w.U64(6);  // cpu on the old machine
  const std::vector<uint8_t> bytes = w.Take();

  ReplayEnv env(4);
  WfqSched s(0);
  s.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(s.LoadCheckpoint(2, &r));
  EXPECT_EQ(s.VruntimeOf(7), Milliseconds(2));
  EXPECT_EQ(s.WeightOf(7), NiceToWeight(0));
}

// ---- Runtime integration: the generation ring end to end ----

std::unique_ptr<FaultInjector> InjectedWfq(FaultPlan plan) {
  return std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);
}

TEST(GenerationRing, RestoreSkipsCorruptGenerationsInOrder) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  // Three generations: the supervisor's seed plus two explicit saves.
  s.core->loop().ScheduleAfter(Milliseconds(1),
                               [rt] { EXPECT_TRUE(rt->ladder().CheckpointNow()); });
  s.core->loop().ScheduleAfter(Milliseconds(2),
                               [rt] { EXPECT_TRUE(rt->ladder().CheckpointNow()); });
  s.core->loop().ScheduleAfter(Milliseconds(3), [rt] {
    ASSERT_EQ(rt->ladder().checkpoint_store().size(), 3u);
    // Rot the two NEWEST generations in storage; the oldest stays clean.
    rt->ladder().mutable_checkpoint_store()->MutableFromNewest(0)->bytes[0] ^= 0xFF;
    rt->ladder().mutable_checkpoint_store()->MutableFromNewest(1)->bytes[0] ^= 0xFF;
    rt->ladder().AbortModule("abort with a rotten ring");
  });
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_EQ(rt->module_restarts(), 1u);
  // Both rotten generations were rejected by checksum — never deserialized —
  // and the walk landed on the third (depth 3), oldest, clean generation.
  EXPECT_EQ(rt->ladder().checkpoint_rejects(), 2u);
  EXPECT_GE(rt->ladder().restore_fallbacks(), 2u);
  EXPECT_EQ(rt->ladder().last_restore_depth(), 3u);
  EXPECT_GT(rt->ladder().last_restore_age_ns(), 0);
  ASSERT_GE(rt->ladder().supervisor()->timeline().size(), 1u);
  EXPECT_TRUE(rt->ladder().supervisor()->timeline()[0].restored_from_checkpoint);
  // The timeline records the walk newest -> oldest, with reasons.
  const std::string timeline = rt->RestoreTimelineString();
  const size_t skip3 = timeline.find("skip seq=3");
  const size_t skip2 = timeline.find("skip seq=2");
  const size_t restore1 = timeline.find("restore seq=1");
  ASSERT_NE(skip3, std::string::npos) << timeline;
  ASSERT_NE(skip2, std::string::npos) << timeline;
  ASSERT_NE(restore1, std::string::npos) << timeline;
  EXPECT_LT(skip3, skip2);
  EXPECT_LT(skip2, restore1);
  EXPECT_NE(timeline.find("reason=checksum"), std::string::npos);
}

TEST(GenerationRing, RestoreSkipsForeignAndRefusedGenerations) {
  // Two validly sealed generations the checksum cannot catch: one saved by
  // another module build, one whose payload the module's loader refuses.
  // The walk must pass over both and restore the supervisor's seed.
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                       [] { return std::make_unique<WfqSched>(0); });
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    ASSERT_EQ(rt->ladder().checkpoint_store().size(), 1u);
    const Checkpoint seed = *rt->ladder().checkpoint_store().newest();
    Checkpoint refused = seed;
    refused.sequence = 101;
    refused.bytes.resize(3);  // truncated: WFQ's loader refuses it
    refused.Seal();
    rt->ladder().mutable_checkpoint_store()->Push(refused);
    Checkpoint foreign = seed;
    foreign.sequence = 102;
    foreign.module_fingerprint ^= 1;
    foreign.Seal();
    rt->ladder().mutable_checkpoint_store()->Push(foreign);
    rt->ladder().AbortModule("abort with foreign and refused generations");
  });
  PipeBenchConfig cfg;
  cfg.messages = 2000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->module_restarts(), 1u);
  EXPECT_EQ(rt->ladder().checkpoint_rejects(), 0u);  // both were validly sealed
  EXPECT_EQ(rt->ladder().restore_fallbacks(), 2u);
  EXPECT_EQ(rt->ladder().last_restore_depth(), 3u);
  const std::string timeline = rt->RestoreTimelineString();
  const size_t foreign = timeline.find("skip seq=102");
  const size_t refused = timeline.find("skip seq=101");
  const size_t restored = timeline.find("restore seq=1 ");
  ASSERT_NE(foreign, std::string::npos) << timeline;
  ASSERT_NE(refused, std::string::npos) << timeline;
  ASSERT_NE(restored, std::string::npos) << timeline;
  EXPECT_LT(foreign, refused);
  EXPECT_LT(refused, restored);
  EXPECT_NE(timeline.find("reason=fingerprint", foreign), std::string::npos);
  EXPECT_NE(timeline.find("reason=load-refused", refused), std::string::npos);
}

TEST(GenerationRing, CapacityBoundsGenerations) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().mutable_checkpoint_store()->set_capacity(2);
  EnokiRuntime* rt = s.runtime.get();
  for (int i = 1; i <= 4; ++i) {
    s.core->loop().ScheduleAfter(Milliseconds(i),
                                 [rt] { EXPECT_TRUE(rt->ladder().CheckpointNow()); });
  }
  PipeBenchConfig cfg;
  cfg.messages = 6000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->ladder().checkpoint_store().size(), 2u);
  EXPECT_EQ(rt->ladder().checkpoint_store().evicted(), 2u);
  EXPECT_EQ(rt->ladder().checkpoint_store().newest()->sequence, 4u);
}

TEST(PeriodicCadence, SavesGenerationsAndSurvivesRestartDeterministically) {
  auto drive = [] {
    FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
    s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    s.runtime->ladder().EnableSupervisor(SupervisorConfig{},
                                [] { return std::make_unique<WfqSched>(0); });
    s.runtime->SetCheckpointInterval(Microseconds(500));
    EnokiRuntime* rt = s.runtime.get();
    s.core->loop().ScheduleAfter(Milliseconds(3),
                                 [rt] { rt->ladder().AbortModule("mid-cadence abort"); });
    PipeBenchConfig cfg;
    cfg.messages = 6000;
    auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
    EXPECT_TRUE(r.completed);
    struct Out {
      uint64_t periodic;
      uint64_t depth;
      Duration age;
      std::string timeline;
      Time end_time;
    } out;
    out.periodic = rt->periodic_checkpoints();
    out.depth = rt->ladder().last_restore_depth();
    out.age = rt->ladder().last_restore_age_ns();
    out.timeline = rt->RestoreTimelineString();
    out.end_time = s.core->now();
    return std::make_tuple(out.periodic, out.depth, out.age, out.timeline, out.end_time);
  };
  auto a = drive();
  auto b = drive();
  // The cadence actually saved between upgrades, the restore consumed the
  // newest (periodic) generation, and the lost window is below the interval
  // plus scheduling jitter — bounded by the cadence, not by upgrade timing.
  EXPECT_GE(std::get<0>(a), 4u);
  EXPECT_EQ(std::get<1>(a), 1u);
  EXPECT_GT(std::get<2>(a), 0);
  EXPECT_LE(std::get<2>(a), Milliseconds(1));
  EXPECT_NE(std::get<3>(a).find("restore"), std::string::npos);
  // Double-run determinism: byte-identical timelines and clocks.
  EXPECT_EQ(a, b);
}

TEST(PeriodicCadence, ArmsOnlyAPositiveIntervalOnAnAttachedLiveRuntime) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EventLoop& loop = s.core->loop();
  uint64_t before = loop.live_events();
  s.runtime->SetCheckpointInterval(0);
  EXPECT_EQ(loop.live_events(), before) << "an interval of 0 armed the cadence";
  s.runtime->SetCheckpointInterval(Microseconds(500));
  EXPECT_EQ(loop.live_events(), before + 1);

  s.core->Start();
  s.core->RunFor(Milliseconds(1));
  s.runtime->ladder().AbortModule("operator abort");
  s.core->RunFor(Milliseconds(1));
  ASSERT_TRUE(s.runtime->quarantined());
  before = loop.live_events();
  s.runtime->SetCheckpointInterval(Microseconds(500));
  EXPECT_EQ(loop.live_events(), before) << "a quarantined runtime armed the cadence";

  // Not yet attached to a core: there is no loop to arm on.
  EnokiRuntime detached(std::make_unique<WfqSched>(0));
  detached.SetCheckpointInterval(Microseconds(500));
}

TEST(PeriodicCadence, CrashDuringCheckpointNowKeepsRing) {
  FaultPlan plan;
  plan.seed = 11;
  plan.checkpoint_crash_rate = 1.0;  // every save crashes
  FaultStack s = MakeFaultStack(InjectedWfq(plan));
  EnokiRuntime* rt = s.runtime.get();
  // Without a watchdog the crash is contained and counted; the ring simply
  // keeps whatever generations it had.
  EXPECT_FALSE(rt->ladder().CheckpointNow());
  EXPECT_EQ(rt->ladder().checkpoint_save_failures(), 1u);
  EXPECT_TRUE(rt->ladder().checkpoint_store().empty());
  EXPECT_EQ(rt->ladder().checkpoint_store().newest(), nullptr);
}

TEST(PeriodicCadence, MidCadenceCrashEscalatesAndLosesNoTasks) {
  FaultPlan plan;
  plan.seed = 21;
  plan.checkpoint_crash_rate = 1.0;
  FaultStack s = MakeFaultStack(InjectedWfq(plan));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{}, [] {
    FaultPlan p;
    p.seed = 21;
    p.checkpoint_crash_rate = 1.0;
    return InjectedWfq(p);
  });
  s.runtime->SetCheckpointInterval(Microseconds(500));
  EnokiRuntime* rt = s.runtime.get();
  PipeBenchConfig cfg;
  cfg.messages = 4000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  // Every save crashes: each one is escalated to the watchdog like any other
  // escaped exception, the ladder runs, and no task is ever lost — the
  // terminal rung at worst.
  EXPECT_TRUE(r.completed);
  EXPECT_GE(rt->ladder().checkpoint_save_failures(), 1u);
  EXPECT_GE(rt->module_restarts() + (rt->quarantined() ? 1u : 0u), 1u);
}

// ---- Flap damping ----

TEST(FlapDamping, RepeatedProbationFailuresRefuseTheFingerprint) {
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  auto misbehaving = [] {
    FaultPlan plan;
    plan.seed = 5;
    plan.probation_misbehave_rate = 1.0;
    return InjectedWfq(plan);
  };
  // Three upgrades of the same build, each tripping inside probation.
  for (int i = 1; i <= 3; ++i) {
    s.core->loop().ScheduleAfter(Milliseconds(2 * i), [rt, misbehaving, i] {
      auto report = rt->Upgrade(misbehaving());
      EXPECT_TRUE(report.ok) << "upgrade " << i;
      EXPECT_NE(report.incoming_fingerprint, 0u);
    });
  }
  // The fourth is refused outright: same fingerprint, three failures inside
  // the rolling window. No quiesce, no pause.
  s.core->loop().ScheduleAfter(Milliseconds(8), [rt, misbehaving] {
    auto report = rt->Upgrade(misbehaving());
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.refused_flapping);
    EXPECT_EQ(report.pause_ns, 0);
    EXPECT_NE(report.error.find("flapping"), std::string::npos);
    // A different build (different policy id => different fingerprint) is
    // not damped by the flapping one's failures.
    auto other = rt->Upgrade(std::make_unique<WfqSched>(1));
    EXPECT_FALSE(other.refused_flapping);
  });
  PipeBenchConfig cfg;
  cfg.messages = 16000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rt->rollbacks(), 3u);
  EXPECT_EQ(rt->ladder().fingerprint_refusals(), 1u);
}

TEST(FlapDamping, WindowDrainAllowsTheFingerprintAgain) {
  // Three failures of one fingerprint inside 50 ms refuse it; once the
  // oldest failure is more than 50 ms old, the fingerprint is admitted.
  static_assert(RecoveryLadder::kFlapMaxFailures == 3);
  static_assert(RecoveryLadder::kFlapWindowNs == Milliseconds(50));
  FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  auto misbehaving = [] {
    FaultPlan plan;
    plan.seed = 7;
    plan.probation_misbehave_rate = 1.0;
    return InjectedWfq(plan);
  };
  for (int i = 1; i <= 3; ++i) {
    s.core->loop().ScheduleAfter(Milliseconds(i), [rt, misbehaving] {
      EXPECT_TRUE(rt->Upgrade(misbehaving()).ok);  // fails probation, rolls back
    });
  }
  // The first failure came just after 1 ms: at 51 ms it is still inside the
  // window, at 52 ms it has drained.
  s.core->loop().ScheduleAfter(Milliseconds(51), [rt, misbehaving] {
    EXPECT_EQ(rt->rollbacks(), 3u);
    EXPECT_TRUE(rt->Upgrade(misbehaving()).refused_flapping);
  });
  s.core->loop().ScheduleAfter(Milliseconds(52), [rt, misbehaving] {
    auto report = rt->Upgrade(misbehaving());
    EXPECT_FALSE(report.refused_flapping);
    EXPECT_TRUE(report.ok);
  });
  PipeBenchConfig cfg;
  cfg.messages = 12000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  s.core->RunUntil(Milliseconds(53));
  EXPECT_EQ(rt->ladder().fingerprint_refusals(), 1u);
  EXPECT_EQ(rt->ladder().upgrades(), 4u);
}

// ---- Per-policy probation through the runtime ----

TEST(UpgradeProbation, UsesIncomingModulesDefaultBudgets) {
  FaultStack s = MakeFaultStack(std::make_unique<CentralSched>(0));
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    auto report = rt->Upgrade(std::make_unique<CentralSched>(0));
    EXPECT_TRUE(report.ok);
    ASSERT_TRUE(rt->ladder().in_probation());
    // The incoming CentralSched's own (looser pick) budget governs the
    // window.
    EXPECT_EQ(rt->ladder().probation().max_pick_errors, 8u);
  });
  PipeBenchConfig cfg;
  cfg.messages = 8000;
  auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
}

// ---- The 100-seed sweep (acceptance criteria) ----

// Digest of all 100 seeds' outcomes (see tests/sweep_digest.h).
constexpr uint64_t kRingSweepDigest = 0xfec5092daa3d840cull;

struct RingSweepOutcome {
  bool completed = false;
  bool quarantined = false;
  bool fallback = false;
  uint64_t restarts = 0;
  uint64_t rollbacks = 0;
  uint64_t periodic = 0;
  uint64_t save_failures = 0;
  uint64_t rejects = 0;
  uint64_t restore_fallbacks = 0;
  uint64_t slot_rot = 0;
  std::string restore_timeline;
  std::string supervisor_timeline;
  std::string report;
  Time end_time = 0;

  bool operator==(const RingSweepOutcome& o) const {
    return completed == o.completed && quarantined == o.quarantined && fallback == o.fallback &&
           restarts == o.restarts && rollbacks == o.rollbacks && periodic == o.periodic &&
           save_failures == o.save_failures && rejects == o.rejects &&
           restore_fallbacks == o.restore_fallbacks && slot_rot == o.slot_rot &&
           restore_timeline == o.restore_timeline &&
           supervisor_timeline == o.supervisor_timeline && report == o.report &&
           end_time == o.end_time;
  }
};

RingSweepOutcome RunRingSweep(uint64_t seed) {
  FaultStack s =
      MakeFaultStack(InjectedWfq(FaultPlan::UpgradeMenu(seed, /*checkpoint_faults=*/true)));
  CheckpointSaboteur sab(seed, /*corrupt_rate=*/0.0, /*slot_rot_rate=*/0.5);
  s.runtime->ladder().SetCheckpointSaboteur(&sab);
  WatchdogConfig cfg;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  s.runtime->ladder().EnableSupervisor(SupervisorConfig{}, [seed] {
    return InjectedWfq(FaultPlan::UpgradeMenu(seed, /*checkpoint_faults=*/true));
  });
  s.runtime->ladder().mutable_checkpoint_store()->set_capacity(3);
  s.runtime->SetCheckpointInterval(Microseconds(250));
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt, seed] {
    // A committed upgrade re-arms the cadence from its own instant.
    if (rt->Upgrade(InjectedWfq(FaultPlan::UpgradeMenu(seed ^ 0xBADC0FFEull,
                                                       /*checkpoint_faults=*/true)))
            .ok) {
      rt->SetCheckpointInterval(Microseconds(250));
    }
  });
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  RingSweepOutcome out;
  out.completed = r.completed;
  out.quarantined = rt->quarantined();
  out.fallback = rt->ladder().fallback_done();
  out.restarts = rt->module_restarts();
  out.rollbacks = rt->rollbacks();
  out.periodic = rt->periodic_checkpoints();
  out.save_failures = rt->ladder().checkpoint_save_failures();
  out.rejects = rt->ladder().checkpoint_rejects();
  out.restore_fallbacks = rt->ladder().restore_fallbacks();
  out.slot_rot = sab.slot_corruptions();
  out.restore_timeline = rt->RestoreTimelineString();
  out.supervisor_timeline = rt->ladder().supervisor()->TimelineString();
  if (rt->ladder().crash_report().has_value()) {
    out.report = rt->ladder().crash_report()->ToString();
  }
  out.end_time = s.core->now();
  return out;
}

TEST(RecoverySweep, RingFaultsHundredSeedsZeroTaskLossIdenticalFallbackOrder) {
  uint64_t seeds_with_periodic = 0, seeds_with_save_crash = 0, seeds_with_rot = 0,
           seeds_with_fallback_walk = 0;
  SweepDigest digest;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RingSweepOutcome a = RunRingSweep(seed);
    for (uint64_t v : {uint64_t{a.completed}, uint64_t{a.quarantined}, uint64_t{a.fallback},
                       a.restarts, a.rollbacks, a.periodic, a.save_failures, a.rejects,
                       a.restore_fallbacks, a.slot_rot, a.end_time}) {
      digest.Add(v);
    }
    for (const std::string* s : {&a.restore_timeline, &a.supervisor_timeline, &a.report}) {
      digest.Add(*s);
    }
    // Zero task loss under ring-slot bit-rot + crash-during-CheckpointNow on
    // every rung — the terminal CFS rung included.
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    // Byte-identical fallback order across reruns: the restore timeline (the
    // exact generations skipped, in order, with reasons) plus the rest of
    // the recovery record.
    RingSweepOutcome b = RunRingSweep(seed);
    EXPECT_TRUE(a == b) << "seed " << seed << " diverged:\n"
                        << a.restore_timeline << "--- vs ---\n"
                        << b.restore_timeline;
    seeds_with_periodic += a.periodic > 0 ? 1 : 0;
    seeds_with_save_crash += a.save_failures > 0 ? 1 : 0;
    seeds_with_rot += a.slot_rot > 0 ? 1 : 0;
    seeds_with_fallback_walk += a.restore_fallbacks > 0 ? 1 : 0;
  }
  // The sweep must actually exercise the new failure modes, not skate by.
  EXPECT_GT(seeds_with_periodic, 0u);
  EXPECT_GT(seeds_with_save_crash, 0u);
  EXPECT_GT(seeds_with_rot, 0u);
  EXPECT_GT(seeds_with_fallback_walk, 0u);
  EXPECT_EQ(digest.value(), kRingSweepDigest) << std::hex << digest.value();
}

}  // namespace
}  // namespace enoki

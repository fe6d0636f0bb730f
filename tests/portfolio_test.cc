// Tests for the sched_ext policy portfolio: central, pair, layered, and
// rusty as Enoki modules. Covers the ravg load-tracking utility, the
// MachineSpec topology extensions (SMT sibling pairs, explicit NUMA node
// maps), each policy's versioned checkpoint (round-trip + malformed-payload
// rejection), paired-workload determinism via double-run fingerprints,
// policy-specific behavior (cookie stalls, layer carving, central pulses,
// cross-domain steals), supervisor restart-from-checkpoint per policy, and
// live upgrades between portfolio policies — including the cross-policy
// commit path, where the incoming module cannot adopt the outgoing one's
// transfer state and the runtime must re-inject every queued task. The
// capstone is a 100-seed cross-policy upgrade sweep on a 16-CPU SMT+NUMA
// box asserting zero task loss and bit-identical recovery for equal seeds.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/enoki/record.h"
#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/fault/injector.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/ext/central.h"
#include "src/sched/ext/layered.h"
#include "src/sched/ext/pair.h"
#include "src/sched/ext/ravg.h"
#include "src/sched/ext/rusty.h"
#include "src/sched/fifo.h"
#include "src/sched/locality.h"
#include "src/sched/nest.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/pipe.h"
#include "src/workloads/portfolio.h"
#include "tests/fault_stack.h"
#include "tests/sweep_digest.h"

namespace enoki {
namespace {

// ---- RunningAvg (ravg.h) ----

TEST(RunningAvg, ConstantInputConvergesToInput) {
  RunningAvg avg(Milliseconds(1));
  avg.Set(0, 100);
  // After many whole windows of constant input, history decays to the input.
  EXPECT_EQ(avg.Read(Milliseconds(100)), 100u);
}

TEST(RunningAvg, DroppedInputHalvesPerWindow) {
  const Duration hl = Milliseconds(1);
  RunningAvg avg(hl);
  avg.Set(0, 128);
  (void)avg.Read(Milliseconds(100));  // converge to 128
  avg.Set(Milliseconds(100), 0);      // input vanishes
  // Read exactly at window boundaries: each closed window halves history.
  uint64_t prev = 128;
  for (int w = 1; w <= 5; ++w) {
    const uint64_t now = avg.Read(Milliseconds(100) + w * hl);
    EXPECT_LE(now, prev) << "window " << w;
    prev = now;
  }
  // Five halvings of 128 with zero input: 128/32 = 4.
  EXPECT_EQ(prev, 4u);
}

TEST(RunningAvg, SaveLoadRoundTripsMidWindow) {
  RunningAvg a(Milliseconds(5));
  a.Set(Microseconds(100), 40);
  a.Set(Microseconds(700), 90);
  (void)a.Read(Milliseconds(12));  // cross windows, land mid-window
  a.Set(Milliseconds(12) + Microseconds(3), 10);

  ByteWriter w;
  ASSERT_TRUE(SaveCheckpointFields(&a, 1, &w));
  const std::vector<uint8_t> bytes = w.Take();
  EXPECT_EQ(bytes.size(), 5 * sizeof(uint64_t));

  RunningAvg b(Milliseconds(5));
  ByteReader r(bytes);
  ASSERT_TRUE(LoadCheckpointFields(&b, 1, 1, &r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(b.current(), a.current());
  const Time probe = Milliseconds(13);
  EXPECT_EQ(b.Read(probe), a.Read(probe));
}

TEST(RunningAvg, LoadRejectsTruncationAndInvertedClock) {
  RunningAvg a;
  a.Set(Milliseconds(1), 7);
  ByteWriter w;
  ASSERT_TRUE(SaveCheckpointFields(&a, 1, &w));
  std::vector<uint8_t> bytes = w.Take();
  bytes.resize(bytes.size() - 1);  // truncated payload
  {
    ByteReader r(bytes);
    RunningAvg b;
    EXPECT_FALSE(LoadCheckpointFields(&b, 1, 1, &r));
  }
  {
    // last < window_start is impossible for monotonic simulated time.
    ByteWriter bad;
    bad.U64(1000);  // window_start
    bad.U64(500);   // last, behind window_start
    bad.U64(0);
    bad.U64(0);
    bad.U64(0);
    const std::vector<uint8_t> bb = bad.Take();
    ByteReader r(bb);
    RunningAvg b;
    EXPECT_FALSE(LoadCheckpointFields(&b, 1, 1, &r));
  }
}

// ---- MachineSpec topology ----

TEST(MachineSpec, DefaultTopologyIsByteCompatible) {
  const MachineSpec spec = MachineSpec::OneSocket8();
  EXPECT_FALSE(spec.smt_pairs);
  EXPECT_TRUE(spec.node_of.empty());
  for (int c = 0; c < spec.ncpus; ++c) {
    EXPECT_EQ(spec.NodeOfCpu(c), c / (spec.ncpus / spec.nodes));
    EXPECT_EQ(spec.SiblingOfCpu(c), -1);
  }
}

TEST(MachineSpec, SmtSiblingsAreXorPairs) {
  const MachineSpec spec = MachineSpec::SmtOneSocket8();
  ASSERT_TRUE(spec.smt_pairs);
  for (int c = 0; c < spec.ncpus; ++c) {
    EXPECT_EQ(spec.SiblingOfCpu(c), c ^ 1);
    EXPECT_EQ(spec.SiblingOfCpu(spec.SiblingOfCpu(c)), c);
  }
}

TEST(MachineSpec, ExplicitNodeMapOverridesFormula) {
  MachineSpec spec = MachineSpec::TwoNode16();
  // The default formula splits 16 CPUs evenly.
  EXPECT_EQ(spec.NodeOfCpu(0), 0);
  EXPECT_EQ(spec.NodeOfCpu(15), 1);
  // An explicit (asymmetric) map wins over the formula.
  spec.node_of.assign(static_cast<size_t>(spec.ncpus), 0);
  spec.node_of[15] = 1;
  for (int c = 0; c < 15; ++c) {
    EXPECT_EQ(spec.NodeOfCpu(c), 0);
  }
  EXPECT_EQ(spec.NodeOfCpu(15), 1);
}

TEST(MachineSpec, PortfolioBoxHasBothSmtAndNuma) {
  const MachineSpec spec = MachineSpec::PortfolioBox16();
  EXPECT_EQ(spec.ncpus, 16);
  EXPECT_EQ(spec.nodes, 2);
  EXPECT_TRUE(spec.smt_pairs);
  // Sibling pairs never straddle nodes on this box.
  for (int c = 0; c < spec.ncpus; ++c) {
    EXPECT_EQ(spec.NodeOfCpu(c), spec.NodeOfCpu(spec.SiblingOfCpu(c)));
  }
}

// ---- Per-policy checkpoints (replay environment, no kernel) ----

TaskMessage Msg(uint64_t pid, int cpu, int nice = 0, Duration runtime = 0) {
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = cpu;
  msg.prev_cpu = cpu;
  msg.runtime = runtime;
  msg.nice = nice;
  return msg;
}

// ReplayEnv models a flat machine (node 0, no SMT). The pair and rusty
// policies are topology-driven, so their checkpoint tests use this richer
// stand-in instead.
class TopoReplayEnv : public ReplayEnv {
 public:
  TopoReplayEnv(int ncpus, int nodes, bool smt) : ReplayEnv(ncpus), nodes_(nodes), smt_(smt) {}

  int NodeOf(int cpu) const override {
    const int per = NumCpus() / nodes_;
    return per > 0 ? cpu / per : 0;
  }
  int SiblingOf(int cpu) const override { return smt_ ? cpu ^ 1 : -1; }

 private:
  int nodes_;
  bool smt_;
};

TEST(CentralCheckpoint, RoundTripRestoresSequenceCursor) {
  ReplayEnv env(4);
  CentralSched a(0);
  a.Attach(&env);
  a.TaskNew(Msg(1, 1), SchedulableMinter::Mint(1, 1, 1));
  a.TaskNew(Msg(2, 2), SchedulableMinter::Mint(2, 2, 1));

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  CentralSched b(0);
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
  // The restored cursor continues the arrival order: a task enqueued after
  // restore must not collide with pre-checkpoint sequence numbers. Verified
  // indirectly: save again and compare payloads.
  ByteWriter w2;
  ASSERT_TRUE(b.SaveCheckpoint(&w2));
  EXPECT_EQ(bytes, w2.Take());
}

TEST(CentralCheckpoint, RejectsWrongVersionTruncationAndGarbage) {
  ReplayEnv env(4);
  CentralSched b(0);
  b.Attach(&env);
  {
    ByteWriter w;
    w.U64(5);
    const std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(b.LoadCheckpoint(/*version=*/99, &r));
  }
  {
    const std::vector<uint8_t> empty;
    ByteReader r(empty);
    EXPECT_FALSE(b.LoadCheckpoint(b.CheckpointVersion(), &r));
  }
  {
    ByteWriter w;
    w.U64(0);  // a zero cursor is never written by SaveCheckpoint
    const std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(b.LoadCheckpoint(b.CheckpointVersion(), &r));
  }
}

TEST(PairCheckpoint, RoundTripRestoresCookies) {
  TopoReplayEnv env(4, 1, /*smt=*/true);
  PairSched a(0);
  a.Attach(&env);
  a.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
  a.TaskNew(Msg(2, 2), SchedulableMinter::Mint(2, 2, 1));
  HintBlob h1;
  h1.w[0] = 1;
  h1.w[1] = 7;
  a.ParseHint(h1);
  HintBlob h2;
  h2.w[0] = 2;
  h2.w[1] = 9;
  a.ParseHint(h2);
  ASSERT_EQ(a.CookieOf(1), 7u);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  PairSched b(0);
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
  // Cookies are hint-derived state: they must survive, or the security
  // constraint silently evaporates on restart.
  EXPECT_EQ(b.CookieOf(1), 7u);
  EXPECT_EQ(b.CookieOf(2), 9u);
  EXPECT_EQ(b.CookieOf(3), 0u);
}

TEST(PairCheckpoint, RejectsMalformedPayloadAndStaysFresh) {
  TopoReplayEnv env(4, 1, /*smt=*/true);
  PairSched b(0);
  b.Attach(&env);
  {
    ByteWriter w;
    w.U64(3);        // next_seq
    w.U64(1000000);  // claims a million cookie entries
    const std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(b.LoadCheckpoint(b.CheckpointVersion(), &r));
  }
  // A failed load leaves the module usable and fresh.
  EXPECT_EQ(b.CookieOf(1), 0u);
  b.TaskNew(Msg(5, 0), SchedulableMinter::Mint(5, 0, 1));
  EXPECT_EQ(b.QueueDepth(0), 1u);
}

TEST(LayeredCheckpoint, RoundTripRestoresVtimes) {
  ReplayEnv env(8);
  LayeredSched a(0, LayeredSched::DefaultThreeTier(8));
  a.Attach(&env);
  a.TaskNew(Msg(1, 0, /*nice=*/-10), SchedulableMinter::Mint(1, 0, 1));
  a.TaskNew(Msg(2, 1, /*nice=*/0), SchedulableMinter::Mint(2, 1, 1));
  a.TaskTick(0, 1, Milliseconds(2));  // advance the hot layer's vtime

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  LayeredSched b(0, LayeredSched::DefaultThreeTier(8));
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
  for (int l = 0; l < b.nlayers(); ++l) {
    EXPECT_EQ(b.VtimeOf(l), a.VtimeOf(l)) << "layer " << l;
  }
}

TEST(LayeredCheckpoint, RejectsLayerCountMismatch) {
  ReplayEnv env(8);
  LayeredSched a(0, LayeredSched::DefaultThreeTier(8));
  a.Attach(&env);
  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  // A two-layer successor cannot adopt a three-layer vtime vector: layer
  // identity would be ambiguous, so the load must fail cleanly.
  std::vector<LayerSpec> two;
  LayerSpec hot;
  hot.name = "hot";
  two.push_back(hot);
  LayerSpec cold;
  cold.name = "cold";
  two.push_back(cold);
  LayeredSched b(0, two);
  b.Attach(&env);
  ByteReader r(bytes);
  EXPECT_FALSE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
}

TEST(RustyCheckpoint, DomainLoadHistorySurvives) {
  TopoReplayEnv env(8, 2, /*smt=*/false);
  RustySched a(0);
  a.Attach(&env);
  ASSERT_EQ(a.ndomains(), 2);
  env.SetNow(Microseconds(100));
  a.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
  a.TaskNew(Msg(2, 1), SchedulableMinter::Mint(2, 1, 1));
  a.TaskNew(Msg(3, 4), SchedulableMinter::Mint(3, 4, 1));
  env.SetNow(Milliseconds(8));
  const uint64_t load0 = a.DomainLoad(0);
  const uint64_t load1 = a.DomainLoad(1);
  EXPECT_GT(load0, 0u);
  EXPECT_GT(load0, load1);  // two tasks on node 0, one on node 1

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  RustySched b(0);
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
  // The decayed averages — not the instantaneous sums, which the runtime
  // rebuilds by re-injection — must match the donor exactly.
  EXPECT_EQ(b.DomainLoad(0), a.DomainLoad(0));
  EXPECT_EQ(b.DomainLoad(1), a.DomainLoad(1));
}

TEST(RustyCheckpoint, RejectsZeroAndAbsurdDomainCounts) {
  TopoReplayEnv env(8, 2, /*smt=*/false);
  RustySched b(0);
  b.Attach(&env);
  {
    ByteWriter w;
    w.U64(1);  // next_seq
    w.U64(0);  // zero domains
    const std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(b.LoadCheckpoint(b.CheckpointVersion(), &r));
  }
  {
    ByteWriter w;
    w.U64(1);
    w.U64(1000);  // absurd domain count
    const std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    EXPECT_FALSE(b.LoadCheckpoint(b.CheckpointVersion(), &r));
  }
}

TEST(ShinjukuCheckpoint, RoundTripAndRejects) {
  ReplayEnv env(4);
  ShinjukuSched a(0);
  a.Attach(&env);
  a.TaskNew(Msg(1, 0), SchedulableMinter::Mint(1, 0, 1));
  a.TaskNew(Msg(2, 1), SchedulableMinter::Mint(2, 1, 1));
  const uint64_t seq_before = a.next_seq();
  EXPECT_GT(seq_before, 1u);

  ByteWriter w;
  ASSERT_TRUE(a.SaveCheckpoint(&w));
  const std::vector<uint8_t> bytes = w.Take();

  ShinjukuSched b(0);
  b.Attach(&env);
  ByteReader r(bytes);
  ASSERT_TRUE(b.LoadCheckpoint(a.CheckpointVersion(), &r));
  EXPECT_EQ(b.next_seq(), seq_before);

  ShinjukuSched c(0);
  c.Attach(&env);
  {
    ByteWriter bad;
    bad.U64(0);
    const std::vector<uint8_t> bb = bad.Take();
    ByteReader rr(bb);
    EXPECT_FALSE(c.LoadCheckpoint(c.CheckpointVersion(), &rr));
  }
  {
    const std::vector<uint8_t> empty;
    ByteReader rr(empty);
    EXPECT_FALSE(c.LoadCheckpoint(c.CheckpointVersion(), &rr));
  }
}

// ---- Paired-workload determinism and behavior ----

TEST(PortfolioDeterminism, CentralTenantMixDoubleRun) {
  auto run = [] {
    FaultStack s = MakeFaultStack(std::make_unique<CentralSched>(0), MachineSpec::OneSocket8());
    TenantMixConfig cfg;
    cfg.rounds = 60;
    TenantMixResult r = RunTenantMix(*s.core, s.enoki_policy, cfg);
    r.end_time = s.core->now();
    return r;
  };
  const TenantMixResult a = run();
  const TenantMixResult b = run();
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PortfolioDeterminism, PairSiblingPairsDoubleRun) {
  auto run = [] {
    FaultStack s = MakeFaultStack(std::make_unique<PairSched>(0), MachineSpec::SmtOneSocket8());
    SiblingPairsConfig cfg;
    cfg.rounds = 80;
    cfg.hint_runtime = s.runtime.get();
    cfg.hint_queue = s.runtime->CreateHintQueue(64);
    SiblingPairsResult r = RunSiblingPairs(*s.core, s.enoki_policy, cfg);
    r.end_time = s.core->now();
    return r;
  };
  const SiblingPairsResult a = run();
  const SiblingPairsResult b = run();
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PortfolioDeterminism, LayeredServiceTiersDoubleRun) {
  auto run = [] {
    FaultStack s = MakeFaultStack(
        std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(8)),
        MachineSpec::OneSocket8());
    ServiceTiersConfig cfg;
    cfg.rounds = 60;
    ServiceTiersResult r = RunServiceTiers(*s.core, s.enoki_policy, cfg);
    r.end_time = s.core->now();
    return r;
  };
  const ServiceTiersResult a = run();
  const ServiceTiersResult b = run();
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.frontend_p99, b.frontend_p99);
  EXPECT_EQ(a.mid_p99, b.mid_p99);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PortfolioDeterminism, RustySocketImbalanceDoubleRun) {
  auto run = [] {
    FaultStack s = MakeFaultStack(std::make_unique<RustySched>(0), MachineSpec::TwoNode16());
    SocketImbalanceConfig cfg;
    cfg.tasks = 16;
    cfg.work_total = Milliseconds(4);
    SocketImbalanceResult r = RunSocketImbalance(*s.core, s.enoki_policy, cfg);
    r.end_time = s.core->now();
    return r;
  };
  const SocketImbalanceResult a = run();
  const SocketImbalanceResult b = run();
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(PortfolioBehavior, CentralPulsesFromDispatchCpu) {
  auto module = std::make_unique<CentralSched>(0);
  CentralSched* central = module.get();
  FaultStack s = MakeFaultStack(std::move(module), MachineSpec::OneSocket8());
  TenantMixConfig cfg;
  cfg.rounds = 60;
  const TenantMixResult r = RunTenantMix(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  // The reserved CPU's timer drove dispatch...
  EXPECT_GT(central->dispatch_pulses(), 0u);
  // ...and the policy itself never placed work there: central_picks counts
  // only runtime-forced placements (affinity fallbacks) on the dispatch CPU.
  EXPECT_EQ(central->central_picks(), 0u);
}

TEST(PortfolioBehavior, PairEnforcesCookiesAndStillCompletes) {
  auto module = std::make_unique<PairSched>(0);
  PairSched* pair = module.get();
  FaultStack s = MakeFaultStack(std::move(module), MachineSpec::SmtOneSocket8());
  SiblingPairsConfig cfg;
  cfg.rounds = 80;
  cfg.cookies = 2;
  cfg.tasks_per_cookie = 8;  // oversubscribed so incompatible pairings arise
  cfg.hint_runtime = s.runtime.get();
  cfg.hint_queue = s.runtime->CreateHintQueue(64);
  const SiblingPairsResult r = RunSiblingPairs(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  // The cookie rule actually bit: some picks were stalled for compatibility,
  // yet no task starved.
  EXPECT_GT(pair->compat_stalls(), 0u);
  EXPECT_EQ(pair->CookieOf(0), 0u);
}

TEST(PortfolioBehavior, LayeredServesEveryLayer) {
  auto module = std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(8));
  LayeredSched* layered = module.get();
  FaultStack s = MakeFaultStack(std::move(module), MachineSpec::OneSocket8());
  ServiceTiersConfig cfg;
  cfg.rounds = 60;
  const ServiceTiersResult r = RunServiceTiers(*s.core, s.enoki_policy, cfg);
  EXPECT_TRUE(r.completed);
  for (int l = 0; l < layered->nlayers(); ++l) {
    EXPECT_GT(layered->PicksIn(l), 0u) << "layer " << l << " was never served";
  }
}

TEST(PortfolioBehavior, RustyStealsAcrossDomainsAfterPinRelease) {
  auto module = std::make_unique<RustySched>(0);
  RustySched* rusty = module.get();
  FaultStack s = MakeFaultStack(std::move(module), MachineSpec::TwoNode16());
  // Default config: 24 tasks pinned to node 0, released at 5ms — the same
  // imbalance the A10 ablation shows greedy stealing resolving.
  const SocketImbalanceResult r = RunSocketImbalance(*s.core, s.enoki_policy, SocketImbalanceConfig{});
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(rusty->ndomains(), 2);
  // The pin release left node 1 idle and node 0 loaded: cross-domain steals
  // are what spreads the work.
  EXPECT_GT(rusty->cross_steals(), 0u);
}

// ---- Supervisor restart-from-checkpoint, per policy ----

struct PortfolioPolicy {
  const char* name;
  MachineSpec spec;
  std::unique_ptr<EnokiSched> (*make)();
};

std::vector<PortfolioPolicy> Portfolio() {
  std::vector<PortfolioPolicy> p;
  p.push_back({"central", MachineSpec::OneSocket8(),
               [] { return std::unique_ptr<EnokiSched>(std::make_unique<CentralSched>(0)); }});
  p.push_back({"pair", MachineSpec::SmtOneSocket8(),
               [] { return std::unique_ptr<EnokiSched>(std::make_unique<PairSched>(0)); }});
  p.push_back({"layered", MachineSpec::OneSocket8(), [] {
                 return std::unique_ptr<EnokiSched>(
                     std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(8)));
               }});
  p.push_back({"rusty", MachineSpec::TwoNode16(),
               [] { return std::unique_ptr<EnokiSched>(std::make_unique<RustySched>(0)); }});
  return p;
}

TEST(PortfolioSupervisor, EachPolicyRestartsFromItsOwnCheckpoint) {
  for (const PortfolioPolicy& policy : Portfolio()) {
    FaultStack s = MakeFaultStack(policy.make(), policy.spec);
    s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    s.runtime->ladder().EnableSupervisor(policy.make);
    EnokiRuntime* rt = s.runtime.get();
    s.core->loop().ScheduleAfter(Milliseconds(1),
                                 [rt] { rt->ladder().AbortModule("injected abort"); });
    PipeBenchConfig cfg;
    cfg.messages = 2000;
    const auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
    EXPECT_TRUE(r.completed) << policy.name << " lost tasks across restart";
    EXPECT_FALSE(rt->quarantined()) << policy.name;
    EXPECT_FALSE(rt->ladder().fallback_done()) << policy.name;
    EXPECT_EQ(rt->module_restarts(), 1u) << policy.name;
    ASSERT_GE(rt->ladder().supervisor()->timeline().size(), 1u) << policy.name;
    // The versioned checkpoint was valid and actually used — the restart is
    // a restore, not a fresh start.
    EXPECT_TRUE(rt->ladder().supervisor()->timeline()[0].restored_from_checkpoint) << policy.name;
  }
}

// ---- Live upgrades across the portfolio ----

TEST(PortfolioUpgrade, EachPolicyUpgradesToAndFromWfq) {
  for (const PortfolioPolicy& policy : Portfolio()) {
    // policy -> WFQ: the cross-policy commit path. The incoming module
    // cannot adopt the foreign transfer, so the runtime re-injects queued
    // tasks; nothing may strand.
    {
      FaultStack s = MakeFaultStack(policy.make(), policy.spec);
      s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
      EnokiRuntime* rt = s.runtime.get();
      s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
        const auto report = rt->Upgrade(std::make_unique<WfqSched>(0));
        EXPECT_TRUE(report.ok) << report.error;
      });
      PipeBenchConfig cfg;
      cfg.messages = 2000;
      const auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
      EXPECT_TRUE(r.completed) << policy.name << " -> wfq stranded tasks";
      EXPECT_EQ(rt->ladder().upgrades(), 1u) << policy.name;
      EXPECT_FALSE(rt->quarantined()) << policy.name;
      EXPECT_FALSE(rt->ladder().fallback_done()) << policy.name;
    }
    // WFQ -> policy: same boundary crossed the other way.
    {
      FaultStack s = MakeFaultStack(std::make_unique<WfqSched>(0), policy.spec);
      s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
      EnokiRuntime* rt = s.runtime.get();
      const PortfolioPolicy* pp = &policy;
      s.core->loop().ScheduleAfter(Milliseconds(1), [rt, pp] {
        const auto report = rt->Upgrade(pp->make());
        EXPECT_TRUE(report.ok) << report.error;
      });
      PipeBenchConfig cfg;
      cfg.messages = 2000;
      const auto r = RunPipeBench(*s.core, s.enoki_policy, cfg);
      EXPECT_TRUE(r.completed) << "wfq -> " << policy.name << " stranded tasks";
      EXPECT_EQ(rt->ladder().upgrades(), 1u) << policy.name;
      EXPECT_FALSE(rt->quarantined()) << policy.name;
      EXPECT_FALSE(rt->ladder().fallback_done()) << policy.name;
    }
  }
}

// Upgrades `from` to `to` 1 ms into a run of 24 CPU-bound tasks on 8 CPUs,
// so tasks are queued at the swap. Returns the wakeups the runtime records
// during the upgrade: one per queued task it re-injects because the
// successor did not adopt the transfer. The tasks never sleep, so no other
// wakeup can land in that window.
uint64_t ReinjectedAtUpgrade(std::unique_ptr<EnokiSched> from, std::unique_ptr<EnokiSched> to,
                             const MachineSpec& spec) {
  FaultStack s = MakeFaultStack(std::move(from), spec);
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.core->Start();
  std::vector<Task*> tasks;
  for (int i = 0; i < 24; ++i) {
    tasks.push_back(s.core->CreateTask(
        std::string("c").append(std::to_string(i)),
        std::make_unique<CpuBoundBody>(Milliseconds(4), Microseconds(50)), s.enoki_policy));
  }
  s.core->RunFor(Milliseconds(1));
  Recorder recorder(1 << 12);
  s.runtime->SetRecorder(&recorder);
  const UpgradeReport report = s.runtime->Upgrade(std::move(to));
  s.runtime->SetRecorder(nullptr);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(s.core->RunUntilTasksDead(tasks, Milliseconds(100)));
  EXPECT_EQ(s.runtime->ladder().upgrades(), 1u);
  EXPECT_FALSE(s.runtime->ladder().fallback_done());
  uint64_t wakeups = 0;
  for (const RecordEntry& e : recorder.TakeLog()) {
    wakeups += e.type == RecordType::kTaskWakeup ? 1 : 0;
  }
  return wakeups;
}

TEST(PortfolioUpgrade, SamePolicyUpgradeConsumesTransferWithoutReinjection) {
  // A same-policy upgrade hands tokens through TransferState; the commit
  // path must NOT re-inject (that would be a spurious wakeup storm). nest
  // and locality adopt the token-and-queue table like every other table
  // policy; before they moved onto it they exported nothing, and every
  // queued task came back through re-injection.
  EXPECT_EQ(ReinjectedAtUpgrade(std::make_unique<FifoSched>(0), std::make_unique<FifoSched>(0),
                                MachineSpec::OneSocket8()),
            0u);
  EXPECT_EQ(ReinjectedAtUpgrade(std::make_unique<PairSched>(0), std::make_unique<PairSched>(0),
                                MachineSpec::SmtOneSocket8()),
            0u);
  EXPECT_EQ(ReinjectedAtUpgrade(std::make_unique<NestSched>(0), std::make_unique<NestSched>(0),
                                MachineSpec::OneSocket8()),
            0u);
  EXPECT_EQ(ReinjectedAtUpgrade(std::make_unique<LocalitySched>(0, /*use_hints=*/false),
                                std::make_unique<LocalitySched>(0, /*use_hints=*/false),
                                MachineSpec::OneSocket8()),
            0u);
  // Across policies the transfer type differs, so every queued task is
  // re-injected: the count above would see them.
  EXPECT_GT(ReinjectedAtUpgrade(std::make_unique<NestSched>(0),
                                std::make_unique<LocalitySched>(0, /*use_hints=*/false),
                                MachineSpec::OneSocket8()),
            0u);
}

// A fifo-to-fifo upgrade carries fifo's round-robin placement cursor in
// its transfer (SaveTransfer/LoadTransfer): right after the swap the
// successor saves the checkpoint its predecessor saved just before it.
TEST(PortfolioUpgrade, FifoUpgradeCarriesThePlacementCursor) {
  FaultStack s = MakeFaultStack(std::make_unique<FifoSched>(0));
  s.core->Start();
  for (int i = 0; i < 3; ++i) {  // the cursor ends on CPU 3 of 8
    s.core->CreateTask(std::string("c").append(std::to_string(i)),
                       std::make_unique<CpuBoundBody>(Milliseconds(1), Microseconds(50)),
                       s.enoki_policy);
  }
  s.core->RunFor(Microseconds(100));
  ByteWriter before;
  ASSERT_TRUE(s.runtime->module()->SaveCheckpoint(&before));
  const UpgradeReport report = s.runtime->Upgrade(std::make_unique<FifoSched>(0));
  ASSERT_TRUE(report.ok) << report.error;
  ByteWriter after;
  ASSERT_TRUE(s.runtime->module()->SaveCheckpoint(&after));
  EXPECT_EQ(after.Take(), before.Take());
}

// A WFQ successor whose first TaskWakeup throws. Behind a cross-policy
// upgrade that first wakeup is a re-injected one.
class ThrowsOnFirstWakeupWfq : public WfqSched {
 public:
  using WfqSched::WfqSched;
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("first wakeup");
    }
    WfqSched::TaskWakeup(msg, std::move(sched));
  }

 private:
  bool thrown_ = false;
};

TEST(PortfolioUpgrade, ThrowDuringReinjectionRollsBackWithoutTaskLoss) {
  // A trip raised while the runtime re-injects queued tasks into a
  // cross-policy successor must climb the ladder like any probation trip:
  // roll back to the predecessor, which gets every queued task back. If the
  // trip were swallowed, probation would commit and the task whose wakeup
  // threw would wait for the starvation bound and the CFS fallback.
  FaultStack s = MakeFaultStack(std::make_unique<CentralSched>(0), MachineSpec::OneSocket8());
  s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
  s.core->Start();
  std::vector<Task*> tasks;
  for (int i = 0; i < 24; ++i) {
    tasks.push_back(s.core->CreateTask(
        std::string("c").append(std::to_string(i)),
        std::make_unique<CpuBoundBody>(Milliseconds(10), Microseconds(50)),
        s.enoki_policy));
  }
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt] {
    EXPECT_TRUE(rt->Upgrade(std::make_unique<ThrowsOnFirstWakeupWfq>(0)).ok);
  });
  EXPECT_TRUE(s.core->RunUntilTasksDead(tasks, Milliseconds(50)));
  EXPECT_EQ(rt->rollbacks(), 1u);
  EXPECT_FALSE(rt->quarantined());
  EXPECT_EQ(rt->ladder().upgrades(), 1u);
}

// The capstone: a 100-seed upgrade sweep *between* portfolio policies on the
// 16-CPU SMT+NUMA box. Each seed picks an ordered (from, to) pair from the
// five-policy set; the incoming module is wrapped in a FaultInjector running
// the upgrade-boundary fault menu, so prepare refusals, init throws, and
// probation misbehavior all land on cross-policy transactions.

std::unique_ptr<EnokiSched> MakePortfolioModule(uint64_t which) {
  switch (which % 5) {
    case 0:
      return std::make_unique<CentralSched>(0);
    case 1:
      return std::make_unique<PairSched>(0);
    case 2:
      return std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(16));
    case 3:
      return std::make_unique<RustySched>(0);
    default:
      return std::make_unique<WfqSched>(0);
  }
}

// Digest of all 100 seeds' outcomes (see tests/sweep_digest.h).
constexpr uint64_t kCrossUpgradeSweepDigest = 0x6972638dfb4ae9efull;

struct CrossUpgradeOutcome {
  bool completed = false;
  bool quarantined = false;
  bool fallback = false;
  uint64_t upgrades = 0;
  uint64_t rollbacks = 0;
  std::string report;
  Time end_time = 0;
};

CrossUpgradeOutcome RunCrossUpgradeSweep(uint64_t seed) {
  const uint64_t from = seed % 5;
  const uint64_t to = (seed / 5 + 1 + from) % 5;  // may equal `from` — fine
  // The outgoing module gets its own injector so prepare refusals (which
  // come from the outgoing side of the transaction) are in the menu too.
  FaultStack s = MakeFaultStack(
      std::make_unique<FaultInjector>(MakePortfolioModule(from), FaultPlan::UpgradeMenu(seed)),
      MachineSpec::PortfolioBox16());
  WatchdogConfig cfg;
  cfg.starvation_bound_ns = Milliseconds(20);
  s.runtime->EnableWatchdog(cfg, s.cfs_policy);
  EnokiRuntime* rt = s.runtime.get();
  s.core->loop().ScheduleAfter(Milliseconds(1), [rt, seed, to] {
    auto inj = std::make_unique<FaultInjector>(MakePortfolioModule(to),
                                               FaultPlan::UpgradeMenu(seed ^ 0xBADC0FFEull));
    (void)rt->Upgrade(std::move(inj));
  });
  PipeBenchConfig pcfg;
  pcfg.messages = 300;
  const auto r = RunPipeBench(*s.core, s.enoki_policy, pcfg);
  CrossUpgradeOutcome out;
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

TEST(PortfolioUpgrade, CrossPolicyHundredSeedsZeroTaskLossZeroFallback) {
  int rolled_back = 0;
  int committed = 0;
  int refused = 0;
  SweepDigest digest;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const CrossUpgradeOutcome a = RunCrossUpgradeSweep(seed);
    for (uint64_t v : {uint64_t{a.completed}, uint64_t{a.quarantined}, uint64_t{a.fallback},
                       a.upgrades, a.rollbacks, a.end_time}) {
      digest.Add(v);
    }
    digest.Add(a.report);
    EXPECT_TRUE(a.completed) << "seed " << seed << " lost tasks";
    EXPECT_FALSE(a.quarantined) << "seed " << seed;
    EXPECT_FALSE(a.fallback) << "seed " << seed;
    const CrossUpgradeOutcome b = RunCrossUpgradeSweep(seed);
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
  // The fault menu must exercise every arm of the cross-policy transaction.
  EXPECT_GT(refused, 0);
  EXPECT_GT(rolled_back, 0);
  EXPECT_GT(committed, 0);
  EXPECT_EQ(digest.value(), kCrossUpgradeSweepDigest) << std::hex << digest.value();
}


// ---- Shared lifecycle callbacks, one typed test over the nine table policies ----

// A flat 4-CPU machine that counts the kernel services a policy asks for.
class CountingEnv : public EnokiKernelEnv {
 public:
  Time Now() const override { return Microseconds(5); }
  int NumCpus() const override { return 4; }
  int NodeOf(int cpu) const override { return 0; }
  void ArmTimer(int cpu, Duration delay) override { ++timers; }
  void ReschedCpu(int cpu) override { ++rescheds; }
  void PushRevHint(int queue_id, const HintBlob& hint) override {}
  int timers = 0;
  int rescheds = 0;
};

template <typename Policy>
std::unique_ptr<Policy> MakeTablePolicy() {
  return std::make_unique<Policy>(0);
}
template <>
std::unique_ptr<LayeredSched> MakeTablePolicy<LayeredSched>() {
  return std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(4));
}
template <>
std::unique_ptr<LocalitySched> MakeTablePolicy<LocalitySched>() {
  return std::make_unique<LocalitySched>(0, /*use_hints=*/false);
}

// Whether a migrated task keeps its place in its policy's order. fifo, nest
// and locality queue it at the tail of its new queue; WFQ renormalizes its
// vruntime onto a tie with the waiting task, and a tie goes to the tail.
template <typename Policy>
constexpr bool kMigrantKeepsOrder = true;
template <>
constexpr bool kMigrantKeepsOrder<WfqSched> = false;
template <>
constexpr bool kMigrantKeepsOrder<FifoSched> = false;
template <>
constexpr bool kMigrantKeepsOrder<NestSched> = false;
template <>
constexpr bool kMigrantKeepsOrder<LocalitySched> = false;

template <typename Policy>
class TableCallbacks : public ::testing::Test {};
using TablePolicies =
    ::testing::Types<WfqSched, CentralSched, PairSched, LayeredSched, RustySched, FifoSched,
                     NestSched, LocalitySched, ShinjukuSched>;
TYPED_TEST_SUITE(TableCallbacks, TablePolicies);

// TaskNew -> TaskYield -> MigrateTaskRq -> TaskBlocked -> TaskDeparted ->
// TaskDead on two tasks. Every policy keeps its queues and tokens
// consistent through the whole life cycle, and hands a token back exactly
// once. Then a migration onto a queue that already holds a younger task
// pins where the migrant lands in its new queue.
TYPED_TEST(TableCallbacks, LifecycleKeepsQueuesAndTokensConsistent) {
  CountingEnv env;
  auto p = MakeTablePolicy<TypeParam>();
  p->Attach(&env);
  auto depths = [&p] {
    std::vector<size_t> d;
    for (int cpu = 0; cpu < 4; ++cpu) {
      d.push_back(p->QueueDepth(cpu));
    }
    return d;
  };
  using Depths = std::vector<size_t>;

  p->TaskNew(Msg(1, 1), SchedulableMinter::Mint(1, 1, 1));
  p->TaskNew(Msg(2, 1), SchedulableMinter::Mint(2, 1, 1));
  EXPECT_EQ(depths(), (Depths{0, 2, 0, 0}));

  // pid 1 runs on CPU 1 and yields back to its queue.
  std::optional<Schedulable> run = p->PickNextTask(1, std::nullopt);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->pid(), 1u);
  EXPECT_EQ(depths(), (Depths{0, 1, 0, 0}));
  p->TaskYield(Msg(1, 1, 0, Microseconds(100)), SchedulableMinter::Mint(1, 1, 2));
  EXPECT_EQ(depths(), (Depths{0, 2, 0, 0}));

  // pid 2 migrates, still queued, to CPU 2; the old token comes back.
  MigrateMessage mig;
  mig.pid = 2;
  mig.from_cpu = 1;
  mig.to_cpu = 2;
  const Schedulable old = p->MigrateTaskRq(mig, SchedulableMinter::Mint(2, 2, 2));
  EXPECT_EQ(old.pid(), 2u);
  EXPECT_EQ(old.cpu(), 1);
  EXPECT_EQ(depths(), (Depths{0, 1, 1, 0}));

  // pid 1 runs again and blocks: no queue entry, no token.
  run = p->PickNextTask(1, std::nullopt);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->pid(), 1u);
  p->TaskBlocked(Msg(1, 1, 0, Microseconds(200)));
  EXPECT_EQ(depths(), (Depths{0, 0, 1, 0}));

  // The queued pid 2 departs with its token, exactly once.
  std::optional<Schedulable> departed = p->TaskDeparted(Msg(2, 2));
  ASSERT_TRUE(departed.has_value());
  EXPECT_EQ(departed->pid(), 2u);
  EXPECT_EQ(departed->cpu(), 2);
  EXPECT_EQ(depths(), (Depths{0, 0, 0, 0}));
  EXPECT_FALSE(p->TaskDeparted(Msg(2, 2)).has_value());
  // A blocked task's token is gone; a pid beyond the table never had one.
  EXPECT_FALSE(p->TaskDeparted(Msg(1, 1)).has_value());
  EXPECT_FALSE(p->TaskDeparted(Msg(uint64_t{1} << 20, 1)).has_value());

  p->TaskDead(1);
  p->TaskDead(2);
  EXPECT_EQ(depths(), (Depths{0, 0, 0, 0}));
  for (int cpu = 0; cpu < 4; ++cpu) {
    EXPECT_FALSE(p->PickNextTask(cpu, std::nullopt).has_value()) << cpu;
  }

  // pid 3 arrives on CPU 1, then pid 4 on CPU 2; pid 3 migrates to CPU 2.
  p->TaskNew(Msg(3, 1), SchedulableMinter::Mint(3, 1, 1));
  p->TaskNew(Msg(4, 2), SchedulableMinter::Mint(4, 2, 1));
  mig.pid = 3;
  (void)p->MigrateTaskRq(mig, SchedulableMinter::Mint(3, 2, 2));
  EXPECT_EQ(depths(), (Depths{0, 0, 2, 0}));
  run = p->PickNextTask(2, std::nullopt);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->pid(), kMigrantKeepsOrder<TypeParam> ? 3u : 4u);
}

// A truncated replay can wake a task the module still holds queued. WFQ's
// charge moves the task's key, so the table must erase the entry under the
// key it was pushed with before charging: otherwise the old entry stays
// behind as a stale duplicate.
TEST(TokenQueueTable, RequeueOfQueuedTaskLeavesOneEntry) {
  CountingEnv env;
  WfqSched wfq(0);
  wfq.Attach(&env);
  wfq.TaskNew(Msg(1, 1), SchedulableMinter::Mint(1, 1, 1));
  wfq.TaskWakeup(Msg(1, 1, 0, Microseconds(50)), SchedulableMinter::Mint(1, 1, 2));
  EXPECT_EQ(wfq.QueueDepth(1), 1u);
  EXPECT_EQ(wfq.VruntimeOf(1), Microseconds(50));
  wfq.TaskBlocked(Msg(1, 1, 0, Microseconds(80)));
  EXPECT_EQ(wfq.QueueDepth(1), 0u);
}

}  // namespace
}  // namespace enoki

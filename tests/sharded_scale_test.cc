// Large-machine smoke tests for the sharded event engine (ctest label:
// "large"). These drive the multitenant workload on the 128- and 256-CPU
// machine specs from ISSUE 7 and assert the core sharding contract at
// scale: the merged simulation fingerprint is byte-identical no matter how
// many host threads execute the shards.
//
// Kept out of the default ctest run (-LE large) because a 256-CPU run is
// slow under sanitizers; CI runs them in a dedicated matrix entry with
// ENOKI_SHARD_THREADS=4.

#include <gtest/gtest.h>

#include "src/workloads/multitenant.h"

namespace enoki {
namespace {

MultitenantConfig ScaleConfig(MachineSpec machine, int nshards) {
  MultitenantConfig cfg;
  cfg.machine = machine;
  cfg.nshards = nshards;
  cfg.tenants_per_group = 8;
  cfg.rate_per_tenant = 2000.0;
  cfg.workers_per_group = 16;
  cfg.warmup = Milliseconds(5);
  cfg.runtime = Milliseconds(40);
  cfg.seed = 77;
  return cfg;
}

TEST(ShardedScale, FourNode128FingerprintStableAcrossThreads) {
  const MachineSpec machine = MachineSpec::FourNode128();
  MultitenantResult base;
  for (int pass = 0; pass < 3; ++pass) {
    const int threads[] = {1, 2, 4};
    MultitenantConfig cfg = ScaleConfig(machine, machine.nodes);
    cfg.shard_threads = threads[pass];
    MultitenantResult r = RunMultitenant(cfg);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.handoffs, 0u);
    if (pass == 0) {
      base = r;
    } else {
      EXPECT_EQ(r.fingerprint, base.fingerprint)
          << "threads=" << threads[pass];
      EXPECT_EQ(r.completed, base.completed);
      EXPECT_EQ(r.events, base.events);
      EXPECT_EQ(r.cross_messages, base.cross_messages);
      EXPECT_EQ(r.p99, base.p99);
    }
  }
}

TEST(ShardedScale, EightNode256FingerprintStableAcrossThreads) {
  const MachineSpec machine = MachineSpec::EightNode256();
  MultitenantConfig cfg = ScaleConfig(machine, machine.nodes);
  cfg.runtime = Milliseconds(25);
  cfg.shard_threads = 1;
  const MultitenantResult serial = RunMultitenant(cfg);
  cfg.shard_threads = 4;
  const MultitenantResult parallel = RunMultitenant(cfg);
  EXPECT_GT(serial.completed, 0u);
  EXPECT_GT(serial.cross_messages, 0u);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.p50, parallel.p50);
  EXPECT_EQ(serial.p99, parallel.p99);
}

MultitenantConfig AdaptiveScaleConfig(MachineSpec machine, int nshards) {
  MultitenantConfig cfg = ScaleConfig(machine, nshards);
  cfg.adaptive_epochs = true;
  // 100us cross-node latency gives the ramp real widening headroom
  // (20us initial window -> up to 100us ceiling).
  cfg.remote_latency = Microseconds(100);
  return cfg;
}

// The adaptive-mode contract: the ramp reads only the committed epoch count,
// so the window schedule — and therefore the merged fingerprint, which
// folds in epochs/widens/final window — is byte-identical for any host
// thread count. Each thread count runs twice to also catch state leaking
// through globals.
TEST(ShardedScale, AdaptiveEpochsFingerprintStableAcrossThreads) {
  const MachineSpec machine = MachineSpec::FourNode128();
  MultitenantResult base;
  bool have_base = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (int threads : {1, 2, 4}) {
      MultitenantConfig cfg = AdaptiveScaleConfig(machine, machine.nodes);
      cfg.shard_threads = threads;
      const MultitenantResult r = RunMultitenant(cfg);
      EXPECT_GT(r.completed, 0u);
      if (!have_base) {
        base = r;
        have_base = true;
        EXPECT_GT(base.widens, 0u) << "window never ramped";
      } else {
        EXPECT_EQ(r.fingerprint, base.fingerprint)
            << "pass=" << pass << " threads=" << threads;
        EXPECT_EQ(r.completed, base.completed);
        EXPECT_EQ(r.events, base.events);
        EXPECT_EQ(r.epochs, base.epochs);
        EXPECT_EQ(r.widens, base.widens);
        EXPECT_EQ(r.final_window_ns, base.final_window_ns);
        EXPECT_EQ(r.p99, base.p99);
      }
    }
  }
}

// Adaptive epochs exist to amortize the barrier: on the same logical system
// (identical cross-node latency) the widened windows must cut the epoch
// count substantially without changing what the simulation computes.
TEST(ShardedScale, AdaptiveEpochsCutEpochCountVsStatic) {
  const MachineSpec machine = MachineSpec::FourNode128();
  MultitenantConfig fixed = ScaleConfig(machine, machine.nodes);
  fixed.remote_latency = Microseconds(100);
  MultitenantConfig adaptive = AdaptiveScaleConfig(machine, machine.nodes);
  const MultitenantResult a = RunMultitenant(fixed);
  const MultitenantResult b = RunMultitenant(adaptive);
  EXPECT_GT(a.epochs, 0u);
  EXPECT_LT(b.epochs * 2, a.epochs)
      << "adaptive mode should at least halve the epoch count here";
  const double ratio =
      static_cast<double>(b.completed) / static_cast<double>(a.completed);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

// With the ceiling at epoch_ns the ramp can never widen the window, so
// adaptive mode must reproduce static mode byte for byte — the adaptive
// machinery itself adds no nondeterminism.
TEST(ShardedScale, AdaptivePinnedWindowMatchesStaticExactly) {
  const MachineSpec machine = MachineSpec::FourNode128();
  MultitenantConfig fixed = ScaleConfig(machine, machine.nodes);
  fixed.remote_latency = fixed.epoch_ns;  // ceiling = epoch
  MultitenantConfig pinned = fixed;
  pinned.adaptive_epochs = true;
  const MultitenantResult a = RunMultitenant(fixed);
  const MultitenantResult b = RunMultitenant(pinned);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(b.widens, 0u);
  EXPECT_EQ(b.final_window_ns, fixed.epoch_ns);
}

TEST(ShardedScale, ShardedBeatsUnshardedOnEventCountParity) {
  // The unsharded (nshards=1) and sharded (nshards=nodes) builds of the
  // workload simulate the same logical system: same groups, same pinned CPU
  // ranges, same handoff latencies. Completed-request counts must agree to
  // within the slack introduced by in-flight boundary requests.
  const MachineSpec machine = MachineSpec::FourNode128();
  MultitenantConfig sharded = ScaleConfig(machine, machine.nodes);
  MultitenantConfig flat = ScaleConfig(machine, 1);
  const MultitenantResult a = RunMultitenant(sharded);
  const MultitenantResult b = RunMultitenant(flat);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(b.completed, 0u);
  const double ratio =
      static_cast<double>(a.completed) / static_cast<double>(b.completed);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

}  // namespace
}  // namespace enoki

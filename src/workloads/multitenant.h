// Open-loop multi-tenant workload for the large sharded machines.
//
// The ROADMAP's datacenter story: a 128- or 256-CPU multi-socket box serving
// many independent tenants, each an open-loop request stream (Poisson by
// default; Pareto or log-normal inter-arrivals for heavy-tailed burstiness)
// handled by a per-NUMA-node worker pool, with a configurable fraction of
// requests handing off to a *remote* node on completion (cross-node RPC
// fan-out).
//
// The simulated workload is defined over G tenant groups, G = machine.nodes,
// and is the *same simulation* under both engines:
//
//  - sharded   (nshards == G): one SchedCore per NUMA node, each on its own
//    ShardedEventLoop shard; remote handoffs travel through PostCross
//    mailboxes and commit at epoch barriers in deterministic merge order.
//  - unsharded (nshards == 1): one SchedCore for the whole box on a single
//    loop (the engine's K=1 fast path is a plain EventLoop); group g's
//    workers are pinned to node g's CPUs and handoffs are self-posts with
//    identical latency.
//
// This makes "sharded vs unsharded" a true engine comparison: same tenants,
// same service processes, same handoff topology.
//
// Allocation discipline (arena-per-run): each group's request queue is a
// fixed-capacity ring drawn from a per-group Arena; steady state performs
// zero heap allocations — cross-shard closures are sized for std::function's
// small-object buffer and the loop's slab pools handle events.

#ifndef SRC_WORKLOADS_MULTITENANT_H_
#define SRC_WORKLOADS_MULTITENANT_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/base/arena.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/sched/cfs.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/simkernel/sharded_event_loop.h"

namespace enoki {

// Tenant inter-arrival process. Poisson (exponential gaps) models the
// well-behaved aggregate; the heavy-tailed options model real multitenant
// traffic where a few tenants burst: gaps are mean-matched to
// rate_per_tenant, so the long-run rate is identical across distributions —
// only the burstiness changes.
enum class ArrivalDist {
  kPoisson,
  kPareto,     // type-I Pareto gaps, shape pareto_alpha (> 1)
  kLogNormal,  // log-normal gaps, sigma lognormal_sigma
};

struct MultitenantConfig {
  MachineSpec machine = MachineSpec::FourNode128();
  // 1 (whole box on one loop) or machine.nodes (one shard per NUMA node).
  int nshards = 4;
  int shard_threads = 0;  // 0 = ENOKI_SHARD_THREADS (default 1)
  Duration epoch_ns = 20'000;
  // Adaptive epoch control (see ShardedEventLoop::Options): the engine
  // retunes the window within [epoch_ns / 4, remote_latency] from committed
  // traffic. Off by default so static-mode configs stay byte-identical.
  bool adaptive_epochs = false;

  int tenants_per_group = 16;       // arrival streams per NUMA node
  double rate_per_tenant = 4'000.0; // requests/sec per tenant
  ArrivalDist arrival = ArrivalDist::kPoisson;
  double pareto_alpha = 1.5;     // heavier tail as alpha -> 1
  double lognormal_sigma = 1.2;  // sigma of the underlying normal
  // Slab warming hint applied to machine.warm_events_per_cpu (see
  // SchedCore::Start): pre-size each shard loop's event pool for this many
  // live events per simulated CPU. 0 disables warming. The default was sized
  // from bench_simperf's prof_slab_allocs counter: 12/CPU covers the peak
  // (per-CPU tick + tenant chains + wakeup/preempt timers) with zero
  // demand-growth slabs on the mt128/mt256 configs.
  int warm_events_per_cpu = 12;
  Duration service_mean = Microseconds(10);
  int workers_per_group = 48;
  // Fraction of completions that spawn a follow-up request on another node.
  double remote_fraction = 0.05;
  Duration remote_latency = Microseconds(25);  // must be >= epoch_ns

  size_t queue_capacity = 1 << 15;  // per-group request ring (bounded)
  Duration warmup = Milliseconds(20);
  Duration runtime = Milliseconds(200);
  uint64_t seed = 11;
};

struct MultitenantResult {
  uint64_t completed = 0;
  uint64_t handoffs = 0;        // cross-node follow-ups issued
  uint64_t cross_messages = 0;  // committed through shard mailboxes
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t idle_leaps = 0;      // epochs whose window start leapt idle time
  uint64_t widens = 0;          // adaptive controller WIDEN decisions
  uint64_t narrows = 0;         // adaptive controller NARROW decisions
  Duration final_window_ns = 0; // effective epoch width at run end
  Duration p50 = 0;
  Duration p99 = 0;
  // Digest of every shard core's state plus the merge order. Byte-identical
  // across ENOKI_SHARD_THREADS values for a fixed shard count.
  uint64_t fingerprint = 0;
};

class MultitenantSim {
 public:
  explicit MultitenantSim(MultitenantConfig cfg)
      : cfg_(cfg), engine_(EngineOptions(cfg)) {
    const int ngroups = cfg_.machine.nodes;
    ENOKI_CHECK_MSG(cfg_.nshards == 1 || cfg_.nshards == ngroups,
                    "nshards must be 1 (unsharded) or machine.nodes (per-node shards)");
    ENOKI_CHECK(cfg_.remote_latency >= cfg_.epoch_ns);
    ENOKI_CHECK_MSG(cfg_.arrival != ArrivalDist::kPareto || cfg_.pareto_alpha > 1.0,
                    "Pareto arrivals need alpha > 1 for a finite mean-matched rate");
    // The adaptive clamp: the window may widen up to the workload's only
    // cross-shard latency, never past it.
    engine_.RegisterCrossLatency(cfg_.remote_latency);
    const bool sharded = cfg_.nshards > 1;
    const int cpus_per_group = cfg_.machine.ncpus / ngroups;
    cfg_.machine.warm_events_per_cpu = cfg_.warm_events_per_cpu;

    if (sharded) {
      for (int s = 0; s < ngroups; ++s) {
        cores_.push_back(std::make_unique<SchedCore>(cfg_.machine.ShardSpec(s, ngroups),
                                                     SimCosts{}, &engine_.shard(s)));
      }
    } else {
      cores_.push_back(
          std::make_unique<SchedCore>(cfg_.machine, SimCosts{}, &engine_.shard(0)));
    }
    for (auto& core : cores_) {
      cfs_.push_back(std::make_unique<CfsClass>());
      policies_.push_back(core->RegisterClass(cfs_.back().get()));
    }

    Rng seeder(cfg_.seed);
    for (int g = 0; g < ngroups; ++g) {
      auto grp = std::make_unique<Group>(cfg_.queue_capacity);
      grp->index = g;
      grp->shard = sharded ? g : 0;
      grp->core = cores_[static_cast<size_t>(sharded ? g : 0)].get();
      grp->policy = policies_[static_cast<size_t>(sharded ? g : 0)];
      grp->first_cpu = sharded ? 0 : g * cpus_per_group;
      grp->rng = std::make_unique<Rng>(seeder.Next());
      grp->measure_from = cfg_.warmup;
      groups_.push_back(std::move(grp));
    }

    for (auto& grp : groups_) {
      SpawnGroup(*grp, cpus_per_group, seeder);
    }
  }

  static ShardedEventLoop::Options EngineOptions(const MultitenantConfig& cfg) {
    ShardedEventLoop::Options o;
    o.nshards = cfg.nshards;
    o.epoch_ns = cfg.epoch_ns;
    o.threads = cfg.shard_threads;
    o.adaptive_epochs = cfg.adaptive_epochs;
    return o;
  }

  MultitenantResult Run() {
    for (auto& core : cores_) {
      core->Start();
    }
    engine_.RunUntil(cfg_.warmup);
    engine_.RunUntil(cfg_.warmup + cfg_.runtime);

    MultitenantResult r;
    LatencyRecorder merged;
    uint64_t h = 14695981039346656037ull;
    for (const auto& grp : groups_) {
      r.completed += grp->completed;
      r.handoffs += grp->handoffs;
      merged.Merge(grp->lat);
      h = Mix(h, grp->completed);
      h = Mix(h, grp->handoffs);
      h = Mix(h, grp->lat.count());
      h = Mix(h, grp->lat.max());
      h = Mix(h, grp->lat.Percentile(99.0));
    }
    for (const auto& core : cores_) {
      h = Mix(h, core->Fingerprint());
    }
    h = Mix(h, engine_.MergeFingerprint());
    const ShardProfile prof = engine_.profile();
    // Folding the epoch/controller counters into the fingerprint makes the
    // determinism sweeps assert the adaptive claim directly: the controller's
    // decision sequence must match across thread counts, not just its
    // downstream effects.
    h = Mix(h, prof.epochs);
    h = Mix(h, prof.idle_leaps);
    h = Mix(h, prof.widens);
    h = Mix(h, prof.narrows);
    h = Mix(h, engine_.window_ns());
    r.cross_messages = engine_.cross_messages();
    r.events = engine_.events_executed();
    r.epochs = engine_.epochs();
    r.idle_leaps = prof.idle_leaps;
    r.widens = prof.widens;
    r.narrows = prof.narrows;
    r.final_window_ns = engine_.window_ns();
    r.p50 = merged.Percentile(50.0);
    r.p99 = merged.Percentile(99.0);
    r.fingerprint = h;
    return r;
  }

  ShardedEventLoop& engine() { return engine_; }
  SchedCore& core(int i) { return *cores_[static_cast<size_t>(i)]; }
  int ncores() const { return static_cast<int>(cores_.size()); }

 private:
  struct Request {
    Time arrival = 0;
    Duration service = 0;
  };

  // One tenant group = one NUMA node's worth of tenants, workers, and queue.
  struct Group {
    explicit Group(size_t cap)
        : ring(ArenaAllocator<Request>(&arena)), wq("mt-grp") {
      // Warm first so the ring lands in one chunk instead of growing the
      // arena through doubling chunks on the way up.
      arena.Warm(cap * sizeof(Request));
      ring.resize(cap);  // fixed ring: the run's only queue allocation
    }
    int index = 0;
    int shard = 0;
    SchedCore* core = nullptr;
    int policy = 0;
    int first_cpu = 0;  // group's first CPU in its core's numbering
    Arena arena{64 * 1024};
    std::vector<Request, ArenaAllocator<Request>> ring;
    size_t head = 0;
    size_t count = 0;
    WaitQueue wq;
    std::unique_ptr<Rng> rng;  // service + handoff decisions (shard-local)
    LatencyRecorder lat;
    uint64_t completed = 0;
    uint64_t handoffs = 0;
    Time measure_from = 0;
  };

  static uint64_t Mix(uint64_t h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
    return h;
  }

  static void Push(Group& g, Request r) {
    ENOKI_CHECK_MSG(g.count < g.ring.size(), "multitenant group queue overflow");
    g.ring[(g.head + g.count) % g.ring.size()] = r;
    ++g.count;
  }

  static bool Pop(Group& g, Request* out) {
    if (g.count == 0) {
      return false;
    }
    *out = g.ring[g.head];
    g.head = (g.head + 1) % g.ring.size();
    --g.count;
    return true;
  }

  // Cross-shard delivery: runs on the destination group's loop at the
  // handoff's arrival time. The capture is two words so std::function's
  // small-object buffer holds it — no heap allocation per handoff.
  static void Deliver(Group* g, Duration service) {
    Push(*g, Request{g->core->now(), service});
    g->core->Signal(&g->wq, /*sync=*/false, /*from_cpu=*/g->first_cpu);
  }

  Duration ServiceSample(Rng& rng) const {
    return static_cast<Duration>(
        std::max(1.0, rng.NextExponential(static_cast<double>(cfg_.service_mean))));
  }

  // Inter-arrival gap for one tenant, mean-matched to rate_per_tenant across
  // all distributions (so heavy-tailed configs change burstiness, not load).
  Duration ArrivalGap(Rng& rng) const {
    const double mean = 1e9 / cfg_.rate_per_tenant;
    double gap = mean;
    switch (cfg_.arrival) {
      case ArrivalDist::kPoisson:
        gap = rng.NextExponential(mean);
        break;
      case ArrivalDist::kPareto: {
        // E[X] = alpha*xm/(alpha-1), so xm = mean*(alpha-1)/alpha.
        const double a = cfg_.pareto_alpha;
        gap = rng.NextPareto(a, mean * (a - 1.0) / a);
        break;
      }
      case ArrivalDist::kLogNormal: {
        // E[X] = exp(mu + sigma^2/2), so mu = ln(mean) - sigma^2/2.
        const double s = cfg_.lognormal_sigma;
        gap = rng.NextLogNormal(std::log(mean) - 0.5 * s * s, s);
        break;
      }
    }
    return static_cast<Duration>(std::max(1.0, gap));
  }

  // With probability remote_fraction, a completed request fans out to a
  // uniformly chosen *other* group through the shard mailbox (self-post with
  // the same latency when unsharded, keeping the simulation identical).
  void MaybeHandoff(Group& src) {
    if (groups_.size() < 2 || !src.rng->NextBernoulli(cfg_.remote_fraction)) {
      return;
    }
    uint64_t pick = src.rng->NextBelow(groups_.size() - 1);
    if (pick >= static_cast<uint64_t>(src.index)) {
      ++pick;  // skip self: uniform over the other G-1 groups
    }
    Group* dst = groups_[static_cast<size_t>(pick)].get();
    const Duration svc = ServiceSample(*src.rng);
    ++src.handoffs;
    engine_.PostCross(src.shard, dst->shard, cfg_.remote_latency,
                      [dst, svc] { Deliver(dst, svc); });
  }

  void SpawnGroup(Group& grp, int cpus_per_group, Rng& seeder) {
    CpuMask mask;
    for (int i = 0; i < cpus_per_group; ++i) {
      mask.Set(grp.first_cpu + i);
    }

    // Workers: block on the group queue, serve, maybe hand off remotely.
    struct Worker {
      MultitenantSim* sim;
      Group* g;
      Request pending;
      int step = 0;
    };
    for (int w = 0; w < cfg_.workers_per_group; ++w) {
      auto ws = std::make_shared<Worker>(Worker{this, &grp, {}, 0});
      grp.core->CreateTaskOn(
          "mt-w" + std::to_string(grp.index) + "." + std::to_string(w),
          MakeFnBody([ws](SimContext& ctx) -> Action {
            Worker& s = *ws;
            if (s.step == 2) {  // finished serving
              if (ctx.now() >= s.g->measure_from) {
                s.g->lat.Record(ctx.now() - s.pending.arrival);
                ++s.g->completed;
              }
              s.sim->MaybeHandoff(*s.g);
              s.step = 0;
            }
            if (s.step == 0) {
              s.step = 1;
              return Action::Block(&s.g->wq);
            }
            if (!Pop(*s.g, &s.pending)) {
              return Action::Block(&s.g->wq);  // spurious wake
            }
            s.step = 2;
            return Action::Compute(s.pending.service);
          }),
          grp.policy, /*nice=*/0, mask);
    }

    // Tenants: open-loop arrival processes (Poisson or heavy-tailed, per
    // cfg_.arrival) generated from event context (external clients), one
    // rescheduling event chain each.
    for (int i = 0; i < cfg_.tenants_per_group; ++i) {
      tenants_.push_back(std::make_unique<Tenant>(
          Tenant{this, &grp, Rng(seeder.Next()), cfg_.warmup + cfg_.runtime}));
      Tenant* t = tenants_.back().get();
      grp.core->loop().ScheduleAfter(ArrivalGap(t->rng), TenantGen{t});
    }
  }

  // One tenant's arrival stream. The sim owns it; its event chain carries a
  // raw pointer, so an arrival copies one word instead of a shared_ptr's
  // two refcount updates.
  struct Tenant {
    MultitenantSim* sim;
    Group* g;
    Rng rng;
    Time end;
  };
  struct TenantGen {
    Tenant* t;
    void operator()() const {
      Push(*t->g, Request{t->g->core->now(), t->sim->ServiceSample(t->rng)});
      t->g->core->Signal(&t->g->wq, /*sync=*/false, /*from_cpu=*/t->g->first_cpu);
      if (t->g->core->now() < t->end) {
        t->g->core->loop().ScheduleAfter(t->sim->ArrivalGap(t->rng), *this);
      }
    }
  };

  MultitenantConfig cfg_;
  ShardedEventLoop engine_;
  std::vector<std::unique_ptr<SchedCore>> cores_;
  std::vector<std::unique_ptr<CfsClass>> cfs_;
  std::vector<int> policies_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

inline MultitenantResult RunMultitenant(const MultitenantConfig& cfg) {
  MultitenantSim sim(cfg);
  return sim.Run();
}

}  // namespace enoki

#endif  // SRC_WORKLOADS_MULTITENANT_H_

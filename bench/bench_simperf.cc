// Simulator hot-path microbenchmark: how fast does the event loop itself go?
//
// ghOSt (SOSP '21) reports scheduler-infrastructure overhead as a first-class
// result; this bench does the same for the simulator substrate every other
// experiment stands on. It drives three representative workloads end to end
// and reports, per workload:
//   - events/sec   : simulated events executed per wall-clock second
//   - ns/event     : wall-clock nanoseconds per simulated event
//   - allocs/event : heap allocations per simulated event (counted by a
//                    global operator new override, so it sees everything)
//
// Flags:
//   --quick                shorter runs (CI perf-smoke)
//   --json=<path>          machine-readable rows (bench_common.h BenchJson)
//   --check-against=<path> compare against a baseline BENCH_simperf.json and
//                          exit nonzero on regression
//   --max-regress=<frac>   regression tolerance for the check (default 0.25)
//   --reps=<n>             repetitions per config (default 3); wall-clock
//                          metrics keep the fastest rep, event counts must
//                          be identical across reps
//   --require-speedup-gate fail (instead of loudly skipping) the shard
//                          speedup gates when the host has < 4 hardware
//                          threads; set by the dedicated multi-core CI job
//   --profile-top          after the throughput table, print each config's
//                          top-5 count-type prof_* rows by value — the next
//                          optimisation round's target, one command away
//
// Besides throughput rows, every config emits prof_* subsystem counters
// (src/base/profile.h): timing-wheel cascades, slab/arena growth, epoch
// barrier and controller decisions. Count-type prof rows are deterministic
// and gated exactly by --check-against; *_ns rows are wall-clock profiling.
//
// The workload mix is chosen to stress the three event-queue behaviours that
// matter: schbench (dense wake/block churn), pipe (long same-pattern chains
// through the Enoki runtime), dispersive (timer-heavy Shinjuku with frequent
// hrtimer cancellation).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "bench/bench_common.h"
#include "src/sched/ext/central.h"
#include "src/sched/ext/layered.h"
#include "src/sched/ext/pair.h"
#include "src/sched/ext/rusty.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/workloads/dispersive.h"
#include "src/workloads/multitenant.h"
#include "src/workloads/pipe.h"
#include "src/workloads/portfolio.h"
#include "src/workloads/schbench.h"

// ---- Global allocation counter -------------------------------------------
// Replacing operator new in this translation unit affects the whole binary,
// which is exactly what we want: every heap allocation made while a workload
// runs is attributed to it.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// The replacement operator new routes through malloc, so the replacement
// delete frees with free(); GCC cannot prove the pairing and warns at every
// new-expression in the file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace enoki {
namespace {

struct PerfResult {
  std::string name;
  uint64_t events = 0;
  double wall_sec = 0.0;
  uint64_t allocs = 0;
  uint64_t seed = 0;
  int shard_threads = 0;  // 0 = single-loop config (no shard column)
  // Subsystem profile counters (src/base/profile.h), emitted as prof_<name>
  // JSON rows. Count-type counters are deterministic and gated exactly
  // against the baseline — a regression names the subsystem that regressed;
  // *_ns counters are wall-clock and reported but never gated.
  std::vector<std::pair<std::string, double>> counters;

  double events_per_sec() const { return wall_sec > 0 ? events / wall_sec : 0.0; }
  double ns_per_event() const { return events > 0 ? wall_sec * 1e9 / events : 0.0; }
  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / events : 0.0;
  }
};

// Snapshot of the process-wide allocation counters, for per-config deltas.
struct GlobalCounterSnap {
  uint64_t arena_chunks = 0;
  uint64_t event_slabs = 0;

  static GlobalCounterSnap Take() {
    GlobalCounterSnap s;
    s.arena_chunks = GlobalCounters::Get().Value(GlobalCounters::kArenaChunks);
    s.event_slabs = GlobalCounters::Get().Value(GlobalCounters::kEventSlabs);
    return s;
  }
};

void AppendWheelCounters(PerfResult* r, const WheelProfile& w) {
  r->counters.emplace_back("prof_wheel_cascades", static_cast<double>(w.cascades));
  r->counters.emplace_back("prof_wheel_bulk_cascades",
                           static_cast<double>(w.bulk_cascades));
  r->counters.emplace_back("prof_wheel_lane_hits", static_cast<double>(w.lane_hits));
  r->counters.emplace_back("prof_wheel_lane_spills", static_cast<double>(w.lane_spills));
  r->counters.emplace_back("prof_wheel_overflow_pulls",
                           static_cast<double>(w.overflow_pulls));
  r->counters.emplace_back("prof_wheel_behind_inserts",
                           static_cast<double>(w.behind_inserts));
  r->counters.emplace_back("prof_wheel_slab_allocs", static_cast<double>(w.slab_allocs));
}

void AppendGlobalCounters(PerfResult* r, const GlobalCounterSnap& before) {
  const GlobalCounterSnap now = GlobalCounterSnap::Take();
  r->counters.emplace_back("prof_arena_chunks",
                           static_cast<double>(now.arena_chunks - before.arena_chunks));
  r->counters.emplace_back("prof_event_slabs",
                           static_cast<double>(now.event_slabs - before.event_slabs));
}

// Repetitions per config: wall-clock metrics keep the best (fastest) rep so
// transient host load cannot fake a hot-path regression, which is what lets
// the CI gate be a hard per-metric check. Event counts must be identical
// across reps — a free determinism assertion on every config.
int g_reps = 3;

// Runs `body(core)` against the stack, measuring the event loop around it.
template <typename MakeStackFn, typename BodyFn>
PerfResult Measure(const std::string& name, uint64_t seed, MakeStackFn make_stack,
                   BodyFn body) {
  PerfResult r;
  r.name = name;
  r.seed = seed;
  for (int rep = 0; rep < std::max(1, g_reps); ++rep) {
    // Snapshot before construction: prof_event_slabs/prof_arena_chunks gate
    // the *whole process* — task creation included, not just the run phase.
    const GlobalCounterSnap snap = GlobalCounterSnap::Take();
    Stack s = make_stack();
    const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const auto wall_start = std::chrono::steady_clock::now();
    body(s);
    const auto wall_end = std::chrono::steady_clock::now();
    const uint64_t events = s.core->loop().events_executed();
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    const double wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
    if (rep == 0) {
      r.events = events;
      r.allocs = allocs;
      r.wall_sec = wall_sec;
      AppendWheelCounters(&r, s.core->loop().wheel_profile());
      AppendGlobalCounters(&r, snap);
      continue;
    }
    if (events != r.events) {
      std::fprintf(stderr, "DETERMINISM VIOLATION %s: rep %d executed %llu events, rep 0 %llu\n",
                   name.c_str(), rep, static_cast<unsigned long long>(events),
                   static_cast<unsigned long long>(r.events));
      std::exit(2);
    }
    r.wall_sec = std::min(r.wall_sec, wall_sec);
    r.allocs = std::min(r.allocs, allocs);
  }
  return r;
}

// Sharded-engine variant of Measure: events come from the engine (sum over
// shard loops) and every rep's result fingerprint must match — the bench
// doubles as a double-run determinism check on the exact configs it gates.
PerfResult MeasureMt(const std::string& name, const MultitenantConfig& cfg) {
  PerfResult r;
  r.name = name;
  r.seed = cfg.seed;
  r.shard_threads = ShardedEventLoop::ResolveThreads(cfg.shard_threads, cfg.nshards);
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < std::max(1, g_reps); ++rep) {
    // Snapshot before construction (see Measure): the slab-growth gate
    // covers tenant/task creation, which precedes Start().
    const GlobalCounterSnap snap = GlobalCounterSnap::Take();
    MultitenantSim sim(cfg);
    const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const auto wall_start = std::chrono::steady_clock::now();
    const MultitenantResult res = sim.Run();
    const auto wall_end = std::chrono::steady_clock::now();
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    const double wall_sec = std::chrono::duration<double>(wall_end - wall_start).count();
    if (rep == 0) {
      r.events = res.events;
      r.allocs = allocs;
      r.wall_sec = wall_sec;
      fingerprint = res.fingerprint;
      const ShardProfile prof = sim.engine().profile();
      r.counters.emplace_back("prof_epochs", static_cast<double>(prof.epochs));
      r.counters.emplace_back("prof_idle_leaps", static_cast<double>(prof.idle_leaps));
      r.counters.emplace_back("prof_commit_msgs", static_cast<double>(prof.commit_msgs));
      r.counters.emplace_back("prof_commit_batched_msgs",
                              static_cast<double>(prof.batched_msgs));
      r.counters.emplace_back("prof_widens", static_cast<double>(prof.widens));
      r.counters.emplace_back("prof_narrows", static_cast<double>(prof.narrows));
      r.counters.emplace_back("prof_final_window",
                              static_cast<double>(sim.engine().window_ns()));
      AppendWheelCounters(&r, sim.engine().WheelProfileSum());
      AppendGlobalCounters(&r, snap);
      // Wall-clock (host-dependent) profile rows: reported, never gated.
      r.counters.emplace_back("prof_commit_wall_ns", static_cast<double>(prof.commit_ns));
      r.counters.emplace_back("prof_barrier_wall_ns", static_cast<double>(prof.barrier_ns));
      continue;
    }
    if (res.events != r.events || res.fingerprint != fingerprint) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION %s: rep %d events %llu fp %llx, rep 0 %llu/%llx\n",
                   name.c_str(), rep, static_cast<unsigned long long>(res.events),
                   static_cast<unsigned long long>(res.fingerprint),
                   static_cast<unsigned long long>(r.events),
                   static_cast<unsigned long long>(fingerprint));
      std::exit(2);
    }
    r.wall_sec = std::min(r.wall_sec, wall_sec);
    r.allocs = std::min(r.allocs, allocs);
  }
  return r;
}

MultitenantConfig MtConfig(MachineSpec machine, int nshards, int shard_threads, bool quick) {
  MultitenantConfig cfg;
  cfg.machine = machine;
  cfg.nshards = nshards;
  cfg.shard_threads = shard_threads;
  cfg.warmup = Milliseconds(quick ? 10 : 20);
  cfg.runtime = Milliseconds(quick ? 80 : 300);
  cfg.seed = 11;
  return cfg;
}

// Adaptive-epoch variant: the cross-node RPC latency is raised to 100 us so
// the controller has real widening headroom (the clamp is the minimum
// cross-shard latency; at 25 us the window could only grow 20 -> 25 us).
// The flat (nshards=1) twin uses the same latency, so "adaptive sharded vs
// unsharded" still compares the identical logical system.
MultitenantConfig MtAdaptiveConfig(MachineSpec machine, int nshards, int shard_threads,
                                   bool quick) {
  MultitenantConfig cfg = MtConfig(machine, nshards, shard_threads, quick);
  cfg.remote_latency = Microseconds(100);
  cfg.adaptive_epochs = true;
  return cfg;
}

CpuMask ShinjukuWorkerMask() {
  CpuMask m;
  for (int i = 2; i < 7; ++i) {
    m.Set(i);
  }
  return m;
}

std::vector<PerfResult> RunAll(bool quick) {
  std::vector<PerfResult> out;

  // schbench on CFS: wake/block churn through the pure simkernel path.
  out.push_back(Measure(
      "schbench", 0, [] { return MakeCfsStack(); },
      [quick](Stack& s) {
        SchbenchConfig cfg;
        cfg.message_threads = 4;
        cfg.workers_per_thread = 4;
        cfg.warmup = Milliseconds(quick ? 50 : 200);
        cfg.runtime = quick ? Milliseconds(500) : Seconds(4);
        (void)RunSchbench(*s.core, s.policy, cfg);
      }));

  // pipe ping-pong through the Enoki runtime (WFQ): the per-callback message
  // round-trip path.
  out.push_back(Measure(
      "pipe", 0, [] { return MakeEnokiStack(std::make_unique<WfqSched>(0)); },
      [quick](Stack& s) {
        PipeBenchConfig cfg;
        cfg.messages = quick ? 30'000 : 300'000;
        (void)RunPipeBench(*s.core, s.policy, cfg);
      }));

  // dispersive load under Enoki-Shinjuku: hrtimer arm/cancel heavy.
  const uint64_t dispersive_seed = 7;
  out.push_back(Measure(
      "dispersive", dispersive_seed,
      [] {
        return MakeEnokiStack(std::make_unique<ShinjukuSched>(
            0, ShinjukuSched::kDefaultPreemptionSliceNs, ShinjukuWorkerMask()));
      },
      [quick, dispersive_seed](Stack& s) {
        DispersiveConfig cfg;
        cfg.rate_per_sec = 40'000;
        cfg.warmup = Milliseconds(quick ? 50 : 200);
        cfg.runtime = quick ? Milliseconds(500) : Seconds(3);
        cfg.worker_policy = s.policy;
        cfg.cfs_policy = s.cfs_policy;
        cfg.seed = dispersive_seed;
        (void)RunDispersive(*s.core, cfg);
      }));

  // ---- sched_ext policy portfolio: each policy on its paired workload ----

  // central: tickless tenant mix, dispatch pulses from one CPU.
  out.push_back(Measure(
      "central_mix", 1, [] { return MakeEnokiStack(std::make_unique<CentralSched>(0)); },
      [quick](Stack& s) {
        TenantMixConfig cfg;
        cfg.rounds = quick ? 120 : 1'000;
        (void)RunTenantMix(*s.core, s.policy, cfg);
      }));

  // pair: sibling co-scheduling with two adversarial cookie populations,
  // cookies delivered through the module hint queue.
  out.push_back(Measure(
      "pair_gang", 1,
      [] {
        return MakeEnokiStack(std::make_unique<PairSched>(0), MachineSpec::SmtOneSocket8());
      },
      [quick](Stack& s) {
        SiblingPairsConfig cfg;
        cfg.rounds = quick ? 400 : 3'000;
        cfg.hint_runtime = s.runtime.get();
        cfg.hint_queue = s.runtime->CreateHintQueue(64);
        (void)RunSiblingPairs(*s.core, s.policy, cfg);
      }));

  // layered: three-tier service with guaranteed CPUs for the latency layer.
  out.push_back(Measure(
      "layered_tiers", 1,
      [] {
        return MakeEnokiStack(
            std::make_unique<LayeredSched>(0, LayeredSched::DefaultThreeTier(8)));
      },
      [quick](Stack& s) {
        ServiceTiersConfig cfg;
        cfg.rounds = quick ? 400 : 3'000;
        (void)RunServiceTiers(*s.core, s.policy, cfg);
      }));

  // rusty: cross-socket imbalance resolved by greedy domain stealing.
  out.push_back(Measure(
      "rusty_numa", 1,
      [] {
        return MakeEnokiStack(std::make_unique<RustySched>(0), MachineSpec::TwoNode16());
      },
      [quick](Stack& s) {
        SocketImbalanceConfig cfg;
        cfg.tasks = quick ? 32 : 48;
        cfg.work_total = quick ? Milliseconds(16) : Milliseconds(48);
        cfg.chunk = Microseconds(50);
        (void)RunSocketImbalance(*s.core, s.policy, cfg);
      }));

  // ---- large sharded machines: the multitenant datacenter workload -------
  // The flat rows are the true single-threaded engine (K=1 fast path) on the
  // whole box; the _s*t* rows shard per NUMA node and vary host threads.
  // t1-vs-t4 event counts and fingerprints are asserted identical inside
  // MeasureMt; t4-vs-flat throughput is the speedup gate below.
  const MachineSpec m128 = MachineSpec::FourNode128();
  const MachineSpec m256 = MachineSpec::EightNode256();
  out.push_back(MeasureMt("mt128_flat", MtConfig(m128, 1, 1, quick)));
  out.push_back(MeasureMt("mt128_s4t1", MtConfig(m128, 4, 1, quick)));
  out.push_back(MeasureMt("mt128_s4t4", MtConfig(m128, 4, 4, quick)));
  out.push_back(MeasureMt("mt256_flat", MtConfig(m256, 1, 1, quick)));
  out.push_back(MeasureMt("mt256_s8t1", MtConfig(m256, 8, 1, quick)));
  out.push_back(MeasureMt("mt256_s8t4", MtConfig(m256, 8, 4, quick)));

  // Adaptive-epoch rows (ISSUE 8): same machines, 100 us cross-node latency,
  // controller widening the window from committed traffic. The static rows
  // above stay as the baseline column.
  out.push_back(MeasureMt("mt128_s4t4a", MtAdaptiveConfig(m128, 4, 4, quick)));
  out.push_back(MeasureMt("mt256_flata", MtAdaptiveConfig(m256, 1, 1, quick)));
  out.push_back(MeasureMt("mt256_s8t1a", MtAdaptiveConfig(m256, 8, 1, quick)));
  out.push_back(MeasureMt("mt256_s8t4a", MtAdaptiveConfig(m256, 8, 4, quick)));

  // Heavy-tailed multitenant arrivals: Pareto inter-arrival gaps, mean-matched
  // to the Poisson rows' load. Exercises bursty queue depth on the sharded
  // engine.
  {
    MultitenantConfig heavy = MtConfig(m128, 4, 4, quick);
    heavy.arrival = ArrivalDist::kPareto;
    heavy.pareto_alpha = 1.5;
    out.push_back(MeasureMt("mt128_s4t4h", heavy));
  }

  return out;
}

// ---- Shard speedup gate ----------------------------------------------------

double EventsPerSecOf(const std::vector<PerfResult>& results, const std::string& name) {
  for (const PerfResult& r : results) {
    if (r.name == name) {
      return r.events_per_sec();
    }
  }
  return 0.0;
}

// Speedup gates on the 256-CPU config: static epochs must keep the ISSUE 7
// >= 1.5x bound, adaptive epochs must reach the raised ISSUE 8 >= 1.8x
// bound (the controller widens 20 us -> 100 us, cutting barrier count ~5x).
//
// Both bounds need >= 4 real hardware threads. On smaller hosts the gate
// skips — but *loudly*: a skip is printed, recorded in the JSON output
// (config "mt256_gate", metric "gate_skipped" = 1), and turned into a hard
// failure under --require-speedup-gate, which the dedicated multi-core CI
// job passes so the gate can never be silently skipped fleet-wide.
int CheckShardSpeedup(const std::vector<PerfResult>& results, BenchJson* json,
                      bool require_gate) {
  struct Gate {
    const char* label;
    const char* flat;
    const char* t4;
    double bound;
  };
  const Gate gates[] = {
      {"static", "mt256_flat", "mt256_s8t4", 1.5},
      {"adaptive", "mt256_flata", "mt256_s8t4a", 1.8},
  };
  const unsigned hc = std::thread::hardware_concurrency();
  const bool enforceable = hc >= 4;
  // The honest thread speedup: the same 8 shards on 4 threads vs 1, so it
  // credits the worker pool alone, not the smaller per-shard queues the
  // flat-vs-sharded gates also count. Reported only, never gated.
  const double t1 = EventsPerSecOf(results, "mt256_s8t1a");
  const double t4 = EventsPerSecOf(results, "mt256_s8t4a");
  if (t1 > 0.0 && t4 > 0.0) {
    std::printf("thread speedup (mt256_s8t4a vs mt256_s8t1a): %.2fx, %u-core host\n", t4 / t1,
                hc);
    json->Row("mt256_gate_threads", "thread_speedup", t4 / t1, 11);
  }
  int failures = 0;
  for (const Gate& g : gates) {
    const double flat = EventsPerSecOf(results, g.flat);
    const double t4 = EventsPerSecOf(results, g.t4);
    if (flat <= 0.0 || t4 <= 0.0) {
      continue;  // configs not run
    }
    const double speedup = t4 / flat;
    std::printf("shard speedup [%s] (%s vs %s): %.2fx, bound %.1fx, %u-core host\n",
                g.label, g.t4, g.flat, speedup, g.bound, hc);
    json->Row(std::string("mt256_gate_") + g.label, "shard_speedup", speedup, 11);
    json->Row(std::string("mt256_gate_") + g.label, "gate_skipped", enforceable ? 0.0 : 1.0,
              11);
    if (!enforceable) {
      if (require_gate) {
        std::fprintf(stderr,
                     "GATE FAILURE [%s]: --require-speedup-gate on a %u-thread host; "
                     "run this gate on >= 4 hardware threads\n",
                     g.label, hc);
        ++failures;
      } else {
        std::printf("SKIPPING shard speedup gate [%s]: host has %u hardware threads (< 4); "
                    "the >=%.1fx bound is only enforceable with real parallelism "
                    "(recorded as gate_skipped=1 in --json)\n",
                    g.label, hc, g.bound);
      }
      continue;
    }
    if (speedup < g.bound) {
      std::fprintf(stderr, "REGRESSION shard speedup [%s]: %.2fx < %.1fx (%s vs %s)\n",
                   g.label, speedup, g.bound, g.t4, g.flat);
      ++failures;
    }
  }
  return failures;
}

// ---- Baseline comparison --------------------------------------------------
// Parses the flat rows BenchJson writes (one object per line) without a JSON
// library: good enough because we only ever read files we wrote.

struct BaselineRow {
  std::string config;
  std::string metric;
  double value = 0.0;
};

bool ExtractField(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const size_t start = line.find(needle);
  if (start == std::string::npos) {
    return false;
  }
  const size_t vstart = start + needle.size();
  const size_t vend = line.find('"', vstart);
  if (vend == std::string::npos) {
    return false;
  }
  *out = line.substr(vstart, vend - vstart);
  return true;
}

bool LoadBaseline(const std::string& path, std::vector<BaselineRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    BaselineRow row;
    if (!ExtractField(line, "config", &row.config) ||
        !ExtractField(line, "metric", &row.metric)) {
      continue;
    }
    const size_t vpos = line.find("\"value\": ");
    if (vpos == std::string::npos) {
      continue;
    }
    row.value = std::strtod(line.c_str() + vpos + std::strlen("\"value\": "), nullptr);
    rows->push_back(row);
  }
  return true;
}

double BaselineValue(const std::vector<BaselineRow>& rows, const std::string& config,
                     const std::string& metric, bool* found) {
  for (const BaselineRow& r : rows) {
    if (r.config == config && r.metric == metric) {
      *found = true;
      return r.value;
    }
  }
  *found = false;
  return 0.0;
}

// Returns the number of regressions beyond tolerance. Every metric is gated,
// each with the comparison direction that makes sense for it:
//   events           exact match — the simulation is deterministic, so any
//                    drift means behaviour changed, not just got slower
//   events_per_sec   lower bound (relative tolerance)
//   ns_per_event     upper bound (relative tolerance)
//   allocs_per_event upper bound (relative tolerance + small absolute slack,
//                    so a near-zero baseline is not impossibly tight)
// A config present in the results but missing from the baseline fails the
// check: new configs must land with baseline rows. The reverse also fails:
// a baseline config or count-type prof_* row the results no longer emit is a
// silently retired gate (exactly how the cascade-rate blind spot happened —
// a renamed counter would otherwise just stop being checked).
int CheckAgainstBaseline(const std::vector<PerfResult>& results, const std::string& path,
                         double max_regress) {
  std::vector<BaselineRow> baseline;
  if (!LoadBaseline(path, &baseline)) {
    std::fprintf(stderr, "bench_simperf: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  for (const PerfResult& r : results) {
    bool found = false;
    const double base_events = BaselineValue(baseline, r.name, "events", &found);
    if (!found) {
      std::fprintf(stderr, "MISSING BASELINE %s: regenerate %s\n", r.name.c_str(),
                   path.c_str());
      ++failures;
      continue;
    }
    if (static_cast<double>(r.events) != base_events) {
      std::fprintf(stderr, "REGRESSION %s events: %llu vs baseline %.0f (determinism)\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.events), base_events);
      ++failures;
    }
    const double base_eps = BaselineValue(baseline, r.name, "events_per_sec", &found);
    if (found && r.events_per_sec() < base_eps * (1.0 - max_regress)) {
      std::fprintf(stderr,
                   "REGRESSION %s events_per_sec: %.0f vs baseline %.0f (-%.1f%%)\n",
                   r.name.c_str(), r.events_per_sec(), base_eps,
                   (1.0 - r.events_per_sec() / base_eps) * 100.0);
      ++failures;
    }
    const double base_npe = BaselineValue(baseline, r.name, "ns_per_event", &found);
    if (found && base_npe > 0 && r.ns_per_event() > base_npe * (1.0 + max_regress)) {
      std::fprintf(stderr, "REGRESSION %s ns_per_event: %.1f vs baseline %.1f (+%.1f%%)\n",
                   r.name.c_str(), r.ns_per_event(), base_npe,
                   (r.ns_per_event() / base_npe - 1.0) * 100.0);
      ++failures;
    }
    const double base_ape = BaselineValue(baseline, r.name, "allocs_per_event", &found);
    if (found && r.allocs_per_event() > base_ape * (1.0 + max_regress) + 0.25) {
      std::fprintf(stderr,
                   "REGRESSION %s allocs_per_event: %.3f vs baseline %.3f\n",
                   r.name.c_str(), r.allocs_per_event(), base_ape);
      ++failures;
    }
    // Subsystem profile counters: count-type prof_* rows are pure functions
    // of the simulation, so they are compared exactly — a drift does not just
    // say "slower", it names the subsystem (wheel cascades, slab growth,
    // arena chunks, epoch barriers, controller decisions) that regressed.
    // Wall-clock *_ns rows are host-dependent and skipped.
    for (const auto& [counter, value] : r.counters) {
      if (counter.size() > 3 && counter.compare(counter.size() - 3, 3, "_ns") == 0) {
        continue;
      }
      const double base = BaselineValue(baseline, r.name, counter, &found);
      if (!found) {
        std::fprintf(stderr, "MISSING BASELINE %s %s: regenerate %s\n", r.name.c_str(),
                     counter.c_str(), path.c_str());
        ++failures;
        continue;
      }
      if (value != base) {
        std::fprintf(stderr, "REGRESSION %s %s: %.0f vs baseline %.0f (deterministic)\n",
                     r.name.c_str(), counter.c_str(), value, base);
        ++failures;
      }
    }
  }
  // Reverse direction: every baseline config must still be produced, and
  // every count-type baseline prof_* row of a produced config must still be
  // emitted under the same name.
  for (const BaselineRow& b : baseline) {
    const PerfResult* result = nullptr;
    for (const PerfResult& r : results) {
      if (r.name == b.config) {
        result = &r;
        break;
      }
    }
    if (b.metric == "events") {
      if (result == nullptr) {
        std::fprintf(stderr,
                     "STALE BASELINE %s: config no longer produced; regenerate %s\n",
                     b.config.c_str(), path.c_str());
        ++failures;
      }
      continue;
    }
    if (result == nullptr || b.metric.compare(0, 5, "prof_") != 0 ||
        (b.metric.size() > 3 && b.metric.compare(b.metric.size() - 3, 3, "_ns") == 0)) {
      continue;
    }
    bool emitted = false;
    for (const auto& [counter, value] : result->counters) {
      if (counter == b.metric) {
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      std::fprintf(stderr,
                   "STALE BASELINE %s %s: counter no longer emitted; regenerate %s\n",
                   b.config.c_str(), b.metric.c_str(), path.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("baseline check: OK (tolerance %.0f%%, baseline %s)\n", max_regress * 100.0,
                path.c_str());
  }
  return failures;
}

// Per-config top-5 count-type prof_* rows by value: the hottest cold paths,
// i.e. the next optimisation round's profile-named target.
void PrintProfileTop(const std::vector<PerfResult>& results) {
  std::printf("\nprofile top-5 (count-type prof_* rows per config)\n");
  for (const PerfResult& r : results) {
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [counter, value] : r.counters) {
      if (counter.size() > 3 && counter.compare(counter.size() - 3, 3, "_ns") == 0) {
        continue;  // wall-clock rows are not optimisation targets by count
      }
      rows.emplace_back(counter, value);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("  %s:\n", r.name.c_str());
    for (size_t i = 0; i < rows.size() && i < 5; ++i) {
      std::printf("    %-28s %14.0f\n", rows[i].first.c_str(), rows[i].second);
    }
  }
}

int Run(int argc, char** argv) {
  const bool quick = BenchHasFlag(argc, argv, "--quick");
  if (const char* reps = BenchArgValue(argc, argv, "--reps")) {
    g_reps = std::atoi(reps);
  }
  BenchJson json("bench_simperf", argc, argv);

  std::printf("Simulator hot-path microbenchmark (%s mode)\n", quick ? "quick" : "full");
  std::printf("%-12s %8s %14s %14s %12s %14s\n", "workload", "shrdthr", "events",
              "events/sec", "ns/event", "allocs/event");

  const std::vector<PerfResult> results = RunAll(quick);
  for (const PerfResult& r : results) {
    char shard_col[8] = "-";
    if (r.shard_threads > 0) {
      std::snprintf(shard_col, sizeof(shard_col), "%d", r.shard_threads);
    }
    std::printf("%-12s %8s %14llu %14.0f %12.1f %14.3f\n", r.name.c_str(), shard_col,
                static_cast<unsigned long long>(r.events), r.events_per_sec(),
                r.ns_per_event(), r.allocs_per_event());
    json.Row(r.name, "events_per_sec", r.events_per_sec(), r.seed);
    json.Row(r.name, "ns_per_event", r.ns_per_event(), r.seed);
    json.Row(r.name, "allocs_per_event", r.allocs_per_event(), r.seed);
    json.Row(r.name, "events", static_cast<double>(r.events), r.seed);
    if (r.shard_threads > 0) {
      json.Row(r.name, "shard_threads", static_cast<double>(r.shard_threads), r.seed);
    }
    for (const auto& [counter, value] : r.counters) {
      json.Row(r.name, counter, value, r.seed);
    }
  }

  if (BenchHasFlag(argc, argv, "--profile-top")) {
    PrintProfileTop(results);
  }

  int failures = CheckShardSpeedup(results, &json,
                                   BenchHasFlag(argc, argv, "--require-speedup-gate"));
  json.Write();
  if (const char* baseline = BenchArgValue(argc, argv, "--check-against")) {
    double max_regress = 0.25;
    if (const char* tol = BenchArgValue(argc, argv, "--max-regress")) {
      max_regress = std::strtod(tol, nullptr);
    }
    failures += CheckAgainstBaseline(results, baseline, max_regress);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace enoki

int main(int argc, char** argv) { return enoki::Run(argc, argv); }

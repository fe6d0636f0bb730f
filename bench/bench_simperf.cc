// Simulator regression gate: does every representative workload still
// simulate exactly what it did?
//
// It drives eighteen configs end to end: three event-queue shapes (schbench
// wake/block churn, pipe chains through the Enoki runtime, timer-heavy
// dispersive Shinjuku with frequent hrtimer cancellation), the sched_ext
// portfolio policies on their paired workloads, and the multitenant
// datacenter workload on 128/256-CPU machines (flat and sharded, static and
// adaptive epochs, 1 and 4 host threads). Per config it reports only figures
// the simulation determines:
//   - events       : simulated events executed
//   - allocs/event : heap allocations per simulated event (counted by a
//                    global operator new override, so it sees everything)
//   - prof_*       : subsystem counters (src/base/profile.h): event-queue
//                    lane spills, slab/arena growth, epoch barriers and
//                    adaptive-ramp doublings
// Every config runs twice, and both runs must execute the same events (and
// on the sharded engine reach the same result fingerprint), or the bench
// exits 2.
//
// Flags:
//   --json=<path>          machine-readable rows (bench_common.h BenchJson)
//   --check-against=<path> compare against a baseline written by --json and
//                          exit 1 on any drift: allocs/event within 25 % plus
//                          0.25, every other row exactly; a row the run emits
//                          but the baseline lacks fails, and so does the
//                          reverse
//
// Host throughput is not measured here: wall-clock rows of runs this short
// spread by more than any useful bound on a shared host. perfbench/ owns
// throughput (long runs, reference-kernel scaling, quartiles). ctest runs
// this bench from the repository root against
// bench/BENCH_simperf_baseline.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

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

using Rows = std::vector<std::pair<std::string, double>>;

struct PerfResult {
  std::string name;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t seed = 0;
  int shard_threads = 0;  // 0 = single-loop config (no shard column)
  // Subsystem profile counters (src/base/profile.h), emitted as prof_<name>
  // rows; a drift names the subsystem whose behaviour changed.
  Rows counters;

  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / events : 0.0;
  }

  // Every row this config emits, in --json order.
  Rows rows() const {
    Rows out = {{"allocs_per_event", allocs_per_event()},
                {"events", static_cast<double>(events)}};
    if (shard_threads > 0) {
      out.emplace_back("shard_threads", static_cast<double>(shard_threads));
    }
    out.insert(out.end(), counters.begin(), counters.end());
    return out;
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
  r->counters.emplace_back("prof_wheel_lane_hits", static_cast<double>(w.lane_hits));
  r->counters.emplace_back("prof_wheel_lane_spills", static_cast<double>(w.lane_spills));
  r->counters.emplace_back("prof_wheel_slab_allocs", static_cast<double>(w.slab_allocs));
}

void AppendGlobalCounters(PerfResult* r, const GlobalCounterSnap& before) {
  const GlobalCounterSnap now = GlobalCounterSnap::Take();
  r->counters.emplace_back("prof_arena_chunks",
                           static_cast<double>(now.arena_chunks - before.arena_chunks));
  r->counters.emplace_back("prof_event_slabs",
                           static_cast<double>(now.event_slabs - before.event_slabs));
}

// Runs per config: the second run is a double-run determinism check, so
// event counts (and sharded fingerprints) must match; allocs keep the lower.
constexpr int kReps = 2;

// Tolerance of the allocs/event check: relative, plus an absolute slack so a
// near-zero baseline is not impossibly tight.
constexpr double kAllocsTolerance = 0.25;
constexpr double kAllocsSlack = 0.25;

// Runs `body(core)` against the stack, counting the event loop around it.
template <typename MakeStackFn, typename BodyFn>
PerfResult Measure(const std::string& name, uint64_t seed, MakeStackFn make_stack,
                   BodyFn body) {
  PerfResult r;
  r.name = name;
  r.seed = seed;
  for (int rep = 0; rep < kReps; ++rep) {
    // Snapshot before construction: prof_event_slabs/prof_arena_chunks gate
    // the *whole process* — task creation included, not just the run phase.
    const GlobalCounterSnap snap = GlobalCounterSnap::Take();
    Stack s = make_stack();
    const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    body(s);
    const uint64_t events = s.core->loop().events_executed();
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    if (rep == 0) {
      r.events = events;
      r.allocs = allocs;
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
  for (int rep = 0; rep < kReps; ++rep) {
    // Snapshot before construction (see Measure): the slab-growth gate
    // covers tenant/task creation, which precedes Start().
    const GlobalCounterSnap snap = GlobalCounterSnap::Take();
    MultitenantSim sim(cfg);
    const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    const MultitenantResult res = sim.Run();
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    if (rep == 0) {
      r.events = res.events;
      r.allocs = allocs;
      fingerprint = res.fingerprint;
      const ShardProfile prof = sim.engine().profile();
      r.counters.emplace_back("prof_epochs", static_cast<double>(prof.epochs));
      r.counters.emplace_back("prof_idle_leaps", static_cast<double>(prof.idle_leaps));
      r.counters.emplace_back("prof_commit_msgs", static_cast<double>(prof.commit_msgs));
      r.counters.emplace_back("prof_widens", static_cast<double>(prof.widens));
      r.counters.emplace_back("prof_narrows", static_cast<double>(prof.narrows));
      r.counters.emplace_back("prof_final_window",
                              static_cast<double>(sim.engine().window_ns()));
      AppendWheelCounters(&r, sim.engine().WheelProfileSum());
      AppendGlobalCounters(&r, snap);
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
    r.allocs = std::min(r.allocs, allocs);
  }
  return r;
}

MultitenantConfig MtConfig(MachineSpec machine, int nshards, int shard_threads) {
  MultitenantConfig cfg;
  cfg.machine = machine;
  cfg.nshards = nshards;
  cfg.shard_threads = shard_threads;
  cfg.warmup = Milliseconds(10);
  cfg.runtime = Milliseconds(80);
  cfg.seed = 11;
  return cfg;
}

// Adaptive-epoch variant: the cross-node RPC latency is raised to 100 us so
// the adaptive ramp has real widening headroom (the clamp is the minimum
// cross-shard latency; at 25 us the window could only grow 20 -> 25 us).
// The flat (nshards=1) twin uses the same latency, so it runs the identical
// logical system.
MultitenantConfig MtAdaptiveConfig(MachineSpec machine, int nshards, int shard_threads) {
  MultitenantConfig cfg = MtConfig(machine, nshards, shard_threads);
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

std::vector<PerfResult> RunAll() {
  std::vector<PerfResult> out;

  // schbench on CFS: wake/block churn through the pure simkernel path.
  out.push_back(Measure(
      "schbench", 0, [] { return MakeCfsStack(); },
      [](Stack& s) {
        SchbenchConfig cfg;
        cfg.message_threads = 4;
        cfg.workers_per_thread = 4;
        cfg.warmup = Milliseconds(50);
        cfg.runtime = Milliseconds(500);
        (void)RunSchbench(*s.core, s.policy, cfg);
      }));

  // pipe ping-pong through the Enoki runtime (WFQ): the per-callback message
  // round-trip path.
  out.push_back(Measure(
      "pipe", 0, [] { return MakeEnokiStack(std::make_unique<WfqSched>(0)); },
      [](Stack& s) {
        PipeBenchConfig cfg;
        cfg.messages = 30'000;
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
      [dispersive_seed](Stack& s) {
        DispersiveConfig cfg;
        cfg.rate_per_sec = 40'000;
        cfg.warmup = Milliseconds(50);
        cfg.runtime = Milliseconds(500);
        cfg.worker_policy = s.policy;
        cfg.cfs_policy = s.cfs_policy;
        cfg.seed = dispersive_seed;
        (void)RunDispersive(*s.core, cfg);
      }));

  // ---- sched_ext policy portfolio: each policy on its paired workload ----

  // central: tickless tenant mix, dispatch pulses from one CPU.
  out.push_back(Measure(
      "central_mix", 1, [] { return MakeEnokiStack(std::make_unique<CentralSched>(0)); },
      [](Stack& s) {
        TenantMixConfig cfg;
        cfg.rounds = 120;
        (void)RunTenantMix(*s.core, s.policy, cfg);
      }));

  // pair: sibling co-scheduling with two adversarial cookie populations,
  // cookies delivered through the module hint queue.
  out.push_back(Measure(
      "pair_gang", 1,
      [] {
        return MakeEnokiStack(std::make_unique<PairSched>(0), MachineSpec::SmtOneSocket8());
      },
      [](Stack& s) {
        SiblingPairsConfig cfg;
        cfg.rounds = 400;
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
      [](Stack& s) {
        ServiceTiersConfig cfg;
        cfg.rounds = 400;
        (void)RunServiceTiers(*s.core, s.policy, cfg);
      }));

  // rusty: cross-socket imbalance resolved by greedy domain stealing.
  out.push_back(Measure(
      "rusty_numa", 1,
      [] {
        return MakeEnokiStack(std::make_unique<RustySched>(0), MachineSpec::TwoNode16());
      },
      [](Stack& s) {
        SocketImbalanceConfig cfg;
        cfg.tasks = 32;
        cfg.work_total = Milliseconds(16);
        cfg.chunk = Microseconds(50);
        (void)RunSocketImbalance(*s.core, s.policy, cfg);
      }));

  // ---- large sharded machines: the multitenant datacenter workload -------
  // The flat rows are the true single-threaded engine (K=1 fast path) on the
  // whole box; the _s*t* rows shard per NUMA node and vary host threads.
  // t1 and t4 rows must agree on every count: the engine is deterministic
  // for any thread count.
  const MachineSpec m128 = MachineSpec::FourNode128();
  const MachineSpec m256 = MachineSpec::EightNode256();
  out.push_back(MeasureMt("mt128_flat", MtConfig(m128, 1, 1)));
  out.push_back(MeasureMt("mt128_s4t1", MtConfig(m128, 4, 1)));
  out.push_back(MeasureMt("mt128_s4t4", MtConfig(m128, 4, 4)));
  out.push_back(MeasureMt("mt256_flat", MtConfig(m256, 1, 1)));
  out.push_back(MeasureMt("mt256_s8t1", MtConfig(m256, 8, 1)));
  out.push_back(MeasureMt("mt256_s8t4", MtConfig(m256, 8, 4)));

  // Adaptive-epoch rows: same machines, 100 us cross-node latency, the
  // window ramping from 20 us to that latency.
  out.push_back(MeasureMt("mt128_s4t4a", MtAdaptiveConfig(m128, 4, 4)));
  out.push_back(MeasureMt("mt256_flata", MtAdaptiveConfig(m256, 1, 1)));
  out.push_back(MeasureMt("mt256_s8t1a", MtAdaptiveConfig(m256, 8, 1)));
  out.push_back(MeasureMt("mt256_s8t4a", MtAdaptiveConfig(m256, 8, 4)));

  // Heavy-tailed multitenant arrivals: Pareto inter-arrival gaps, mean-matched
  // to the Poisson rows' load. Exercises bursty queue depth on the sharded
  // engine.
  {
    MultitenantConfig heavy = MtConfig(m128, 4, 4);
    heavy.arrival = ArrivalDist::kPareto;
    heavy.pareto_alpha = 1.5;
    out.push_back(MeasureMt("mt128_s4t4h", heavy));
  }

  return out;
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

const BaselineRow* FindBaseline(const std::vector<BaselineRow>& rows, const std::string& config,
                                const std::string& metric) {
  for (const BaselineRow& r : rows) {
    if (r.config == config && r.metric == metric) {
      return &r;
    }
  }
  return nullptr;
}

bool Emits(const std::vector<PerfResult>& results, const BaselineRow& b) {
  for (const PerfResult& r : results) {
    if (r.name == b.config) {
      for (const auto& [metric, value] : r.rows()) {
        if (metric == b.metric) {
          return true;
        }
      }
    }
  }
  return false;
}

// Returns the number of failed rows. Every row but allocs_per_event is a pure
// function of the simulation and must match exactly: a drift names the
// config and the counter whose behaviour changed. allocs_per_event may rise
// by kAllocsTolerance plus kAllocsSlack. A row the run emits but the baseline
// lacks fails (new configs and counters land with baseline rows), and so does
// a baseline row the run no longer emits (a renamed counter must not silently
// stop being checked).
int CheckAgainstBaseline(const std::vector<PerfResult>& results, const std::string& path) {
  std::vector<BaselineRow> baseline;
  if (!LoadBaseline(path, &baseline)) {
    std::fprintf(stderr, "bench_simperf: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  for (const PerfResult& r : results) {
    for (const auto& [metric, value] : r.rows()) {
      const BaselineRow* base = FindBaseline(baseline, r.name, metric);
      if (base == nullptr) {
        std::fprintf(stderr, "MISSING BASELINE %s %s: regenerate %s\n", r.name.c_str(),
                     metric.c_str(), path.c_str());
        ++failures;
        continue;
      }
      const bool ok = metric == "allocs_per_event"
                          ? value <= base->value * (1.0 + kAllocsTolerance) + kAllocsSlack
                          : value == base->value;
      if (!ok) {
        std::fprintf(stderr, "REGRESSION %s %s: %.6f vs baseline %.6f\n", r.name.c_str(),
                     metric.c_str(), value, base->value);
        ++failures;
      }
    }
  }
  for (const BaselineRow& b : baseline) {
    if (!Emits(results, b)) {
      std::fprintf(stderr, "STALE BASELINE %s %s: row no longer emitted; regenerate %s\n",
                   b.config.c_str(), b.metric.c_str(), path.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("baseline check: OK (%zu rows, baseline %s)\n", baseline.size(), path.c_str());
  }
  return failures;
}

int Run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) != 0 && arg.rfind("--check-against=", 0) != 0) {
      std::fprintf(stderr,
                   "bench_simperf: unknown argument %s\n"
                   "usage: bench_simperf [--json=<path>] [--check-against=<baseline>]\n",
                   argv[i]);
      return 2;
    }
  }
  BenchJson json("bench_simperf", argc, argv);

  std::printf("Simulator regression gate (%d runs per config)\n", kReps);
  std::printf("%-12s %8s %14s %14s\n", "workload", "shrdthr", "events", "allocs/event");

  const std::vector<PerfResult> results = RunAll();
  for (const PerfResult& r : results) {
    char shard_col[12] = "-";
    if (r.shard_threads > 0) {
      std::snprintf(shard_col, sizeof(shard_col), "%d", r.shard_threads);
    }
    std::printf("%-12s %8s %14llu %14.3f\n", r.name.c_str(), shard_col,
                static_cast<unsigned long long>(r.events), r.allocs_per_event());
    for (const auto& [metric, value] : r.rows()) {
      json.Row(r.name, metric, value, r.seed);
    }
  }
  json.Write();

  if (const char* baseline = BenchArgValue(argc, argv, "--check-against")) {
    return CheckAgainstBaseline(results, baseline) == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace enoki

int main(int argc, char** argv) { return enoki::Run(argc, argv); }

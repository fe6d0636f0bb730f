#include "perfbench/workloads.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/timed.h"
#include "src/base/profile.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/shinjuku.h"
#include "src/sched/wfq.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/dispersive.h"
#include "src/workloads/multitenant.h"
#include "src/workloads/pipe.h"
// After multitenant.h; see mt_run.h.
#include "perfbench/mt_run.h"

namespace perfbench {

// Defined in traced_multitenant.cc.
void RunTracedMultitenantRep(const enoki::MultitenantConfig& cfg, Tracer* tracer, RepResult* r);

namespace {

using enoki::CfsClass;
using enoki::EnokiRuntime;
using enoki::EnokiSched;
using enoki::GlobalCounters;
using enoki::Microseconds;
using enoki::Milliseconds;
using enoki::SchedCore;

// pipe_wfq: a live upgrade every 25 ms and a checkpoint every 1 ms of
// simulated time exercise the runtime's write side on top of the shim.
constexpr Duration kUpgradeEvery = Milliseconds(25);
constexpr Duration kCheckpointEvery = Milliseconds(1);

// Host threads mt256_cfs runs its 8 shards on: the 4 cores of the host the
// benchmark was sized on.
constexpr int kMtThreads = 4;

struct NamedCb {
  const char* name;
  Cb cb;
};
constexpr NamedCb kCfsCbs[] = {
    {"select", kSelect},   {"enqueue", kEnqueue}, {"dequeue", kDequeue},
    {"pick", kPick},       {"preempted", kPreempted}, {"tick", kTick},
    {"wakeup_preempt", kWakeupPreempt}, {"balance", kBalance},
};
constexpr NamedCb kModuleCbs[] = {
    {"pick_next_task", kPickNextTask}, {"task_wakeup", kTaskWakeup},
    {"task_blocked", kTaskBlocked},    {"task_preempt", kTaskPreempt},
    {"select_task_rq", kSelectTaskRq}, {"balance", kModBalance},
    {"task_tick", kTaskTick},          {"timer_fired", kModTimerFired},
};

// Metrics an untraced repetition reports from the library's own counters.
const char* const kCounterMetrics[] = {
    "simkernel.events",         "simkernel.lane_spill_ratio", "simkernel.cascades",
    "simkernel.behind_inserts", "simkernel.context_switches", "simkernel.coalesced_ipis",
    "sharded.epochs",           "sharded.events_per_epoch",   "sharded.idle_leaps",
    "sharded.commit_msgs",      "sharded.barrier_wait_share", "sharded.commit_share",
    "sharded.widens",           "sharded.narrows",            "enoki.module_calls",
    "enoki.pick_errors",        "upgrade.attempts",           "upgrade.ok_ratio",
    "upgrade.host_us_p50",      "upgrade.host_us_p99",        "upgrade.sim_pause_us",
    "fault.trips",              "fault.escaped_exceptions",   "base.allocs_per_event",
    "base.event_slabs",         "base.arena_chunks",
};

double Percentile(std::vector<uint64_t> v, double pct) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[rank]);
}

double PerCall(uint64_t ns, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

uint64_t Fnv(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

// SchedCore on the 8-core machine with an Enoki module above CFS, every
// piece wrapped when `tracer` is set. Members are destroyed runtime-first,
// core last, as the classes are registered with the core.
struct EnokiStack {
  std::unique_ptr<SchedCore> core;
  std::unique_ptr<EnokiRuntime> runtime;
  std::unique_ptr<CfsClass> cfs;
  int policy = 0;
  int cfs_policy = 0;
};

std::unique_ptr<EnokiSched> Wrap(std::unique_ptr<EnokiSched> module, Tracer* tracer) {
  if (tracer == nullptr) {
    return module;
  }
  return std::make_unique<TimedModule>(std::move(module), tracer->NewTable(Tracer::kModule));
}

void BuildEnokiStack(std::unique_ptr<EnokiSched> module, Tracer* tracer, EnokiStack* s) {
  s->core = std::make_unique<SchedCore>(enoki::MachineSpec::OneSocket8(), enoki::SimCosts{});
  if (tracer != nullptr) {
    s->runtime = std::make_unique<TimedClass<EnokiRuntime>>(tracer->NewTable(Tracer::kEnoki),
                                                            Wrap(std::move(module), tracer));
    s->cfs = std::make_unique<TimedClass<CfsClass>>(tracer->NewTable(Tracer::kCfs));
  } else {
    s->runtime = std::make_unique<EnokiRuntime>(std::move(module));
    s->cfs = std::make_unique<CfsClass>();
  }
  s->policy = s->core->RegisterClass(s->runtime.get());
  s->cfs_policy = s->core->RegisterClass(s->cfs.get());
}

struct Snapshot {
  uint64_t slabs = GlobalCounters::Get().Value(GlobalCounters::kEventSlabs);
  uint64_t chunks = GlobalCounters::Get().Value(GlobalCounters::kArenaChunks);
};

// Builds the stack once, timing it; returns the counters as they were before.
// One cold set-up per process is what a user pays per experiment.
template <typename BuildFn>
Snapshot SetUp(EnokiStack* stack, RepResult* r, BuildFn build) {
  const Snapshot snap;
  const uint64_t t0 = NowNs();
  build(stack);
  r->setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return snap;
}

// Watchdog trips: each one ends in a rollback, a supervised restart or a
// quarantine.
uint64_t FaultTrips(const EnokiRuntime& rt) {
  return rt.rollbacks() + rt.module_restarts() + (rt.quarantined() ? 1 : 0);
}

// Library counters of a single-core Enoki stack after its run.
void AddStackCounters(const EnokiStack& s, const Snapshot& before, uint64_t allocs,
                      RepResult* r) {
  const enoki::WheelProfile& w = s.core->loop().wheel_profile();
  const EnokiRuntime& rt = *s.runtime;
  const double events = static_cast<double>(r->events);
  auto& m = r->layer;
  m["simkernel.events"] = events;
  m["simkernel.lane_spill_ratio"] =
      static_cast<double>(w.lane_spills) / static_cast<double>(w.lane_hits + w.lane_spills);
  m["simkernel.cascades"] = static_cast<double>(w.cascades);
  m["simkernel.behind_inserts"] = static_cast<double>(w.behind_inserts);
  m["simkernel.context_switches"] = static_cast<double>(s.core->context_switches());
  m["simkernel.coalesced_ipis"] = static_cast<double>(s.core->coalesced_ipis());
  m["enoki.module_calls"] = static_cast<double>(rt.module_calls());
  m["enoki.pick_errors"] = static_cast<double>(rt.pick_errors());
  m["fault.trips"] = static_cast<double>(FaultTrips(rt));
  m["fault.escaped_exceptions"] = static_cast<double>(rt.escaped_exceptions());
  m["base.allocs_per_event"] = static_cast<double>(allocs) / events;
  m["base.event_slabs"] = static_cast<double>(
      GlobalCounters::Get().Value(GlobalCounters::kEventSlabs) - before.slabs);
  m["base.arena_chunks"] = static_cast<double>(
      GlobalCounters::Get().Value(GlobalCounters::kArenaChunks) - before.chunks);
}

struct UpgradeLog {
  EnokiRuntime* runtime = nullptr;
  Tracer* tracer = nullptr;
  SchedCore* core = nullptr;
  uint64_t attempts = 0;
  uint64_t ok = 0;
  uint64_t pause_ns = 0;
  std::vector<uint64_t> host_ns;
};

// Self-rescheduling WFQ -> WFQ live upgrade. Carries one shared_ptr so it
// fits the event loop's inline callback buffer.
struct UpgradeTick {
  std::shared_ptr<UpgradeLog> log;
  void operator()() const {
    UpgradeLog& l = *log;
    auto next = Wrap(std::make_unique<enoki::WfqSched>(0), l.tracer);
    const uint64_t t0 = NowNs();
    const enoki::UpgradeReport report = l.runtime->Upgrade(std::move(next));
    l.host_ns.push_back(NowNs() - t0);
    ++l.attempts;
    if (report.ok) {
      ++l.ok;
      l.pause_ns += static_cast<uint64_t>(report.pause_ns);
    }
    l.core->loop().ScheduleAfter(kUpgradeEvery, *this);
  }
};

void RunPipeWfq(const Scale& scale, uint64_t seed, Tracer* tracer, RepResult* r) {
  EnokiStack s;
  const Snapshot before = SetUp(&s, r, [tracer](EnokiStack* st) {
    BuildEnokiStack(std::make_unique<enoki::WfqSched>(0), tracer, st);
    st->runtime->EnableWatchdog(enoki::WatchdogConfig{}, st->cfs_policy);
    st->runtime->SetCheckpointInterval(kCheckpointEvery);
  });
  auto log = std::make_shared<UpgradeLog>();
  log->runtime = s.runtime.get();
  log->tracer = tracer;
  log->core = s.core.get();
  // The seed sets the phase of the upgrade train against the ping-pong.
  const Duration phase = Microseconds(static_cast<int64_t>(seed % 25'000));
  s.core->loop().ScheduleAfter(kUpgradeEvery + phase, UpgradeTick{log});

  enoki::PipeBenchConfig cfg;
  cfg.messages = scale.pipe_messages;
  const uint64_t allocs0 = AllocCount();
  const uint64_t t0 = NowNs();
  const enoki::PipeBenchResult res = enoki::RunPipeBench(*s.core, s.policy, cfg);
  r->run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const uint64_t allocs = AllocCount() - allocs0;
  r->events = s.core->loop().events_executed();

  const EnokiRuntime& rt = *s.runtime;
  r->outputs["events"] = r->events;
  r->outputs["sim_elapsed_ns"] = static_cast<uint64_t>(res.elapsed_ns);
  r->outputs["wakeups"] = res.wakeups;
  r->outputs["context_switches"] = s.core->context_switches();
  r->outputs["module_calls"] = rt.module_calls();
  r->outputs["upgrades"] = log->attempts;
  r->outputs["upgrades_ok"] = log->ok;
  r->outputs["upgrade_pause_ns_sum"] = log->pause_ns;
  r->outputs["periodic_checkpoints"] = rt.periodic_checkpoints();
  r->outputs["restore_timeline_fnv"] = Fnv(rt.RestoreTimelineString());
  r->outputs["fingerprint"] = s.core->Fingerprint();
  if (!res.completed) {
    r->failures.push_back("pipe run did not complete");
  }
  if (log->ok != log->attempts) {
    r->failures.push_back("live upgrade failed");
  }
  if (FaultTrips(rt) != 0 || rt.escaped_exceptions() != 0) {
    r->failures.push_back("watchdog tripped");
  }
  if (tracer != nullptr) {
    return;
  }
  AddStackCounters(s, before, allocs, r);
  auto& m = r->layer;
  m["upgrade.attempts"] = static_cast<double>(log->attempts);
  m["upgrade.ok_ratio"] = PerCall(log->ok, log->attempts);
  m["upgrade.host_us_p50"] = Percentile(log->host_ns, 50) * 1e-3;
  m["upgrade.host_us_p99"] = Percentile(log->host_ns, 99) * 1e-3;
  m["upgrade.sim_pause_us"] = PerCall(log->pause_ns, log->ok) * 1e-3;
}

void RunDispersiveShinjuku(const Scale& scale, uint64_t seed, Tracer* tracer, RepResult* r) {
  enoki::CpuMask workers;
  for (int cpu = 2; cpu < 7; ++cpu) {
    workers.Set(cpu);
  }
  EnokiStack s;
  const Snapshot before = SetUp(&s, r, [tracer, workers](EnokiStack* st) {
    BuildEnokiStack(std::make_unique<enoki::ShinjukuSched>(
                        0, enoki::ShinjukuSched::kDefaultPreemptionSliceNs, workers),
                    tracer, st);
  });
  enoki::DispersiveConfig cfg;
  cfg.rate_per_sec = 40'000;
  cfg.warmup = Milliseconds(500);
  cfg.runtime = scale.dispersive_runtime;
  cfg.batch_tasks = 5;
  cfg.worker_policy = s.policy;
  cfg.cfs_policy = s.cfs_policy;
  cfg.seed = seed;
  const uint64_t allocs0 = AllocCount();
  const uint64_t t0 = NowNs();
  const enoki::DispersiveResult res = enoki::RunDispersive(*s.core, cfg);
  r->run_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const uint64_t allocs = AllocCount() - allocs0;
  r->events = s.core->loop().events_executed();

  r->outputs["events"] = r->events;
  r->outputs["completed"] = res.completed_requests;
  r->outputs["sim_p50_ns"] = static_cast<uint64_t>(res.p50);
  r->outputs["sim_p99_ns"] = static_cast<uint64_t>(res.p99);
  r->outputs["sim_p999_ns"] = static_cast<uint64_t>(res.p999);
  r->outputs["context_switches"] = s.core->context_switches();
  r->outputs["module_calls"] = s.runtime->module_calls();
  r->outputs["fingerprint"] = s.core->Fingerprint();
  if (res.completed_requests == 0) {
    r->failures.push_back("no request completed");
  }
  if (tracer == nullptr) {
    AddStackCounters(s, before, allocs, r);
  }
}

enoki::MultitenantConfig Mt256Config(const Scale& scale, uint64_t seed) {
  // The mt256_s8t4a shape: per-node shards on host threads, adaptive
  // epochs, 100 us cross-node latency.
  enoki::MultitenantConfig cfg;
  cfg.machine = enoki::MachineSpec::EightNode256();
  cfg.nshards = 8;
  cfg.shard_threads = kMtThreads;
  cfg.remote_latency = Microseconds(100);
  cfg.adaptive_epochs = true;
  cfg.warmup = Milliseconds(20);
  cfg.runtime = scale.mt_runtime;
  cfg.seed = seed;
  return cfg;
}

// Adds the wrapper-derived metrics of a traced repetition. `threads` is the
// number of host threads the spans were spread over.
void AddTracedMetrics(const Tracer& tracer, int threads, RepResult* r) {
  const CallTable enoki = tracer.Sum(Tracer::kEnoki);
  const CallTable cfs = tracer.Sum(Tracer::kCfs);
  const CallTable mod = tracer.Sum(Tracer::kModule);
  auto& m = r->layer;
  const double run_ns = r->run_s * 1e9;
  const double top_ns = static_cast<double>(enoki.top_ns + cfs.top_ns + mod.top_ns);
  m["simkernel.self_ns_per_event"] =
      (run_ns - top_ns / threads) / static_cast<double>(r->events);
  for (const NamedCb& c : kCfsCbs) {
    const CallStats& st = cfs.cb[c.cb];
    m[std::string("cfs.") + c.name + ".calls"] = static_cast<double>(st.calls);
    m[std::string("cfs.") + c.name + ".ns"] = PerCall(st.total_ns, st.calls);
  }
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  for (const CallStats& st : enoki.cb) {
    calls += st.calls;
    total_ns += st.total_ns;
    self_ns += st.self_ns;
  }
  m["enoki.calls"] = static_cast<double>(calls);
  m["enoki.ns_per_call"] = PerCall(total_ns, calls);
  m["enoki.shim_ns_per_call"] = PerCall(self_ns, enoki.nested_child_calls);
  for (const NamedCb& c : kModuleCbs) {
    const CallStats& st = mod.cb[c.cb];
    m[std::string("module.") + c.name + ".calls"] = static_cast<double>(st.calls);
    m[std::string("module.") + c.name + ".ns"] = PerCall(st.total_ns, st.calls);
  }
  const uint64_t saves = mod.cb[kSaveCheckpoint].calls;
  m["checkpoint.saves"] = static_cast<double>(saves);
  m["checkpoint.loads"] = static_cast<double>(mod.cb[kLoadCheckpoint].calls);
  m["checkpoint.save_ns_p50"] = Percentile(mod.save_ns, 50);
  m["checkpoint.save_ns_p99"] = Percentile(mod.save_ns, 99);
  m["checkpoint.bytes"] = PerCall(mod.save_bytes, saves);
  const std::pair<const char*, const CallTable*> layers[] = {
      {"enoki", &enoki}, {"cfs", &cfs}, {"module", &mod}};
  for (const auto& [layer, table] : layers) {
    for (int cb = 0; cb < kNumCb; ++cb) {
      const CallStats& st = table->cb[static_cast<size_t>(cb)];
      if (st.calls > 0) {
        r->histograms[std::string(layer) + "." + CbName(cb)] =
            std::vector<uint64_t>(st.log2_hist.begin(), st.log2_hist.end());
      }
    }
  }
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "pipe_wfq") {
    *out = Workload::kPipeWfq;
  } else if (name == "dispersive_shinjuku") {
    *out = Workload::kDispersiveShinjuku;
  } else if (name == "mt256_cfs") {
    *out = Workload::kMt256Cfs;
  } else {
    return false;
  }
  return true;
}

Scale Scale::Full() {
  Scale s;
  s.pipe_messages = 3'000'000;
  s.dispersive_runtime = enoki::Seconds(60);
  s.mt_runtime = enoki::Seconds(20);
  return s;
}

Scale Scale::Short() {
  Scale s;
  s.pipe_messages = 60'000;
  s.dispersive_runtime = Milliseconds(500);
  s.mt_runtime = Milliseconds(30);
  return s;
}

RepResult RunRep(Workload w, const Scale& scale, uint64_t seed, bool traced) {
  RepResult r;
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  int threads = 1;
  switch (w) {
    case Workload::kPipeWfq:
      RunPipeWfq(scale, seed, tr, &r);
      break;
    case Workload::kDispersiveShinjuku:
      RunDispersiveShinjuku(scale, seed, tr, &r);
      break;
    case Workload::kMt256Cfs:
      threads = kMtThreads;
      if (traced) {
        RunTracedMultitenantRep(Mt256Config(scale, seed), &tracer, &r);
      } else {
        RunMultitenantRep<enoki::MultitenantSim>(Mt256Config(scale, seed), false, &r);
      }
      break;
  }
  r.host_threads = threads;
  if (traced) {
    AddTracedMetrics(tracer, threads, &r);
  } else {
    // Layers this workload does not exercise report 0.
    for (const char* name : kCounterMetrics) {
      r.layer.emplace(name, 0.0);
    }
  }
  return r;
}

}  // namespace perfbench

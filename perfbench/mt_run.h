// Shared between workloads.cc and traced_multitenant.cc, which each
// instantiate the multitenant repetition with their own simulation type.
// Include after src/workloads/multitenant.h: the traced file includes that
// header under renaming macros, so this header cannot include it itself.

#ifndef PERFBENCH_MT_RUN_H_
#define PERFBENCH_MT_RUN_H_

#include "perfbench/timed.h"
#include "perfbench/workloads.h"
#include "src/base/profile.h"

namespace perfbench {

template <typename Sim>
void RunMultitenantRep(const enoki::MultitenantConfig& cfg, bool traced, RepResult* r) {
  using enoki::GlobalCounters;
  const uint64_t slabs0 = GlobalCounters::Get().Value(GlobalCounters::kEventSlabs);
  const uint64_t chunks0 = GlobalCounters::Get().Value(GlobalCounters::kArenaChunks);
  const uint64_t setup0 = NowNs();
  Sim sim(cfg);
  r->setup_s = static_cast<double>(NowNs() - setup0) * 1e-9;
  const uint64_t allocs0 = AllocCount();
  const uint64_t t0 = NowNs();
  const enoki::MultitenantResult res = sim.Run();
  const uint64_t run_ns = NowNs() - t0;
  const uint64_t allocs = AllocCount() - allocs0;
  r->run_s = static_cast<double>(run_ns) * 1e-9;
  r->events = res.events;

  r->outputs["events"] = res.events;
  r->outputs["completed"] = res.completed;
  r->outputs["handoffs"] = res.handoffs;
  r->outputs["cross_messages"] = res.cross_messages;
  r->outputs["sim_p50_ns"] = res.p50;
  r->outputs["sim_p99_ns"] = res.p99;
  r->outputs["fingerprint"] = res.fingerprint;
  if (res.completed == 0) {
    r->failures.push_back("no request completed");
  }
  if (traced) {
    return;
  }

  uint64_t switches = 0;
  uint64_t coalesced = 0;
  for (int i = 0; i < sim.ncores(); ++i) {
    switches += sim.core(i).context_switches();
    coalesced += sim.core(i).coalesced_ipis();
  }
  const enoki::WheelProfile w = sim.engine().WheelProfileSum();
  const enoki::ShardProfile p = sim.engine().profile();
  const double events = static_cast<double>(res.events);
  auto& m = r->layer;
  m["simkernel.events"] = events;
  m["simkernel.lane_spill_ratio"] =
      static_cast<double>(w.lane_spills) / static_cast<double>(w.lane_hits + w.lane_spills);
  m["simkernel.cascades"] = static_cast<double>(w.cascades);
  m["simkernel.behind_inserts"] = static_cast<double>(w.behind_inserts);
  m["simkernel.context_switches"] = static_cast<double>(switches);
  m["simkernel.coalesced_ipis"] = static_cast<double>(coalesced);
  m["sharded.epochs"] = static_cast<double>(p.epochs);
  m["sharded.events_per_epoch"] = events / static_cast<double>(p.epochs);
  m["sharded.idle_leaps"] = static_cast<double>(p.idle_leaps);
  m["sharded.commit_msgs"] = static_cast<double>(p.commit_msgs);
  m["sharded.barrier_wait_share"] = static_cast<double>(p.barrier_ns) / static_cast<double>(run_ns);
  m["sharded.commit_share"] = static_cast<double>(p.commit_ns) / static_cast<double>(run_ns);
  m["sharded.widens"] = static_cast<double>(p.widens);
  m["sharded.narrows"] = static_cast<double>(p.narrows);
  m["base.allocs_per_event"] = static_cast<double>(allocs) / events;
  m["base.event_slabs"] =
      static_cast<double>(GlobalCounters::Get().Value(GlobalCounters::kEventSlabs) - slabs0);
  m["base.arena_chunks"] =
      static_cast<double>(GlobalCounters::Get().Value(GlobalCounters::kArenaChunks) - chunks0);
}

}  // namespace perfbench

#endif  // PERFBENCH_MT_RUN_H_

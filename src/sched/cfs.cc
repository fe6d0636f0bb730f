#include "src/sched/cfs.h"

#include <algorithm>

namespace enoki {

void CfsClass::Attach(SchedCore* core) {
  SchedClass::Attach(core);
  ENOKI_CHECK(core->ncpus() <= CpuMask::kMaxCpus);
  rqs_.resize(static_cast<size_t>(core->ncpus()));
}

void CfsClass::Account(Task* t, Entity& e) {
  const Duration runtime = core_->TaskRuntime(t);
  if (runtime > e.last_runtime) {
    e.vruntime += CalcDeltaVruntime(runtime - e.last_runtime, e.weight);
    e.last_runtime = runtime;
  }
}

void CfsClass::Enqueue(int cpu, Task* t, Entity& e) {
  e.cpu = cpu;
  e.queued = true;
  e.running = false;
  rqs_[cpu].tree.emplace(e.vruntime, t);
  queued_.Set(cpu);
}

void CfsClass::Dequeue(Task* t, Entity& e) {
  if (!e.queued) {
    return;
  }
  auto& tree = rqs_[e.cpu].tree;
  tree.erase_one(e.vruntime, t);
  if (tree.empty()) {
    queued_.Clear(e.cpu);
  }
  e.queued = false;
}

size_t CfsClass::Load(int cpu) const {
  return rqs_[cpu].tree.size() + (rqs_[cpu].running != nullptr ? 1 : 0);
}

int CfsClass::SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) {
  const int ncpus = core_->ncpus();
  if (is_new) {
    // Spread new tasks to the least-loaded allowed CPU.
    int best = -1;
    size_t best_load = ~size_t{0};
    for (int cpu = 0; cpu < ncpus; ++cpu) {
      if (!t->affinity().Test(cpu)) {
        continue;
      }
      const size_t load = Load(cpu);
      if (load < best_load) {
        best_load = load;
        best = cpu;
      }
    }
    return best;
  }
  if (prev_cpu >= 0 && t->affinity().Test(prev_cpu) && core_->CpuIdle(prev_cpu) &&
      rqs_[prev_cpu].tree.empty()) {
    // Idle with nothing queued: a CPU that is merely exiting idle to run an
    // already-queued wakee does not count.
    return prev_cpu;
  }
  // Prefer an idle CPU in the previous CPU's node (LLC affinity), then any
  // idle CPU. One pass computes both candidates (first match in cpu order,
  // exactly as the two-scan version chose).
  const int node = prev_cpu >= 0 ? core_->NodeOf(prev_cpu) : 0;
  int idle_any = -1;
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    if (!t->affinity().Test(cpu) || !core_->CpuIdle(cpu) || !rqs_[cpu].tree.empty()) {
      continue;
    }
    if (core_->NodeOf(cpu) == node) {
      return cpu;  // first idle CPU in the home node wins outright
    }
    if (idle_any < 0) {
      idle_any = cpu;
    }
  }
  if (idle_any >= 0) {
    return idle_any;
  }
  // Fall back to the least-loaded allowed CPU, preferring the home node and
  // breaking ties toward CPUs with no *queued* work: a CPU whose current
  // task may block soon (empty tree) beats one with a waiter already queued
  // for a full slice.
  auto score = [&](int cpu) {
    size_t s = 2 * Load(cpu) + (rqs_[cpu].tree.empty() ? 0 : 1);
    if (core_->NodeOf(cpu) != node) {
      s += 2 * kNumaImbalanceThreshold;  // bias against crossing nodes
    }
    return s;
  };
  int best = prev_cpu >= 0 && t->affinity().Test(prev_cpu) ? prev_cpu : t->affinity().First();
  size_t best_score = score(best);
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    if (!t->affinity().Test(cpu)) {
      continue;
    }
    const size_t s = score(cpu);
    if (s < best_score) {
      best_score = s;
      best = cpu;
    }
  }
  return best;
}

void CfsClass::EnqueueTask(int cpu, Task* t, bool wakeup) {
  Entity& e = Ent(t);
  e.weight = NiceToWeight(t->nice());
  CfsRq& rq = rqs_[cpu];
  if (wakeup) {
    // Sleeper fairness (place_entity): cap the credit a sleeper accrues.
    const uint64_t floor_vr =
        rq.min_vruntime > kSchedLatencyNs ? rq.min_vruntime - kSchedLatencyNs : 0;
    e.vruntime = std::max(e.vruntime, floor_vr);
  } else {
    // New tasks start at min_vruntime (run at the end of the current period).
    e.vruntime = std::max(e.vruntime, rq.min_vruntime);
    e.last_runtime = core_->TaskRuntime(t);
  }
  Enqueue(cpu, t, e);
}

void CfsClass::DequeueTask(int cpu, Task* t, DequeueReason reason) {
  Entity& e = Ent(t);
  Account(t, e);
  Dequeue(t, e);
  if (rqs_[cpu].running == t) {
    rqs_[cpu].running = nullptr;
  }
  e.running = false;
  if (reason == DequeueReason::kDead) {
    e = Entity{};  // pids are never reused; drop the captured state
  }
}

Task* CfsClass::PickNextTask(int cpu) {
  CfsRq& rq = rqs_[cpu];
  if (rq.tree.empty()) {
    // Newidle balance: try to pull work before letting the CPU idle.
    if (!PullOne(cpu, /*newidle=*/true)) {
      rq.running = nullptr;
      return nullptr;
    }
  }
  Task* t = rq.tree.front().second;
  Entity& e = Ent(t);
  rq.min_vruntime = std::max(rq.min_vruntime, rq.tree.front().first);
  rq.tree.pop_front();
  if (rq.tree.empty()) {
    queued_.Clear(cpu);
  }
  e.queued = false;
  e.running = true;
  e.slice_start_runtime = e.last_runtime;
  rq.running = t;
  return t;
}

void CfsClass::TaskPreempted(int cpu, Task* t) {
  Entity& e = Ent(t);
  Account(t, e);
  if (rqs_[cpu].running == t) {
    rqs_[cpu].running = nullptr;
  }
  Enqueue(cpu, t, e);
}

void CfsClass::TaskYielded(int cpu, Task* t) {
  Entity& e = Ent(t);
  Account(t, e);
  // yield_task_fair: move behind the current rightmost entity.
  if (!rqs_[cpu].tree.empty()) {
    e.vruntime = std::max(e.vruntime, rqs_[cpu].tree.back().first + 1);
  }
  if (rqs_[cpu].running == t) {
    rqs_[cpu].running = nullptr;
  }
  Enqueue(cpu, t, e);
}

bool CfsClass::WakeupPreempt(int cpu, Task* curr, Task* woken) {
  if (curr->sched_class() != this) {
    return false;
  }
  // Read the woken vruntime before taking a reference to curr's entity:
  // Ent() may grow the vector and invalidate earlier references.
  const uint64_t woken_vr = Ent(woken).vruntime;
  Entity& ce = Ent(curr);
  Account(curr, ce);
  return woken_vr + kWakeupGranularityNs < ce.vruntime;
}

void CfsClass::TaskTick(int cpu, Task* t) {
  Entity& e = Ent(t);
  Account(t, e);
  CfsRq& rq = rqs_[cpu];
  ++rq.tick_count;
  // Periodic balancing.
  if (rq.tick_count % kBalanceTicks == 0 && rq.tree.empty()) {
    PullOne(cpu, /*newidle=*/false);
  }
  if (rq.tree.empty()) {
    return;
  }
  const size_t nr = rq.tree.size() + 1;
  const Duration period = std::max<Duration>(kSchedLatencyNs, kMinGranularityNs * nr);
  const Duration slice = std::max<Duration>(kMinGranularityNs, period / nr);
  const Duration ran = e.last_runtime - e.slice_start_runtime;
  const bool slice_expired = ran >= slice;
  const bool lagging = rq.tree.front().first + kWakeupGranularityNs < e.vruntime;
  if (slice_expired || lagging) {
    core_->SetNeedResched(cpu);
  }
}

bool CfsClass::PullOne(int cpu, bool newidle) {
  const int node = core_->NodeOf(cpu);
  int busiest = -1;
  size_t busiest_len = 0;
  bool busiest_cross_node = false;
  // Ascending CPU order over the non-empty queues only: the same candidates,
  // visited in the same order, as a scan of every CPU.
  for (int c = queued_.First(); c >= 0; c = queued_.NextAfter(c)) {
    if (c == cpu) {
      continue;
    }
    const size_t len = rqs_[c].tree.size();
    if (core_->CpuKickPending(c)) {
      // That CPU is already exiting idle to run its queue; pulling now
      // would race the wakeup IPI (and on real hardware, lose).
      continue;
    }
    const bool cross = core_->NodeOf(c) != node;
    if (cross && len < kNumaImbalanceThreshold) {
      continue;  // do not pull across nodes for small imbalances
    }
    // Prefer same-node queues; among candidates take the longest.
    if (busiest == -1 || (busiest_cross_node && !cross) ||
        (busiest_cross_node == cross && len > busiest_len)) {
      busiest = c;
      busiest_len = len;
      busiest_cross_node = cross;
    }
  }
  if (busiest < 0) {
    return false;
  }
  // Pull the task least likely to be cache-hot: the rightmost (largest
  // vruntime) eligible entity.
  auto& tree = rqs_[busiest].tree;
  for (size_t i = tree.size(); i-- > 0;) {
    Task* t = tree[i].second;
    if (!t->affinity().Test(cpu)) {
      continue;
    }
    Entity& e = Ent(t);
    Dequeue(t, e);
    // Renormalize vruntime to the destination timeline.
    const uint64_t from_min = rqs_[busiest].min_vruntime;
    const uint64_t to_min = rqs_[cpu].min_vruntime;
    e.vruntime = e.vruntime >= from_min ? to_min + (e.vruntime - from_min) : to_min;
    Enqueue(cpu, t, e);
    core_->MoveQueuedTask(t, cpu);
    ++migrations_;
    return true;
  }
  return false;
}

void CfsClass::PrioChanged(Task* t) {
  Entity& e = Ent(t);
  Account(t, e);
  e.weight = NiceToWeight(t->nice());
}

void CfsClass::AffinityChanged(Task* t) {
  Entity& e = Ent(t);
  if (e.queued && !t->affinity().Test(e.cpu)) {
    Dequeue(t, e);
    const int cpu = t->affinity().First();
    Enqueue(cpu, t, e);
    core_->MoveQueuedTask(t, cpu);
    core_->KickCpu(cpu);
  }
}

}  // namespace enoki

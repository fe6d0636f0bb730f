#include "src/sched/wfq.h"

#include <algorithm>

namespace enoki {

template class TokenQueueSched<WfqSched, WfqEntity>;

void WfqSched::Charge(WfqEntity& e, Duration runtime) {
  if (runtime > e.last_runtime) {
    e.key += CalcDeltaVruntime(runtime - e.last_runtime, e.weight);
    e.last_runtime = runtime;
  }
}

void WfqSched::Place(const TaskMessage& msg, WfqEntity& e, int cpu, Arrival why) {
  if (why == Arrival::kNew) {
    e.key = min_vruntime_[cpu];
  } else if (why == Arrival::kWakeup) {
    // Sleeper fairness: a long sleep must not turn into a large vruntime
    // credit. Minimum is min_vruntime - sched_latency (section 4.2.1).
    const uint64_t floor_vr = min_vruntime_[cpu] > kSchedLatencyNs
                                  ? min_vruntime_[cpu] - kSchedLatencyNs
                                  : 0;
    e.key = std::max(e.key, floor_vr);
  }
}

void WfqSched::Migrate(const MigrateMessage& msg, WfqEntity& e) {
  // Renormalize vruntime into the destination queue's timeline.
  const uint64_t from_min = min_vruntime_[msg.from_cpu];
  const uint64_t to_min = min_vruntime_[msg.to_cpu];
  e.key = e.key >= from_min ? to_min + (e.key - from_min) : to_min;
  e.running = false;
}

int WfqSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  if (msg.is_new) {
    // New tasks: shortest queue (counting the running task as load).
    int best = 0;
    size_t best_len = ~size_t{0};
    for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
      const size_t len = table_.Load(cpu);
      if (len < best_len) {
        best_len = len;
        best = cpu;
      }
    }
    return best;
  }
  // Waking tasks return to their previous CPU; stealing evens things out.
  return msg.prev_cpu >= 0 ? msg.prev_cpu : 0;
}

void WfqSched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  if (WfqEntity* e = table_.Find(pid)) {
    e->weight = NiceToWeight(nice);
  }
}

std::optional<Schedulable> WfqSched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  const auto& q = table_.queues[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  min_vruntime_[cpu] = std::max(min_vruntime_[cpu], q.front().first);
  return table_.Pick(cpu, 0, [](uint64_t, WfqEntity& e) {
    e.slice_start_runtime = e.last_runtime;
  });
}

std::optional<uint64_t> WfqSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  const auto& queues = table_.queues;
  if (!queues[cpu].empty()) {
    return std::nullopt;
  }
  // The core is about to go idle: steal from the longest queue.
  int busiest = -1;
  size_t best = 1;
  for (int c = 0; c < static_cast<int>(queues.size()); ++c) {
    if (c != cpu && queues[c].size() >= best) {
      best = queues[c].size();
      busiest = c;
    }
  }
  if (busiest < 0) {
    return std::nullopt;
  }
  return queues[busiest].front().second;
}

void WfqSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  WfqEntity* found = table_.Find(pid);
  if (found == nullptr) {
    return;
  }
  WfqEntity& e = *found;
  Charge(e, runtime);
  const auto& q = table_.queues[cpu];
  if (q.empty()) {
    return;
  }
  // Fair time slice: period / nr_running, floored at the minimum
  // granularity, scaled by this task's weight share.
  const size_t nr = q.size() + 1;
  const Duration period = std::max(kSchedLatencyNs, kMinGranularityNs * nr);
  const Duration slice = std::max(kMinGranularityNs, period / nr);
  const Duration ran = e.last_runtime - e.slice_start_runtime;
  const bool slice_expired = ran >= slice;
  // Wakeup-style preemption at tick: a queued task with materially lower
  // vruntime should take over.
  const bool lagging = q.front().first + kWakeupGranularityNs < e.key;
  if (slice_expired || lagging) {
    env_->ReschedCpu(cpu);
  }
}

void WfqSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  // Vruntime baselines fold by min onto a smaller machine: restored
  // entities carry vruntimes measured against their old cursor, and a
  // too-high baseline would starve them behind fresh arrivals. A larger
  // machine's extra CPUs join at the saved minimum, the fair frontier,
  // rather than at 0, which would let their first tasks monopolize it.
  ar->Array(&min_vruntime_, CheckpointArchive::Fold::kMin);
  // Restored entities start parked (not queued, not running): the runtime
  // re-injects queued tasks as fresh wakeups after the restore.
  WfqEntity fresh;
  fresh.live = true;
  ar->PidTable(&table_.ents, [](const WfqEntity& e) { return e.live; }, fresh,
               [&](WfqEntity* e) {
                 ar->Word(&e->key);
                 ar->NonZero(&e->weight);
                 ar->Word(&e->last_runtime);
                 // v1 predates slice_start_runtime; seed it from the watermark.
                 if (ar->version() >= 2) {
                   ar->Word(&e->slice_start_runtime);
                 } else {
                   e->slice_start_runtime = e->last_runtime;
                 }
                 // The home CPU remaps like its baseline, so an entity lands
                 // next to the cursor its vruntime is measured against.
                 ar->Cpu(&e->cpu, table_.queues.size());
               });
}

uint64_t WfqSched::VruntimeOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  WfqEntity* e = table_.Find(pid);
  return e == nullptr ? 0 : e->key;
}

uint64_t WfqSched::WeightOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  WfqEntity* e = table_.Find(pid);
  return e == nullptr ? 0 : e->weight;
}

}  // namespace enoki

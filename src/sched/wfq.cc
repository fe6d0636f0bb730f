#include "src/sched/wfq.h"

#include <algorithm>

namespace enoki {

void WfqSched::Account(Entity& e, Duration runtime) {
  if (runtime > e.last_runtime) {
    e.vruntime += CalcDeltaVruntime(runtime - e.last_runtime, e.weight);
    e.last_runtime = runtime;
  }
}

void WfqSched::EnqueueLocked(uint64_t pid, Entity& e, int cpu) {
  e.cpu = cpu;
  e.queued = true;
  e.running = false;
  queues_[cpu].emplace(e.vruntime, pid);
}

void WfqSched::DequeueLocked(uint64_t pid, Entity& e) {
  if (!e.queued) {
    return;
  }
  queues_[e.cpu].erase_one(e.vruntime, pid);
  e.queued = false;
}

int WfqSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  if (msg.is_new) {
    // New tasks: shortest queue (counting the running task as load).
    int best = 0;
    size_t best_len = ~size_t{0};
    for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
      size_t len = queues_[cpu].size();
      for (const Entity& e : entities_) {
        if (e.live && e.running && e.cpu == cpu) {
          ++len;
          break;
        }
      }
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

void WfqSched::TaskNew(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  const int cpu = sched.cpu();
  const uint64_t pid = msg.pid;
  Entity& e = EntSlot(pid);
  e = Entity{};
  e.live = true;
  e.weight = NiceToWeight(msg.nice);
  e.last_runtime = msg.runtime;
  e.vruntime = min_vruntime_[cpu];
  EnqueueLocked(pid, e, cpu);
  TokSlot(pid) = std::move(sched);
}

void WfqSched::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched), /*clamp_vruntime=*/true);
}

void WfqSched::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched), /*clamp_vruntime=*/false);
}

void WfqSched::TaskYield(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched), /*clamp_vruntime=*/false);
}

void WfqSched::RequeueRunnable(const TaskMessage& msg, Schedulable sched, bool clamp_vruntime) {
  SpinLockGuard g(lock_);
  Entity* found = FindEnt(msg.pid);
  if (found == nullptr) {
    // First sighting (e.g. after an upgrade with partial state): adopt it.
    Entity& slot = EntSlot(msg.pid);
    slot = Entity{};
    slot.live = true;
    slot.weight = NiceToWeight(msg.nice);
    slot.last_runtime = msg.runtime;
    found = &slot;
  }
  Entity& e = *found;
  Account(e, msg.runtime);
  const int cpu = sched.cpu();
  if (clamp_vruntime) {
    // Sleeper fairness: a long sleep must not turn into a large vruntime
    // credit. Minimum is min_vruntime - sched_latency (section 4.2.1).
    const uint64_t floor_vr = min_vruntime_[cpu] > kSchedLatencyNs
                                  ? min_vruntime_[cpu] - kSchedLatencyNs
                                  : 0;
    e.vruntime = std::max(e.vruntime, floor_vr);
  }
  DequeueLocked(msg.pid, e);
  EnqueueLocked(msg.pid, e, cpu);
  TokSlot(msg.pid) = std::move(sched);
}

void WfqSched::TaskBlocked(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Entity* e = FindEnt(msg.pid);
  if (e == nullptr) {
    return;
  }
  Account(*e, msg.runtime);
  DequeueLocked(msg.pid, *e);
  e->running = false;
  if (msg.pid < tokens_.size()) {
    tokens_[msg.pid].reset();
  }
}

void WfqSched::TaskDead(uint64_t pid) {
  SpinLockGuard g(lock_);
  Entity* e = FindEnt(pid);
  if (e != nullptr) {
    DequeueLocked(pid, *e);
    *e = Entity{};  // pids are never reused; drop the state
  }
  if (pid < tokens_.size()) {
    tokens_[pid].reset();
  }
}

std::optional<Schedulable> WfqSched::TaskDeparted(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Entity* e = FindEnt(msg.pid);
  if (e != nullptr) {
    DequeueLocked(msg.pid, *e);
    *e = Entity{};
  }
  if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid].reset();
  return s;
}

void WfqSched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  if (Entity* e = FindEnt(pid)) {
    e->weight = NiceToWeight(nice);
  }
}

std::optional<Schedulable> WfqSched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  auto& q = queues_[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const uint64_t pid = q.front().second;
  min_vruntime_[cpu] = std::max(min_vruntime_[cpu], q.front().first);
  q.pop_front();
  Entity* e = FindEnt(pid);
  ENOKI_CHECK(e != nullptr);
  e->queued = false;
  e->running = true;
  e->slice_start_runtime = e->last_runtime;
  if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[pid]);
  tokens_[pid].reset();
  return s;
}

std::optional<uint64_t> WfqSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!queues_[cpu].empty()) {
    return std::nullopt;
  }
  // The core is about to go idle: steal from the longest queue.
  int busiest = -1;
  size_t best = 1;
  for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
    if (c != cpu && queues_[c].size() >= best) {
      best = queues_[c].size();
      busiest = c;
    }
  }
  if (busiest < 0) {
    return std::nullopt;
  }
  return queues_[busiest].front().second;
}

Schedulable WfqSched::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Entity* found = FindEnt(msg.pid);
  ENOKI_CHECK(found != nullptr);
  Entity& e = *found;
  Account(e, msg.runtime);
  DequeueLocked(msg.pid, e);
  // Renormalize vruntime into the destination queue's timeline.
  const uint64_t from_min = min_vruntime_[msg.from_cpu];
  const uint64_t to_min = min_vruntime_[msg.to_cpu];
  e.vruntime = e.vruntime >= from_min ? to_min + (e.vruntime - from_min) : to_min;
  EnqueueLocked(msg.pid, e, msg.to_cpu);
  ENOKI_CHECK(msg.pid < tokens_.size() && tokens_[msg.pid].has_value());
  Schedulable old = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid] = std::move(sched);
  return old;
}

void WfqSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  Entity* found = FindEnt(pid);
  if (found == nullptr) {
    return;
  }
  Entity& e = *found;
  Account(e, runtime);
  const auto& q = queues_[cpu];
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
  const bool lagging = q.front().first + kWakeupGranularityNs < e.vruntime;
  if (slice_expired || lagging) {
    env_->ReschedCpu(cpu);
  }
}

TransferState WfqSched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->entities = std::move(entities_);
  t->tokens = std::move(tokens_);
  t->queues = std::move(queues_);
  t->min_vruntime = std::move(min_vruntime_);
  entities_.clear();
  tokens_.clear();
  queues_.clear();
  min_vruntime_.clear();
  return TransferState::Of(std::move(t));
}

void WfqSched::ReregisterInit(TransferState state) {
  if (state.empty()) {
    return;
  }
  auto t = state.Take<Transfer>();
  if (t == nullptr) {
    return;
  }
  SpinLockGuard g(lock_);
  entities_ = std::move(t->entities);
  tokens_ = std::move(t->tokens);
  queues_ = std::move(t->queues);
  min_vruntime_ = std::move(t->min_vruntime);
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
  ar->PidTable(&entities_, [](const Entity& e) { return e.live; }, Entity{.live = true},
               [&](Entity* e) {
                 ar->Word(&e->vruntime);
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
                 ar->Cpu(&e->cpu, queues_.size());
               });
}

size_t WfqSched::QueueDepth(int cpu) {
  SpinLockGuard g(lock_);
  return queues_[cpu].size();
}

uint64_t WfqSched::VruntimeOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  Entity* e = FindEnt(pid);
  return e == nullptr ? 0 : e->vruntime;
}

uint64_t WfqSched::WeightOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  Entity* e = FindEnt(pid);
  return e == nullptr ? 0 : e->weight;
}

}  // namespace enoki

#include "src/sched/ext/central.h"

namespace enoki {

void CentralSched::ArmPulseLocked() {
  if (!timer_armed_) {
    timer_armed_ = true;
    env_->ArmTimer(central_cpu_, pulse_);
  }
}

bool CentralSched::AnyQueuedLocked() const {
  for (const auto& q : queues_) {
    if (!q.empty()) {
      return true;
    }
  }
  return false;
}

void CentralSched::ClearRunningLocked(uint64_t pid, Ent& e) {
  if (e.cpu >= 0 && e.cpu < static_cast<int>(running_pid_.size()) &&
      running_pid_[e.cpu] == pid) {
    running_pid_[e.cpu] = 0;
  }
  e.running = false;
}

int CentralSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  // The dispatcher decides globally: least-loaded worker, counting the
  // running task as load. The central CPU is never chosen.
  int best = central_cpu_ == 0 && queues_.size() > 1 ? 1 : 0;
  size_t best_len = ~size_t{0};
  for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
    if (!WorkerCpuLocked(cpu)) {
      continue;
    }
    const size_t len = queues_[cpu].size() + (running_pid_[cpu] != 0 ? 1 : 0);
    if (len < best_len) {
      best_len = len;
      best = cpu;
    }
  }
  return best;
}

void CentralSched::TaskNew(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  const int cpu = sched.cpu();
  Ent& e = EntSlot(msg.pid);
  e = Ent{};
  e.live = true;
  e.last_runtime = msg.runtime;
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
  ArmPulseLocked();
}

void CentralSched::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void CentralSched::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void CentralSched::TaskYield(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void CentralSched::RequeueRunnable(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  if (found == nullptr) {
    // First sighting (e.g. after an upgrade with partial state): adopt it.
    Ent& slot = EntSlot(msg.pid);
    slot = Ent{};
    slot.live = true;
    slot.last_runtime = msg.runtime;
    found = &slot;
  }
  Ent& e = *found;
  if (msg.runtime > e.last_runtime) {
    e.last_runtime = msg.runtime;
  }
  ClearRunningLocked(msg.pid, e);
  if (e.queued) {
    queues_[e.cpu].erase_one(e.seq, msg.pid);
  }
  const int cpu = sched.cpu();
  e.seq = next_seq_++;  // FIFO: requeue at the global tail
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
  ArmPulseLocked();
}

void CentralSched::TaskBlocked(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e == nullptr) {
    return;
  }
  if (msg.runtime > e->last_runtime) {
    e->last_runtime = msg.runtime;
  }
  if (e->queued) {
    queues_[e->cpu].erase_one(e->seq, msg.pid);
    e->queued = false;
  }
  ClearRunningLocked(msg.pid, *e);
  if (msg.pid < tokens_.size()) {
    tokens_[msg.pid].reset();
  }
}

void CentralSched::TaskDead(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, pid);
    }
    ClearRunningLocked(pid, *e);
    *e = Ent{};  // pids are never reused; drop the state
  }
  if (pid < tokens_.size()) {
    tokens_[pid].reset();
  }
}

std::optional<Schedulable> CentralSched::TaskDeparted(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, msg.pid);
    }
    ClearRunningLocked(msg.pid, *e);
    *e = Ent{};
  }
  if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid].reset();
  return s;
}

std::optional<Schedulable> CentralSched::PickNextTask(int cpu,
                                                      std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  auto& q = queues_[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const uint64_t pid = q.front().second;
  q.pop_front();
  Ent* e = FindEnt(pid);
  ENOKI_CHECK(e != nullptr);
  e->queued = false;
  e->running = true;
  e->pick_time = env_->Now();
  running_pid_[cpu] = pid;
  if (cpu == central_cpu_ && queues_.size() > 1) {
    // Only runtime-forced placements (affinity fallbacks) land here; the
    // policy itself never selects the dispatch CPU.
    ++central_picks_;
  }
  if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[pid]);
  tokens_[pid].reset();
  return s;
}

std::optional<uint64_t> CentralSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!WorkerCpuLocked(cpu) || !queues_[cpu].empty()) {
    return std::nullopt;
  }
  // Pull the globally-oldest waiting task (scx_central's single global
  // queue, approximated). Anything parked on the central CPU's queue is
  // drained with priority since nothing picks there.
  const auto& cq = queues_[central_cpu_];
  if (queues_.size() > 1 && !cq.empty()) {
    return cq.front().second;
  }
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
    if (c == cpu || queues_[c].empty()) {
      continue;
    }
    if (queues_[c].front().first < best_seq) {
      best_seq = queues_[c].front().first;
      best = queues_[c].front().second;
    }
  }
  return best;
}

Schedulable CentralSched::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  ENOKI_CHECK(found != nullptr);
  Ent& e = *found;
  if (msg.runtime > e.last_runtime) {
    e.last_runtime = msg.runtime;
  }
  if (e.queued) {
    queues_[e.cpu].erase_one(e.seq, msg.pid);
  }
  // Keep the arrival sequence: migration must not reset the task's age.
  e.cpu = msg.to_cpu;
  e.queued = true;
  queues_[msg.to_cpu].emplace(e.seq, msg.pid);
  ENOKI_CHECK(msg.pid < tokens_.size() && tokens_[msg.pid].has_value());
  Schedulable old = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid] = std::move(sched);
  return old;
}

void CentralSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  // Workers are tickless under central: preemption decisions come only from
  // the dispatch pulse. The tick merely keeps accounting fresh and re-arms
  // the pulse if it was lost (e.g. across an upgrade).
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e != nullptr && runtime > e->last_runtime) {
    e->last_runtime = runtime;
  }
  if (AnyQueuedLocked()) {
    ArmPulseLocked();
  }
}

void CentralSched::TimerFired(int cpu) {
  SpinLockGuard g(lock_);
  if (cpu != central_cpu_) {
    return;
  }
  timer_armed_ = false;
  ++dispatch_pulses_;
  const Time now = env_->Now();
  for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
    if (!WorkerCpuLocked(c) || queues_[c].empty()) {
      continue;
    }
    const uint64_t running = running_pid_[c];
    if (running == 0) {
      // Work waiting on an idle worker (e.g. it stalled across an upgrade
      // boundary): kick it awake.
      env_->ReschedCpu(c);
      continue;
    }
    Ent* e = FindEnt(running);
    if (e != nullptr && now >= e->pick_time && now - e->pick_time >= slice_) {
      ++preempt_kicks_;
      env_->ReschedCpu(c);
    }
  }
  if (AnyQueuedLocked()) {
    ArmPulseLocked();
  }
}

TransferState CentralSched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->ents = std::move(ents_);
  t->tokens = std::move(tokens_);
  t->queues = std::move(queues_);
  t->running_pid = std::move(running_pid_);
  t->next_seq = next_seq_;
  ents_.clear();
  tokens_.clear();
  queues_.clear();
  running_pid_.clear();
  next_seq_ = 1;
  timer_armed_ = false;
  return TransferState::Of(std::move(t));
}

void CentralSched::ReregisterInit(TransferState state) {
  if (state.empty()) {
    return;
  }
  auto t = state.Take<Transfer>();
  if (t == nullptr) {
    return;
  }
  SpinLockGuard g(lock_);
  ents_ = std::move(t->ents);
  tokens_ = std::move(t->tokens);
  queues_ = std::move(t->queues);
  running_pid_ = std::move(t->running_pid);
  next_seq_ = t->next_seq;
  // The outgoing instance's armed timer does not transfer; re-arm if work
  // is waiting so the pulse resumes.
  if (AnyQueuedLocked()) {
    ArmPulseLocked();
  }
}

void CentralSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&next_seq_);
}

uint64_t CentralSched::dispatch_pulses() {
  SpinLockGuard g(lock_);
  return dispatch_pulses_;
}

uint64_t CentralSched::preempt_kicks() {
  SpinLockGuard g(lock_);
  return preempt_kicks_;
}

uint64_t CentralSched::central_picks() {
  SpinLockGuard g(lock_);
  return central_picks_;
}

size_t CentralSched::QueueDepth(int cpu) {
  SpinLockGuard g(lock_);
  return queues_[cpu].size();
}

}  // namespace enoki

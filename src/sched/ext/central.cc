#include "src/sched/ext/central.h"

namespace enoki {

template class TokenQueueSched<CentralSched, CentralEnt>;

void CentralSched::ArmPulseLocked() {
  if (!timer_armed_) {
    timer_armed_ = true;
    env_->ArmTimer(central_cpu_, pulse_);
  }
}

bool CentralSched::AnyQueuedLocked() const {
  for (const auto& q : table_.queues) {
    if (!q.empty()) {
      return true;
    }
  }
  return false;
}

void CentralSched::StopRunning(uint64_t pid, CentralEnt& e) {
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
  int best = central_cpu_ == 0 && table_.queues.size() > 1 ? 1 : 0;
  size_t best_len = ~size_t{0};
  for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
    if (!WorkerCpuLocked(cpu)) {
      continue;
    }
    const size_t len = table_.queues[cpu].size() + (running_pid_[cpu] != 0 ? 1 : 0);
    if (len < best_len) {
      best_len = len;
      best = cpu;
    }
  }
  return best;
}

std::optional<Schedulable> CentralSched::PickNextTask(int cpu,
                                                      std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [&](uint64_t pid, CentralEnt& e) {
    e.pick_time = env_->Now();
    running_pid_[cpu] = pid;
    if (cpu == central_cpu_ && table_.queues.size() > 1) {
      // Only runtime-forced placements (affinity fallbacks) land here; the
      // policy itself never selects the dispatch CPU.
      ++central_picks_;
    }
  });
}

std::optional<uint64_t> CentralSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  const auto& queues = table_.queues;
  if (!WorkerCpuLocked(cpu) || !queues[cpu].empty()) {
    return std::nullopt;
  }
  // Pull the globally-oldest waiting task (scx_central's single global
  // queue, approximated). Anything parked on the central CPU's queue is
  // drained with priority since nothing picks there.
  const auto& cq = queues[central_cpu_];
  if (queues.size() > 1 && !cq.empty()) {
    return cq.front().second;
  }
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c = 0; c < static_cast<int>(queues.size()); ++c) {
    if (c == cpu || queues[c].empty()) {
      continue;
    }
    if (queues[c].front().first < best_seq) {
      best_seq = queues[c].front().first;
      best = queues[c].front().second;
    }
  }
  return best;
}

void CentralSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  // Workers are tickless under central: preemption decisions come only from
  // the dispatch pulse. The tick merely keeps accounting fresh and re-arms
  // the pulse if it was lost (e.g. across an upgrade).
  SpinLockGuard g(lock_);
  if (CentralEnt* e = table_.Find(pid)) {
    Charge(*e, runtime);
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
  for (int c = 0; c < static_cast<int>(table_.queues.size()); ++c) {
    if (!WorkerCpuLocked(c) || table_.queues[c].empty()) {
      continue;
    }
    const uint64_t running = running_pid_[c];
    if (running == 0) {
      // Work waiting on an idle worker (e.g. it stalled across an upgrade
      // boundary): kick it awake.
      env_->ReschedCpu(c);
      continue;
    }
    const CentralEnt* e = table_.Find(running);
    if (e != nullptr && now >= e->pick_time && now - e->pick_time >= slice_) {
      env_->ReschedCpu(c);
    }
  }
  if (AnyQueuedLocked()) {
    ArmPulseLocked();
  }
}

void CentralSched::SaveTransfer(Transfer& t) {
  t.running_pid = std::move(running_pid_);
  running_pid_.clear();
  timer_armed_ = false;
}

void CentralSched::LoadTransfer(Transfer& t) {
  running_pid_ = std::move(t.running_pid);
  // The outgoing instance's armed timer does not transfer; re-arm if work
  // is waiting so the pulse resumes.
  if (AnyQueuedLocked()) {
    ArmPulseLocked();
  }
}

void CentralSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&table_.next_seq);
}

uint64_t CentralSched::dispatch_pulses() {
  SpinLockGuard g(lock_);
  return dispatch_pulses_;
}

uint64_t CentralSched::central_picks() {
  SpinLockGuard g(lock_);
  return central_picks_;
}

}  // namespace enoki

#include "src/sched/shinjuku.h"

namespace enoki {

template class TokenQueueSched<ShinjukuSched, QueueEnt>;

void ShinjukuSched::AttachCpus(int ncpus) {
  if (worker_cpus_.Empty()) {
    worker_cpus_ = CpuMask::All(ncpus);
  }
  timer_armed_.assign(static_cast<size_t>(ncpus), false);
  running_.assign(static_cast<size_t>(ncpus), 0);
}

int ShinjukuSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  // Shortest worker queue; FCFS order is restored globally by Balance.
  int best = -1;
  size_t best_len = ~size_t{0};
  for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
    if (!worker_cpus_.Test(cpu)) {
      continue;
    }
    const size_t len = table_.queues[cpu].size() + (running_[cpu] != 0 ? 1 : 0);
    if (len < best_len) {
      best_len = len;
      best = cpu;
    }
  }
  return best >= 0 ? best : (msg.prev_cpu >= 0 ? msg.prev_cpu : 0);
}

std::optional<Schedulable> ShinjukuSched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  running_[cpu] = 0;
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [&](uint64_t pid, QueueEnt&) {
    running_[cpu] = pid;
    ArmLocked(cpu);
  });
}

std::optional<uint64_t> ShinjukuSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  const auto& queues = table_.queues;
  if (!queues[cpu].empty()) {
    return std::nullopt;
  }
  // Pull the globally oldest waiting task (FCFS approximation).
  int oldest_cpu = -1;
  uint64_t oldest_seq = ~0ull;
  for (int c = 0; c < static_cast<int>(queues.size()); ++c) {
    if (c != cpu && !queues[c].empty() && queues[c].front().first < oldest_seq) {
      oldest_seq = queues[c].front().first;
      oldest_cpu = c;
    }
  }
  if (oldest_cpu < 0) {
    return std::nullopt;
  }
  return queues[oldest_cpu].front().second;
}

void ShinjukuSched::TimerFired(int cpu) {
  SpinLockGuard g(lock_);
  timer_armed_[cpu] = false;
  if (running_[cpu] != 0 && !table_.queues[cpu].empty()) {
    // Preempt-and-requeue: the slice expired with work waiting.
    env_->ReschedCpu(cpu);
    ArmLocked(cpu);
  }
  // With nothing waiting the timer stays quiet; the next arrival re-arms
  // it. This keeps the preemption machinery off the fast path at low
  // load, like Shinjuku's dispatcher.
}

void ShinjukuSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  // The Shinjuku timer, not the system tick, drives preemption; the tick
  // re-arms the timer defensively in case it was lost.
  SpinLockGuard g(lock_);
  if (running_[cpu] != 0 && !table_.queues[cpu].empty()) {
    ArmLocked(cpu);
  }
}

void ShinjukuSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&table_.next_seq);
}

}  // namespace enoki

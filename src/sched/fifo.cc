#include "src/sched/fifo.h"

namespace enoki {

template class TokenQueueSched<FifoSched, QueueEnt>;

int FifoSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  if (msg.is_new) {
    // Round-robin placement for new tasks.
    const int cpu = next_cpu_;
    next_cpu_ = (next_cpu_ + 1) % env_->NumCpus();
    return cpu;
  }
  return msg.prev_cpu >= 0 ? msg.prev_cpu : 0;
}

std::optional<Schedulable> FifoSched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [](uint64_t, QueueEnt&) {});
}

std::optional<uint64_t> FifoSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  const auto& queues = table_.queues;
  if (!queues[cpu].empty()) {
    return std::nullopt;
  }
  // Steal the head of the longest queue.
  int busiest = -1;
  size_t best = 1;  // require at least one waiting task
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

void FifoSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  // Round-robin among waiting tasks: ask for a resched when others wait.
  SpinLockGuard g(lock_);
  if (!table_.queues[cpu].empty()) {
    env_->ReschedCpu(cpu);
  }
}

void FifoSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->Cpu(&next_cpu_, table_.queues.size());
}

}  // namespace enoki

#include "src/sched/nest.h"

namespace enoki {

template class TokenQueueSched<NestSched, QueueEnt>;

int NestSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  const Time now = env_->Now();
  const int ncpus = static_cast<int>(table_.queues.size());
  // Warmest eligible core: used most recently, not saturated.
  int best = -1;
  Time best_used = 0;
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    if (DepthLocked(cpu) >= kSaturationDepth) {
      continue;
    }
    const bool warm = now - last_used_[cpu] <= kNestDecayNs;
    // Prefer warm cores; among them, the most recently used one.
    if (warm && (best < 0 || last_used_[cpu] > best_used)) {
      best = cpu;
      best_used = last_used_[cpu];
    }
  }
  if (best >= 0) {
    return best;
  }
  // No warm unsaturated core: expand the nest onto the least-loaded core.
  int fallback = 0;
  size_t min_depth = ~size_t{0};
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    const size_t depth = DepthLocked(cpu);
    if (depth < min_depth) {
      min_depth = depth;
      fallback = cpu;
    }
  }
  return fallback;
}

std::optional<Schedulable> NestSched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  running_[cpu] = 0;
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [&](uint64_t pid, QueueEnt&) {
    running_[cpu] = pid;
    last_used_[cpu] = env_->Now();
  });
}

std::optional<uint64_t> NestSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  const auto& queues = table_.queues;
  if (!queues[cpu].empty()) {
    return std::nullopt;
  }
  // Nest keeps work compact: steal only from a *saturated* core, so a
  // momentarily idle cold core does not scatter the nest.
  for (int c = 0; c < static_cast<int>(queues.size()); ++c) {
    if (c != cpu && queues[c].size() >= kSaturationDepth) {
      return queues[c].front().second;
    }
  }
  return std::nullopt;
}

void NestSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  last_used_[cpu] = env_->Now();
  if (!table_.queues[cpu].empty()) {
    env_->ReschedCpu(cpu);
  }
}

void NestSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->Array(&last_used_, CheckpointArchive::Fold::kMax);
}

size_t NestSched::WarmCoreCount() {
  SpinLockGuard g(lock_);
  size_t warm = 0;
  const Time now = env_->Now();
  for (Time used : last_used_) {
    if (now - used <= kNestDecayNs) {
      ++warm;
    }
  }
  return warm;
}

}  // namespace enoki

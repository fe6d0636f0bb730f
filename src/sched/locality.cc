#include "src/sched/locality.h"

namespace enoki {

template class TokenQueueSched<LocalitySched, QueueEnt>;

void LocalitySched::ParseHint(const HintBlob& hint) {
  if (!use_hints_) {
    return;
  }
  SpinLockGuard g(lock_);
  const uint64_t pid = hint.w[0];
  const uint64_t group = hint.w[1];
  group_of_[pid] = group;
  if (group_cpu_.find(group) == group_cpu_.end()) {
    // Assign groups to cores round-robin.
    group_cpu_[group] = next_group_cpu_;
    next_group_cpu_ = (next_group_cpu_ + 1) % env_->NumCpus();
  }
}

int LocalitySched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  auto git = group_of_.find(msg.pid);
  if (git != group_of_.end()) {
    const int cpu = group_cpu_[git->second];
    if (table_.queues[cpu].size() < kMaxColocated) {
      return cpu;
    }
    // Oversubscribed: the hint is advisory; fall through.
  }
  // Unhinted tasks get a random *initial* placement (the Table 6 "Random"
  // baseline) and then stay on their CPU across wakeups.
  if (msg.is_new || msg.prev_cpu < 0) {
    return static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(env_->NumCpus())));
  }
  return msg.prev_cpu;
}

void LocalitySched::TaskDead(uint64_t pid) {
  {
    SpinLockGuard g(lock_);
    group_of_.erase(pid);
  }
  TokenQueueSched::TaskDead(pid);
}

std::optional<Schedulable> LocalitySched::PickNextTask(int cpu, std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [](uint64_t, QueueEnt&) {});
}

void LocalitySched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  if (!table_.queues[cpu].empty()) {
    env_->ReschedCpu(cpu);  // round-robin among co-located tasks
  }
}

void LocalitySched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  const size_t live = table_.queues.size();
  ar->Cpu(&next_group_cpu_, live);
  ar->Map(&group_cpu_, CheckpointArchive::Key::kAny, [&](int* cpu) { ar->Cpu(cpu, live); });
  ar->Map(&group_of_, CheckpointArchive::Key::kPid, [&](uint64_t* group) { ar->Word(group); });
}

}  // namespace enoki

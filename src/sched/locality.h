// The locality-aware Enoki scheduler (section 4.2.3).
//
// Applications send hints through the user-to-kernel queue pairing a thread
// id with a locality class; the scheduler co-locates all threads of a class
// on one core. Unlike cgroup/cpuset pinning, the hint names only the
// *grouping* — the scheduler chooses (and may override) the core, e.g. when
// a core is oversubscribed. With hints disabled the scheduler degrades to
// seeded-random placement, the paper's "Random" baseline in Table 6.
//
// Hint layout: w[0] = pid, w[1] = locality class id.

#ifndef SRC_SCHED_LOCALITY_H_
#define SRC_SCHED_LOCALITY_H_

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class LocalitySched : public EnokiSched {
 public:
  // Refuse to co-locate more than this many runnable tasks on one core; the
  // scheduler may ignore hints when a core is oversubscribed.
  static constexpr size_t kMaxColocated = 16;

  LocalitySched(int policy_id, bool use_hints, uint64_t seed = 42)
      : policy_id_(policy_id), use_hints_(use_hints), rng_(seed) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      queues_.resize(static_cast<size_t>(env->NumCpus()));
    }
  }

  int GetPolicy() const override { return policy_id_; }

  void ParseHint(const HintBlob& hint) override {
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

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    auto git = group_of_.find(msg.pid);
    if (git != group_of_.end()) {
      const int cpu = group_cpu_[git->second];
      if (queues_[cpu].size() < kMaxColocated) {
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

  void TaskNew(const TaskMessage& msg, Schedulable sched) override { Enqueue(msg.pid, std::move(sched)); }
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }

  void TaskBlocked(const TaskMessage& msg) override { Remove(msg.pid); }
  void TaskDead(uint64_t pid) override {
    {
      SpinLockGuard g(lock_);
      group_of_.erase(pid);
    }
    Remove(pid);
  }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    auto it = tokens_.find(msg.pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    return s;
  }

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    SpinLockGuard g(lock_);
    auto& q = queues_[cpu];
    if (q.empty()) {
      return std::nullopt;
    }
    const uint64_t pid = q.front();
    q.pop_front();
    auto it = tokens_.find(pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    return s;
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    queues_[msg.to_cpu].push_back(msg.pid);
    auto it = tokens_.find(msg.pid);
    ENOKI_CHECK(it != tokens_.end());
    Schedulable old = std::move(it->second);
    it->second = std::move(sched);
    return old;
  }

  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      env_->ReschedCpu(cpu);  // round-robin among co-located tasks
    }
  }

  // Quiesce: queue membership and tokens go back to the runtime, which
  // re-injects them into whichever instance takes the slot.
  TransferState ReregisterPrepare() override {
    SpinLockGuard g(lock_);
    for (auto& q : queues_) {
      q.clear();
    }
    tokens_.clear();
    return {};
  }

  // ---- Checkpointing (recovery ladder) ----
  // v1: the placement accounting only — the round-robin cursor,
  // group->core assignments and pid->group memberships. Cores remap % live
  // on a smaller machine, so a group keeps *a* stable home. The rng is
  // reseeded fresh (random placement is a baseline, not accounting).
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override {
    SpinLockGuard g(lock_);
    const size_t live = queues_.size();
    ar->Cpu(&next_group_cpu_, live);
    ar->Map(&group_cpu_, CheckpointArchive::Key::kAny, [&](int* cpu) { ar->Cpu(cpu, live); });
    ar->Map(&group_of_, CheckpointArchive::Key::kPid, [&](uint64_t* group) { ar->Word(group); });
  }

 private:
  void Enqueue(uint64_t pid, Schedulable sched) {
    SpinLockGuard g(lock_);
    queues_[sched.cpu()].push_back(pid);
    tokens_.insert_or_assign(pid, std::move(sched));
  }

  void Remove(uint64_t pid) {
    SpinLockGuard g(lock_);
    RemoveLocked(pid);
    tokens_.erase(pid);
  }

  void RemoveLocked(uint64_t pid) {
    for (auto& q : queues_) {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == pid) {
          q.erase(it);
          return;
        }
      }
    }
  }

  const int policy_id_;
  const bool use_hints_;
  Rng rng_;
  SpinLock lock_;
  std::vector<std::deque<uint64_t>> queues_;
  std::unordered_map<uint64_t, Schedulable> tokens_;
  std::unordered_map<uint64_t, uint64_t> group_of_;   // pid -> group
  std::unordered_map<uint64_t, int> group_cpu_;       // group -> core
  int next_group_cpu_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_LOCALITY_H_

// The paper's worked example (section 2): a per-core first-come-first-serve
// Enoki scheduler. This is the "hello world" of the framework and the module
// used by the quickstart example: it keeps a queue of tasks per core,
// schedules them FCFS, and steals from the longest queue when a core would
// otherwise idle (via the balance callback, exactly as section 3.1's
// narrative describes).

#ifndef SRC_SCHED_FIFO_H_
#define SRC_SCHED_FIFO_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class FifoSched : public EnokiSched {
 public:
  // State handed across live upgrades.
  struct Transfer {
    std::vector<std::deque<uint64_t>> queues;
    std::unordered_map<uint64_t, Schedulable> tokens;
    int next_cpu = 0;
  };

  explicit FifoSched(int policy_id) : policy_id_(policy_id) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      queues_.resize(static_cast<size_t>(env->NumCpus()));
    }
  }

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    if (msg.is_new) {
      // Round-robin placement for new tasks.
      const int cpu = next_cpu_;
      next_cpu_ = (next_cpu_ + 1) % env_->NumCpus();
      return cpu;
    }
    return msg.prev_cpu >= 0 ? msg.prev_cpu : 0;
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
  void TaskDead(uint64_t pid) override { Remove(pid); }

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

  std::optional<uint64_t> Balance(int cpu) override {
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      return std::nullopt;
    }
    // Steal the head of the longest queue.
    int busiest = -1;
    size_t best = 1;  // require at least one waiting task
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (c != cpu && queues_[c].size() >= best) {
        best = queues_[c].size();
        busiest = c;
      }
    }
    if (busiest < 0) {
      return std::nullopt;
    }
    return queues_[busiest].front();
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
    // Round-robin among waiting tasks: ask for a resched when others wait.
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      env_->ReschedCpu(cpu);
    }
  }

  TransferState ReregisterPrepare() override {
    SpinLockGuard g(lock_);
    auto t = std::make_unique<Transfer>();
    t->queues = std::move(queues_);
    t->tokens = std::move(tokens_);
    t->next_cpu = next_cpu_;
    queues_.clear();
    tokens_.clear();
    return TransferState::Of(std::move(t));
  }

  void ReregisterInit(TransferState state) override {
    if (state.empty()) {
      return;
    }
    auto t = state.Take<Transfer>();
    if (t == nullptr) {
      return;  // incompatible transfer type; start fresh
    }
    SpinLockGuard g(lock_);
    queues_ = std::move(t->queues);
    tokens_ = std::move(t->tokens);
    next_cpu_ = t->next_cpu;
  }

  // Checkpoint v1: FIFO's only accounting state is the round-robin
  // placement cursor.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override {
    SpinLockGuard g(lock_);
    ar->Cpu(&next_cpu_, queues_.size());
  }

  size_t QueueDepth(int cpu) {
    SpinLockGuard g(lock_);
    return queues_[cpu].size();
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
  SpinLock lock_;
  std::vector<std::deque<uint64_t>> queues_;
  std::unordered_map<uint64_t, Schedulable> tokens_;
  int next_cpu_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_FIFO_H_

// The Enoki Shinjuku scheduler (section 4.2.2): an approximation of a
// centralized first-come-first-serve queue with microsecond-scale preemption,
// implemented across the kernel's per-CPU run queues.
//
// Tasks carry a global arrival sequence number. Each CPU queue is FIFO; the
// balance callback pulls the globally oldest waiting task onto an emptying
// CPU, approximating a single FCFS queue. Every operation arms a reschedule
// timer (default 10 us, the paper's slice); when it fires with work waiting,
// the running task is preempted and requeued at the tail — Shinjuku's
// preempt-and-requeue loop that keeps short tasks from waiting behind long
// ones.
//
// Tokens are held in a pid-indexed vector and run queues in flat sorted
// vectors (seq -> pid), mirroring WFQ: the previous unordered_map token
// table cost one node allocation per request arrival plus one free per pick,
// which dominated the dispersive config's allocation profile.

#ifndef SRC_SCHED_SHINJUKU_H_
#define SRC_SCHED_SHINJUKU_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class ShinjukuSched : public EnokiSched {
 public:
  static constexpr Duration kDefaultPreemptionSliceNs = 10'000;  // 10 us

  // `worker_cpus` restricts placement and stealing to a subset of CPUs (the
  // paper's evaluation reserves cores for the load generator and background
  // work); an empty mask means all CPUs.
  explicit ShinjukuSched(int policy_id, Duration preemption_slice = kDefaultPreemptionSliceNs,
                         CpuMask worker_cpus = CpuMask())
      : policy_id_(policy_id), slice_(preemption_slice), worker_cpus_(worker_cpus) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (worker_cpus_.Empty()) {
      worker_cpus_ = CpuMask::All(env->NumCpus());
    }
    if (queues_.empty()) {
      const size_t n = static_cast<size_t>(env->NumCpus());
      queues_.resize(n);
      timer_armed_.assign(n, false);
      running_.assign(n, 0);
    }
  }

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    // Shortest worker queue; FCFS order is restored globally by Balance.
    int best = -1;
    size_t best_len = ~size_t{0};
    for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
      if (!worker_cpus_.Test(cpu)) {
        continue;
      }
      const size_t len = queues_[cpu].size() + (running_[cpu] != 0 ? 1 : 0);
      if (len < best_len) {
        best_len = len;
        best = cpu;
      }
    }
    return best >= 0 ? best : (msg.prev_cpu >= 0 ? msg.prev_cpu : 0);
  }

  void TaskNew(const TaskMessage& msg, Schedulable sched) override { Arrive(msg.pid, std::move(sched)); }
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Arrive(msg.pid, std::move(sched));
  }

  // Preempted and yielding tasks go to the back of the FCFS order.
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Arrive(msg.pid, std::move(sched));
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Arrive(msg.pid, std::move(sched));
  }

  void TaskBlocked(const TaskMessage& msg) override { Remove(msg.pid); }
  void TaskDead(uint64_t pid) override { Remove(pid); }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
      return std::nullopt;
    }
    Schedulable s = std::move(*tokens_[msg.pid]);
    tokens_[msg.pid].reset();
    return s;
  }

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    SpinLockGuard g(lock_);
    running_[cpu] = 0;
    auto& q = queues_[cpu];
    if (q.empty()) {
      return std::nullopt;
    }
    const uint64_t pid = q.front().second;
    q.pop_front();
    if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
      return std::nullopt;
    }
    Schedulable s = std::move(*tokens_[pid]);
    tokens_[pid].reset();
    running_[cpu] = pid;
    ArmLocked(cpu);
    return s;
  }

  std::optional<uint64_t> Balance(int cpu) override {
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      return std::nullopt;
    }
    // Pull the globally oldest waiting task (FCFS approximation).
    int oldest_cpu = -1;
    uint64_t oldest_seq = ~0ull;
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (c != cpu && !queues_[c].empty() && queues_[c].front().first < oldest_seq) {
        oldest_seq = queues_[c].front().first;
        oldest_cpu = c;
      }
    }
    if (oldest_cpu < 0) {
      return std::nullopt;
    }
    return queues_[oldest_cpu].front().second;
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    uint64_t seq = next_seq_;  // fallback: treat as fresh arrival
    for (auto& q : queues_) {
      bool found = false;
      for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].second == msg.pid) {
          seq = q[i].first;
          q.erase_at(i);
          found = true;
          break;
        }
      }
      if (found) {
        break;
      }
    }
    queues_[msg.to_cpu].emplace(seq, msg.pid);
    ENOKI_CHECK(msg.pid < tokens_.size() && tokens_[msg.pid].has_value());
    Schedulable old = std::move(*tokens_[msg.pid]);
    tokens_[msg.pid] = std::move(sched);
    return old;
  }

  void TimerFired(int cpu) override {
    SpinLockGuard g(lock_);
    timer_armed_[cpu] = false;
    if (running_[cpu] != 0 && !queues_[cpu].empty()) {
      // Preempt-and-requeue: the slice expired with work waiting.
      env_->ReschedCpu(cpu);
      ArmLocked(cpu);
    }
    // With nothing waiting the timer stays quiet; the next arrival re-arms
    // it. This keeps the preemption machinery off the fast path at low
    // load, like Shinjuku's dispatcher.
  }

  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    // The Shinjuku timer, not the system tick, drives preemption; the tick
    // re-arms the timer defensively in case it was lost.
    SpinLockGuard g(lock_);
    if (running_[cpu] != 0 && !queues_[cpu].empty()) {
      ArmLocked(cpu);
    }
  }

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v1: the global arrival sequence cursor. Preserving
  // it keeps FCFS ages from colliding with pre-crash history.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override {
    SpinLockGuard g(lock_);
    ar->NonZero(&next_seq_);
  }

  size_t QueueDepth(int cpu) {
    SpinLockGuard g(lock_);
    return queues_[cpu].size();
  }

  uint64_t next_seq() {
    SpinLockGuard g(lock_);
    return next_seq_;
  }

  struct Transfer {
    std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // seq -> pid
    std::vector<std::optional<Schedulable>> tokens;
    std::vector<uint64_t> running;
    uint64_t next_seq = 0;
  };

 private:
  void Arrive(uint64_t pid, Schedulable sched) {
    SpinLockGuard g(lock_);
    const int cpu = sched.cpu();
    queues_[cpu].emplace(next_seq_++, pid);
    TokSlot(pid) = std::move(sched);
    // Every operation starts a reschedule timer (section 5.2 notes this is
    // why Shinjuku's pipe latency is slightly above WFQ's).
    ArmLocked(cpu);
  }

  void Remove(uint64_t pid) {
    SpinLockGuard g(lock_);
    RemoveLocked(pid);
    if (pid < tokens_.size()) {
      tokens_[pid].reset();
    }
  }

  void RemoveLocked(uint64_t pid) {
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (running_[c] == pid) {
        running_[c] = 0;
      }
      auto& q = queues_[c];
      for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].second == pid) {
          q.erase_at(i);
          return;
        }
      }
    }
  }

  void ArmLocked(int cpu) {
    if (!timer_armed_[cpu]) {
      timer_armed_[cpu] = true;
      env_->ArmTimer(cpu, slice_);
    }
  }

  std::optional<Schedulable>& TokSlot(uint64_t pid) {
    if (pid >= tokens_.size()) {
      tokens_.resize(pid + 1);
    }
    return tokens_[pid];
  }

  const int policy_id_;
  const Duration slice_;
  CpuMask worker_cpus_;
  SpinLock lock_;
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;  // seq -> pid
  std::vector<std::optional<Schedulable>> tokens_;        // indexed by pid
  std::vector<uint64_t> running_;  // pid running per cpu, 0 = none
  std::vector<bool> timer_armed_;
  uint64_t next_seq_ = 1;
};

inline TransferState ShinjukuSched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->queues = std::move(queues_);
  t->tokens = std::move(tokens_);
  t->running = std::move(running_);
  t->next_seq = next_seq_;
  queues_.clear();
  tokens_.clear();
  running_.clear();
  return TransferState::Of(std::move(t));
}

inline void ShinjukuSched::ReregisterInit(TransferState state) {
  if (state.empty()) {
    return;
  }
  auto t = state.Take<Transfer>();
  if (t == nullptr) {
    return;
  }
  SpinLockGuard g(lock_);
  queues_ = std::move(t->queues);
  tokens_ = std::move(t->tokens);
  running_ = std::move(t->running);
  next_seq_ = t->next_seq;
}

}  // namespace enoki

#endif  // SRC_SCHED_SHINJUKU_H_

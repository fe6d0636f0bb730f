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
// Tokens and the (seq, pid) queues live in libEnoki's token-and-queue table
// (src/enoki/token_queue.h), whose default arrival key is exactly Shinjuku's
// sequence number; a migrated task keeps its number, and with it its place
// in the global FCFS order. This file holds the placement, the timer and
// the oldest-first stealing.

#ifndef SRC_SCHED_SHINJUKU_H_
#define SRC_SCHED_SHINJUKU_H_

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

class ShinjukuSched : public TokenQueueSched<ShinjukuSched, QueueEnt> {
 public:
  struct Transfer {
    TokenQueueTable<QueueEnt> table;
    std::vector<uint64_t> running;
  };

  static constexpr Duration kDefaultPreemptionSliceNs = 10'000;  // 10 us

  // `worker_cpus` restricts placement and stealing to a subset of CPUs (the
  // paper's evaluation reserves cores for the load generator and background
  // work); an empty mask means all CPUs.
  explicit ShinjukuSched(int policy_id, Duration preemption_slice = kDefaultPreemptionSliceNs,
                         CpuMask worker_cpus = CpuMask())
      : policy_id_(policy_id), slice_(preemption_slice), worker_cpus_(worker_cpus) {}

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TimerFired(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // Checkpoint format v1: the global arrival sequence cursor. Preserving
  // it keeps FCFS ages from colliding with pre-crash history.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override;

  uint64_t next_seq() {
    SpinLockGuard g(lock_);
    return table_.next_seq;
  }

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  // Every arrival starts a reschedule timer (section 5.2 notes this is why
  // Shinjuku's pipe latency is slightly above WFQ's).
  void Enqueued(int cpu) { ArmLocked(cpu); }
  void Leave(uint64_t pid, QueueEnt& e) {
    std::replace(running_.begin(), running_.end(), pid, uint64_t{0});
  }
  void AttachCpus(int ncpus);
  void SaveTransfer(Transfer& t) { t.running = std::move(running_); }
  void LoadTransfer(Transfer& t) { running_ = std::move(t.running); }

  void ArmLocked(int cpu) {
    if (!timer_armed_[cpu]) {
      timer_armed_[cpu] = true;
      env_->ArmTimer(cpu, slice_);
    }
  }

  const int policy_id_;
  const Duration slice_;
  CpuMask worker_cpus_;
  // pid last picked per CPU, 0 = none. Set at pick and kept across a
  // requeue; cleared at the CPU's next pick or when the task leaves. A pick
  // by another class leaves it stale.
  std::vector<uint64_t> running_;
  std::vector<bool> timer_armed_;
};

// Instantiated once, in shinjuku.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<ShinjukuSched, QueueEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_SHINJUKU_H_

// Sibling-core pair scheduler, modeled on sched_ext's scx_pair.
//
// CPUs come in SMT sibling pairs (MachineSpec::smt_pairs). Tasks carry a
// cookie (assigned through the hint queue; default 0), and the scheduler
// enforces the L1TF-style security invariant: two tasks with different
// cookies never run concurrently on the two hyperthreads of one core. A CPU
// whose sibling is running cookie C picks only queued tasks with cookie C —
// if none are queued it stalls idle (counted in compat_stalls) rather than
// break the invariant. When a CPU's task leaves, the scheduler kicks a
// stalled sibling so it can re-pick under the relaxed constraint.
//
// Queues are per-CPU FIFOs on a global arrival sequence; balance steals the
// oldest *compatible* waiting task. On machines without SMT every CPU's
// sibling is -1 and the policy degrades to plain FIFO with idle stealing.

#ifndef SRC_SCHED_EXT_PAIR_H_
#define SRC_SCHED_EXT_PAIR_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class PairSched : public EnokiSched {
 public:
  struct Ent {
    uint64_t seq = 0;
    Duration last_runtime = 0;
    Duration slice_start_runtime = 0;
    int cpu = 0;
    bool queued = false;
    bool running = false;
    bool live = false;
  };

  struct Transfer {
    std::vector<Ent> ents;
    std::vector<std::optional<Schedulable>> tokens;
    std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // seq -> pid
    std::vector<uint64_t> running_pid;
    std::vector<uint64_t> running_cookie;
    std::vector<uint64_t> cookie_of;
    uint64_t next_seq = 1;
  };

  static constexpr Duration kDefaultSliceNs = Milliseconds(2);

  explicit PairSched(int policy_id, Duration slice = kDefaultSliceNs)
      : policy_id_(policy_id), slice_(slice) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      queues_.resize(static_cast<size_t>(env->NumCpus()));
      running_pid_.assign(static_cast<size_t>(env->NumCpus()), 0);
      running_cookie_.assign(static_cast<size_t>(env->NumCpus()), 0);
    }
  }

  int GetPolicy() const override { return policy_id_; }

  // Hint protocol: w[0] = pid, w[1] = cookie. Cookies are sticky until
  // overwritten; unhinted tasks share cookie 0.
  void ParseHint(const HintBlob& hint) override;

  int SelectTaskRq(const TaskMessage& msg) override;

  void TaskNew(const TaskMessage& msg, Schedulable sched) override;
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override;
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override;
  void TaskYield(const TaskMessage& msg, Schedulable sched) override;
  void TaskBlocked(const TaskMessage& msg) override;
  void TaskDead(uint64_t pid) override;
  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v1: the arrival sequence cursor plus the cookie
  // assignment table. Cookies arrive through hints and cannot be re-derived
  // from task messages, so they are genuine accounting state: losing them on
  // restart would silently drop the security constraint.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Introspection for tests.
  uint64_t CookieOf(uint64_t pid);
  uint64_t compat_stalls();
  uint64_t sibling_kicks();
  size_t QueueDepth(int cpu);

 private:
  void RequeueRunnable(const TaskMessage& msg, Schedulable sched);
  uint64_t CookieOfLocked(uint64_t pid) const {
    return pid < cookie_of_.size() ? cookie_of_[pid] : 0;
  }
  int SiblingLocked(int cpu) const {
    const int sib = env_ != nullptr ? env_->SiblingOf(cpu) : -1;
    return sib >= 0 && sib < static_cast<int>(queues_.size()) ? sib : -1;
  }
  // Drops the running marker for pid, and kicks a sibling that stalled on
  // our cookie so it can re-pick. Caller holds lock_.
  void ClearRunningLocked(uint64_t pid, Ent& e);

  Ent* FindEnt(uint64_t pid) {
    if (pid >= ents_.size() || !ents_[pid].live) {
      return nullptr;
    }
    return &ents_[pid];
  }
  Ent& EntSlot(uint64_t pid) {
    if (pid >= ents_.size()) {
      ents_.resize(pid + 1);
    }
    return ents_[pid];
  }
  std::optional<Schedulable>& TokSlot(uint64_t pid) {
    if (pid >= tokens_.size()) {
      tokens_.resize(pid + 1);
    }
    return tokens_[pid];
  }

  const int policy_id_;
  const Duration slice_;
  SpinLock lock_;
  std::vector<Ent> ents_;                           // indexed by pid
  std::vector<std::optional<Schedulable>> tokens_;  // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;
  std::vector<uint64_t> running_pid_;     // 0 = idle
  std::vector<uint64_t> running_cookie_;  // valid while running_pid_ != 0
  std::vector<uint64_t> cookie_of_;       // indexed by pid; 0 default
  uint64_t next_seq_ = 1;
  uint64_t compat_stalls_ = 0;
  uint64_t sibling_kicks_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_EXT_PAIR_H_

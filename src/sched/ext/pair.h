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

#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

struct PairEnt : QueueEnt {  // key: global arrival sequence
  Duration slice_start_runtime = 0;
};

class PairSched : public TokenQueueSched<PairSched, PairEnt> {
 public:
  struct Transfer {
    TokenQueueTable<PairEnt> table;
    std::vector<uint64_t> running_pid;
    std::vector<uint64_t> running_cookie;
    std::vector<uint64_t> cookie_of;
  };

  static constexpr Duration kDefaultSliceNs = Milliseconds(2);

  explicit PairSched(int policy_id, Duration slice = kDefaultSliceNs)
      : policy_id_(policy_id), slice_(slice) {}

  int GetPolicy() const override { return policy_id_; }

  // Hint protocol: w[0] = pid, w[1] = cookie. Cookies are sticky until
  // overwritten; unhinted tasks share cookie 0.
  void ParseHint(const HintBlob& hint) override;

  int SelectTaskRq(const TaskMessage& msg) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // Checkpoint format v1: the arrival sequence cursor plus the cookie
  // assignment table. Cookies arrive through hints and cannot be re-derived
  // from task messages, so they are genuine accounting state: losing them on
  // restart would silently drop the security constraint.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Introspection for tests.
  uint64_t CookieOf(uint64_t pid);
  uint64_t compat_stalls();

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  // Drops the running marker for pid, and kicks a sibling that stalled on
  // our cookie so it can re-pick.
  void StopRunning(uint64_t pid, PairEnt& e);
  void AttachCpus(int ncpus) {
    running_pid_.assign(static_cast<size_t>(ncpus), 0);
    running_cookie_.assign(static_cast<size_t>(ncpus), 0);
  }
  void SaveTransfer(Transfer& t);
  void LoadTransfer(Transfer& t);

  uint64_t CookieOfLocked(uint64_t pid) const {
    return pid < cookie_of_.size() ? cookie_of_[pid] : 0;
  }
  int SiblingLocked(int cpu) const {
    const int sib = env_ != nullptr ? env_->SiblingOf(cpu) : -1;
    return sib >= 0 && sib < static_cast<int>(table_.queues.size()) ? sib : -1;
  }

  const int policy_id_;
  const Duration slice_;
  std::vector<uint64_t> running_pid_;     // 0 = idle
  std::vector<uint64_t> running_cookie_;  // valid while running_pid_ != 0
  std::vector<uint64_t> cookie_of_;       // indexed by pid; 0 default
  uint64_t compat_stalls_ = 0;
};

// Instantiated once, in pair.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<PairSched, PairEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_EXT_PAIR_H_

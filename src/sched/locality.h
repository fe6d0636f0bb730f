// The locality-aware Enoki scheduler (section 4.2.3).
//
// Applications send hints through the user-to-kernel queue pairing a thread
// id with a locality class; the scheduler co-locates all threads of a class
// on one core. Unlike cgroup/cpuset pinning, the hint names only the
// *grouping* — the scheduler chooses (and may override) the core, e.g. when
// a core is oversubscribed. With hints disabled the scheduler degrades to
// seeded-random placement, the paper's "Random" baseline in Table 6.
//
// Tokens and the per-CPU FIFO queues live in libEnoki's token-and-queue
// table (src/enoki/token_queue.h).
//
// Hint layout: w[0] = pid, w[1] = locality class id.

#ifndef SRC_SCHED_LOCALITY_H_
#define SRC_SCHED_LOCALITY_H_

#include <optional>
#include <unordered_map>
#include <utility>

#include "src/base/rng.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

class LocalitySched : public TokenQueueSched<LocalitySched, QueueEnt> {
 public:
  struct Transfer {
    TokenQueueTable<QueueEnt> table;
    std::unordered_map<uint64_t, uint64_t> group_of;
    std::unordered_map<uint64_t, int> group_cpu;
    int next_group_cpu = 0;
  };

  // Refuse to co-locate more than this many runnable tasks on one core; the
  // scheduler may ignore hints when a core is oversubscribed.
  static constexpr size_t kMaxColocated = 16;

  LocalitySched(int policy_id, bool use_hints, uint64_t seed = 42)
      : policy_id_(policy_id), use_hints_(use_hints), rng_(seed) {}

  int GetPolicy() const override { return policy_id_; }

  void ParseHint(const HintBlob& hint) override;
  int SelectTaskRq(const TaskMessage& msg) override;
  void TaskDead(uint64_t pid) override;
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // ---- Checkpointing (recovery ladder) ----
  // v1: the placement accounting only — the round-robin cursor,
  // group->core assignments and pid->group memberships. Cores remap % live
  // on a smaller machine, so a group keeps *a* stable home. The rng is
  // reseeded fresh (random placement is a baseline, not accounting).
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override;

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  // A migrated task joins the tail of its new queue.
  void Migrate(const MigrateMessage& msg, QueueEnt& e) { e.key = table_.next_seq++; }
  void SaveTransfer(Transfer& t) {
    t.group_of = std::move(group_of_);
    t.group_cpu = std::move(group_cpu_);
    t.next_group_cpu = next_group_cpu_;
  }
  void LoadTransfer(Transfer& t) {
    group_of_ = std::move(t.group_of);
    group_cpu_ = std::move(t.group_cpu);
    next_group_cpu_ = t.next_group_cpu;
  }

  const int policy_id_;
  const bool use_hints_;
  Rng rng_;
  std::unordered_map<uint64_t, uint64_t> group_of_;  // pid -> group
  std::unordered_map<uint64_t, int> group_cpu_;      // group -> core
  int next_group_cpu_ = 0;
};

// Instantiated once, in locality.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<LocalitySched, QueueEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_LOCALITY_H_

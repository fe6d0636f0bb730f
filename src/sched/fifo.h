// The paper's worked example (section 2): a per-core first-come-first-serve
// Enoki scheduler. This is the "hello world" of the framework and the module
// used by the quickstart example: it keeps a queue of tasks per core,
// schedules them FCFS, and steals from the longest queue when a core would
// otherwise idle (via the balance callback, exactly as section 3.1's
// narrative describes).
//
// Tokens and the per-CPU queues, ordered by a global arrival sequence, live
// in libEnoki's token-and-queue table (src/enoki/token_queue.h); this file
// holds only the placement, pick and stealing policy.

#ifndef SRC_SCHED_FIFO_H_
#define SRC_SCHED_FIFO_H_

#include <optional>

#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

class FifoSched : public TokenQueueSched<FifoSched, QueueEnt> {
 public:
  // State handed across live upgrades.
  struct Transfer {
    TokenQueueTable<QueueEnt> table;
    int next_cpu = 0;
  };

  explicit FifoSched(int policy_id) : policy_id_(policy_id) {}

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // Checkpoint v1: FIFO's only accounting state is the round-robin
  // placement cursor.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override;

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  // A migrated task joins the tail of its new queue.
  void Migrate(const MigrateMessage& msg, QueueEnt& e) { e.key = table_.next_seq++; }
  void SaveTransfer(Transfer& t) { t.next_cpu = next_cpu_; }
  void LoadTransfer(Transfer& t) { next_cpu_ = t.next_cpu; }

  const int policy_id_;
  int next_cpu_ = 0;
};

// Instantiated once, in fifo.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<FifoSched, QueueEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_FIFO_H_

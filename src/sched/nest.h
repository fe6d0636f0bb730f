// A Nest-style warm-core Enoki scheduler.
//
// The paper's motivation (section 2) cites Nest (Lawall et al., EuroSys'22):
// for jobs with fewer active tasks than cores, energy efficiency and wakeup
// latency improve when tasks are repeatedly placed on a small set of *warm*
// cores — cores that ran recently and have not fallen into a deep C-state —
// instead of being spread across many cold cores. The paper argues Enoki is
// exactly the vehicle for building such small special-purpose schedulers;
// this module demonstrates it: a compact scheduler whose entire novelty is
// its placement function.
//
// Policy: keep a "nest" of primary cores. A waking task is placed on the
// most-recently-used primary core whose queue is shallow; the nest grows
// when every primary core is saturated and shrinks (cores age out) when
// unused. Everything else (per-core FIFO with tick round-robin and idle
// stealing) is deliberately boring, and the tokens and queues live in
// libEnoki's token-and-queue table (src/enoki/token_queue.h).

#ifndef SRC_SCHED_NEST_H_
#define SRC_SCHED_NEST_H_

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

class NestSched : public TokenQueueSched<NestSched, QueueEnt> {
 public:
  struct Transfer {
    TokenQueueTable<QueueEnt> table;
    std::vector<Time> last_used;
    std::vector<uint64_t> running;
  };

  // A primary core ages out of the nest after this long without being used.
  static constexpr Duration kNestDecayNs = Milliseconds(2);
  // Queue depth at which a primary core counts as saturated.
  static constexpr size_t kSaturationDepth = 2;

  explicit NestSched(int policy_id) : policy_id_(policy_id) {}

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // ---- Checkpointing (recovery ladder) ----
  // v1: the warm-core accounting only — per-CPU last-used timestamps, which
  // are what make a restored nest place wakeups onto the cores that were
  // warm before the crash instead of scattering them cold. On a smaller
  // machine a folded core keeps its *most recent* use (it is warm if any of
  // its sources were); a larger machine's extra cores start cold.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override;

  // Introspection: how many cores are currently warm.
  size_t WarmCoreCount();

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  void Enqueued(int cpu) { last_used_[cpu] = env_->Now(); }
  // A migrated task joins the tail of its new queue.
  void Migrate(const MigrateMessage& msg, QueueEnt& e) { e.key = table_.next_seq++; }
  void Leave(uint64_t pid, QueueEnt& e) {
    std::replace(running_.begin(), running_.end(), pid, uint64_t{0});
  }
  void AttachCpus(int ncpus) {
    last_used_.assign(static_cast<size_t>(ncpus), 0);
    running_.assign(static_cast<size_t>(ncpus), 0);
  }
  void SaveTransfer(Transfer& t) {
    t.last_used = std::move(last_used_);
    t.running = std::move(running_);
  }
  void LoadTransfer(Transfer& t) {
    last_used_ = std::move(t.last_used);
    running_ = std::move(t.running);
  }

  // Queue depth on `cpu`, counting the task last picked there.
  size_t DepthLocked(int cpu) const {
    return table_.queues[cpu].size() + (running_[cpu] != 0 ? 1 : 0);
  }

  const int policy_id_;
  std::vector<Time> last_used_;
  // pid last picked per CPU, 0 = none. Set at pick and kept across a
  // requeue; cleared at the CPU's next pick or when the task leaves.
  std::vector<uint64_t> running_;
};

// Instantiated once, in nest.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<NestSched, QueueEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_NEST_H_

// The Enoki weighted-fair-queuing scheduler (section 4.2.1) — the paper's
// headline scheduler, evaluated against CFS across Tables 3-5.
//
// Like the paper's version, it computes CFS-style vruntime for per-core time
// slices but uses a much simpler placement policy: new tasks go to the
// shortest queue, waking tasks return to their previous CPU, and the only
// rebalancing is idle-time stealing — when a core is about to go idle, the
// balance callback offers the head of the longest queue. It does not
// implement CFS's hierarchical load balancing, cgroup weights, or NUMA
// logic; Table 5 shows how far that simplification goes.
//
// Per-task state, tokens and the per-CPU vruntime-ordered queues live in
// libEnoki's token-and-queue table (src/enoki/token_queue.h); this file holds
// only the vruntime arithmetic and the placement and stealing policy.

#ifndef SRC_SCHED_WFQ_H_
#define SRC_SCHED_WFQ_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"
#include "src/sched/nice_weights.h"

namespace enoki {

struct WfqEntity : QueueEnt {  // key: vruntime
  uint64_t weight = kNice0Weight;
  Duration slice_start_runtime = 0;  // runtime when last picked
};

class WfqSched : public TokenQueueSched<WfqSched, WfqEntity> {
 public:
  struct Transfer {
    TokenQueueTable<WfqEntity> table;
    std::vector<uint64_t> min_vruntime;
  };

  // Scheduling parameters (CFS defaults).
  static constexpr Duration kSchedLatencyNs = 6'000'000;
  static constexpr Duration kMinGranularityNs = 750'000;
  static constexpr Duration kWakeupGranularityNs = 1'000'000;

  explicit WfqSched(int policy_id) : policy_id_(policy_id) {}

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // Checkpoint format v2: per-CPU min_vruntime cursors plus per-entity
  // accounting (vruntime, weight, runtime watermarks, home cpu). v1 (an
  // earlier format without slice_start_runtime) still loads, demonstrating
  // cross-version restores.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 2; }

  // Introspection for tests.
  uint64_t VruntimeOf(uint64_t pid);
  uint64_t WeightOf(uint64_t pid);

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  void Adopt(const TaskMessage& msg, WfqEntity& e) { e.weight = NiceToWeight(msg.nice); }
  // Folds new runtime into vruntime.
  void Charge(WfqEntity& e, Duration runtime);
  void Place(const TaskMessage& msg, WfqEntity& e, int cpu, Arrival why);
  void Migrate(const MigrateMessage& msg, WfqEntity& e);
  void AttachCpus(int ncpus) { min_vruntime_.assign(static_cast<size_t>(ncpus), 0); }
  void SaveTransfer(Transfer& t) {
    t.min_vruntime = std::move(min_vruntime_);
    min_vruntime_.clear();
  }
  void LoadTransfer(Transfer& t) { min_vruntime_ = std::move(t.min_vruntime); }

  const int policy_id_;
  std::vector<uint64_t> min_vruntime_;
};

// Instantiated once, in wfq.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<WfqSched, WfqEntity>;

}  // namespace enoki

#endif  // SRC_SCHED_WFQ_H_

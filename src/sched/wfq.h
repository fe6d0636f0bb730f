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
// Per-task state is indexed by pid in plain vectors (pids are dense, assigned
// from 1), and run queues are flat sorted vectors: the per-message hash
// lookups and per-enqueue node allocations of the map-based version dominated
// the simulator profile.

#ifndef SRC_SCHED_WFQ_H_
#define SRC_SCHED_WFQ_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"
#include "src/sched/nice_weights.h"

namespace enoki {

class WfqSched : public EnokiSched {
 public:
  struct Entity {
    uint64_t vruntime = 0;
    uint64_t weight = kNice0Weight;
    Duration last_runtime = 0;      // runtime at last accounting
    Duration slice_start_runtime = 0;  // runtime when last picked
    int cpu = 0;
    bool queued = false;
    bool running = false;
    bool live = false;  // slot holds a tracked task
  };

  struct Transfer {
    std::vector<Entity> entities;                       // indexed by pid
    std::vector<std::optional<Schedulable>> tokens;     // indexed by pid
    std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // vruntime -> pid
    std::vector<uint64_t> min_vruntime;
  };

  // Scheduling parameters (CFS defaults).
  static constexpr Duration kSchedLatencyNs = 6'000'000;
  static constexpr Duration kMinGranularityNs = 750'000;
  static constexpr Duration kWakeupGranularityNs = 1'000'000;

  explicit WfqSched(int policy_id) : policy_id_(policy_id) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      queues_.resize(static_cast<size_t>(env->NumCpus()));
      min_vruntime_.assign(static_cast<size_t>(env->NumCpus()), 0);
    }
  }

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;

  void TaskNew(const TaskMessage& msg, Schedulable sched) override;
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override;
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override;
  void TaskYield(const TaskMessage& msg, Schedulable sched) override;
  void TaskBlocked(const TaskMessage& msg) override;
  void TaskDead(uint64_t pid) override;
  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v2: per-CPU min_vruntime cursors plus per-entity
  // accounting (vruntime, weight, runtime watermarks, home cpu). v1 (an
  // earlier format without slice_start_runtime) still loads, demonstrating
  // cross-version restores.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 2; }

  // Introspection for tests.
  size_t QueueDepth(int cpu);
  uint64_t VruntimeOf(uint64_t pid);
  uint64_t WeightOf(uint64_t pid);

 private:
  // Folds new runtime into vruntime. Caller holds lock_.
  void Account(Entity& e, Duration runtime);
  void EnqueueLocked(uint64_t pid, Entity& e, int cpu);
  void DequeueLocked(uint64_t pid, Entity& e);
  void RequeueRunnable(const TaskMessage& msg, Schedulable sched, bool clamp_vruntime);

  // Live entity for pid, or nullptr when untracked. Caller holds lock_.
  Entity* FindEnt(uint64_t pid) {
    if (pid >= entities_.size() || !entities_[pid].live) {
      return nullptr;
    }
    return &entities_[pid];
  }
  // Slot for pid, grown on demand (not marked live). Caller holds lock_.
  Entity& EntSlot(uint64_t pid) {
    if (pid >= entities_.size()) {
      entities_.resize(pid + 1);
    }
    return entities_[pid];
  }
  std::optional<Schedulable>& TokSlot(uint64_t pid) {
    if (pid >= tokens_.size()) {
      tokens_.resize(pid + 1);
    }
    return tokens_[pid];
  }

  const int policy_id_;
  SpinLock lock_;
  std::vector<Entity> entities_;                    // indexed by pid
  std::vector<std::optional<Schedulable>> tokens_;  // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;
  std::vector<uint64_t> min_vruntime_;
};

}  // namespace enoki

#endif  // SRC_SCHED_WFQ_H_

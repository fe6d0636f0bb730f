// Native CFS baseline: a faithful (though necessarily reduced) model of
// Linux's Completely Fair Scheduler, implemented directly against the
// simulator's SchedClass interface with no Enoki framework overhead.
//
// Modeled behaviours (section 4.2.1 of the paper):
//  - per-core run queues ordered by vruntime with nice-weight scaling,
//  - sleeper-fairness vruntime clamping on wakeup,
//  - wakeup preemption (check_preempt_wakeup with wakeup granularity),
//  - time slices of period/nr, floored at the minimum granularity,
//  - wake placement preferring the previous CPU, then an idle CPU in the
//    same NUMA node, then the least-loaded CPU,
//  - newidle balancing plus periodic balancing, pulling within the node
//    first and across nodes only beyond an imbalance threshold.

#ifndef SRC_SCHED_CFS_H_
#define SRC_SCHED_CFS_H_

#include <vector>

#include "src/base/cpumask.h"
#include "src/base/flat_multimap.h"
#include "src/sched/nice_weights.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/sched_core.h"

namespace enoki {

class CfsClass : public SchedClass {
 public:
  static constexpr Duration kSchedLatencyNs = 6'000'000;
  static constexpr Duration kMinGranularityNs = 750'000;
  static constexpr Duration kWakeupGranularityNs = 1'000'000;
  // Periodic balance interval in ticks.
  static constexpr uint64_t kBalanceTicks = 2;
  // Minimum queue-length difference before pulling across NUMA nodes.
  static constexpr size_t kNumaImbalanceThreshold = 2;

  const char* name() const override { return "cfs"; }
  void Attach(SchedCore* core) override;

  int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) override;
  void EnqueueTask(int cpu, Task* t, bool wakeup) override;
  void DequeueTask(int cpu, Task* t, DequeueReason reason) override;
  Task* PickNextTask(int cpu) override;
  void TaskPreempted(int cpu, Task* t) override;
  void TaskYielded(int cpu, Task* t) override;
  void TaskTick(int cpu, Task* t) override;
  bool WakeupPreempt(int cpu, Task* curr, Task* woken) override;
  void PrioChanged(Task* t) override;
  void AffinityChanged(Task* t) override;

  size_t QueueDepth(int cpu) const { return rqs_[cpu].tree.size(); }
  // CPUs with a non-empty queue (QueueDepth > 0).
  const CpuMask& queued_cpus() const { return queued_; }
  uint64_t migrations() const { return migrations_; }

 private:
  struct Entity {
    uint64_t vruntime = 0;
    uint64_t weight = kNice0Weight;
    Duration last_runtime = 0;
    Duration slice_start_runtime = 0;
    int cpu = 0;
    bool queued = false;
    bool running = false;
  };

  struct CfsRq {
    FlatMultimap<uint64_t, Task*> tree;  // vruntime -> task
    uint64_t min_vruntime = 0;
    Task* running = nullptr;
    uint64_t tick_count = 0;
  };

  // Pids are dense (assigned from 1), so per-task state lives in a vector
  // indexed by pid rather than a hash map.
  Entity& Ent(Task* t) {
    const size_t pid = static_cast<size_t>(t->pid());
    if (pid >= entities_.size()) {
      entities_.resize(pid + 1);
    }
    return entities_[pid];
  }
  void Account(Task* t, Entity& e);
  void Enqueue(int cpu, Task* t, Entity& e);
  void Dequeue(Task* t, Entity& e);
  // Load = queued + running tasks on cpu.
  size_t Load(int cpu) const;
  // Pulls one task from the busiest eligible rq onto `cpu`. Returns true on
  // success.
  bool PullOne(int cpu, bool newidle);

  std::vector<CfsRq> rqs_;
  // CPUs whose tree is non-empty, kept in step with every tree mutation
  // (Enqueue, Dequeue, the pop in PickNextTask) so PullOne visits only
  // CPUs with queued work instead of scanning the whole machine.
  CpuMask queued_;
  std::vector<Entity> entities_;  // indexed by pid
  uint64_t migrations_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_CFS_H_

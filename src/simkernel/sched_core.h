// SchedCore: the simulated core scheduling loop (kernel/sched/core.c analog).
//
// SchedCore owns the event loop, the CPUs, and the tasks. It drives task
// bodies, charges the cost model, and dispatches every scheduling decision
// through registered SchedClass instances in class-priority order. The
// protocol visible to a SchedClass mirrors the kernel's:
//
//   wakeup:    SelectTaskRq -> EnqueueTask -> WakeupPreempt check
//   block:     DequeueTask(kBlocked) -> schedule()
//   schedule:  [Balance] -> PickNextTask (per class, priority order)
//   preempt:   TaskPreempted (requeue) -> schedule()
//   tick:      TaskTick (may SetNeedResched)
//
// The contract for PickNextTask is pick-and-remove: a returned task is no
// longer on the class's queue (set_next_task semantics), so no other CPU can
// steal it during the context-switch window.

#ifndef SRC_SIMKERNEL_SCHED_CORE_H_
#define SRC_SIMKERNEL_SCHED_CORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/stats.h"
#include "src/base/time.h"
#include "src/simkernel/costs.h"
#include "src/simkernel/event_loop.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/task.h"

namespace enoki {

struct MachineSpec {
  MachineSpec() = default;
  MachineSpec(int ncpus_in, int nodes_in, std::string name_in)
      : ncpus(ncpus_in), nodes(nodes_in), name(std::move(name_in)) {}

  int ncpus = 8;
  int nodes = 1;
  std::string name = "1-socket i7-9700 (8 cores)";
  // SMT topology hint: when true, adjacent CPU ids (0,1), (2,3), ... are
  // hyperthread siblings on one physical core. Off by default so every
  // pre-existing config is byte-identical.
  bool smt_pairs = false;
  // Explicit per-CPU NUMA node map. Empty means the historical layout of
  // `nodes` contiguous blocks of ncpus/nodes CPUs each.
  std::vector<int> node_of;
  // Warm-path hint: Start() pre-sizes the event loop's slab pool for
  // ncpus * this many concurrently-live events, so steady state never pays a
  // mid-run slab growth. 0 (default) keeps the historical demand-growth
  // behavior; a hint that proves small only costs the growth the pool would
  // have paid anyway. Simulation output is identical either way — warming
  // moves allocations, never events.
  int warm_events_per_cpu = 0;

  int NodeOfCpu(int cpu) const {
    if (cpu >= 0 && cpu < static_cast<int>(node_of.size())) {
      return node_of[cpu];
    }
    return cpu / (ncpus / nodes);
  }

  // The SMT sibling of `cpu`, or -1 on machines without SMT.
  int SiblingOfCpu(int cpu) const { return smt_pairs ? (cpu ^ 1) : -1; }

  // The 8-core one-socket machine used for most of the paper's evaluation.
  static MachineSpec OneSocket8() { return MachineSpec{8, 1, "1-socket i7-9700 (8 cores)"}; }

  // The 80-core two-socket Xeon Gold 6138 machine used for scalability tests.
  static MachineSpec TwoSocket80() {
    return MachineSpec{80, 2, "2-socket Xeon Gold 6138 (80 cores)"};
  }

  // SMT variant of the 8-thread machine: 4 physical cores x 2 threads.
  static MachineSpec SmtOneSocket8() {
    MachineSpec s{8, 1, "1-socket SMT (4 cores x 2 threads)"};
    s.smt_pairs = true;
    return s;
  }

  // Small two-node machine for NUMA-domain scheduling tests and benches.
  static MachineSpec TwoNode16() { return MachineSpec{16, 2, "2-node NUMA (2x8 cores)"}; }

  // 16 threads, 2 nodes, SMT pairs: every portfolio policy's topology needs
  // are met on one machine (used by the cross-policy upgrade sweeps).
  static MachineSpec PortfolioBox16() {
    MachineSpec s{16, 2, "2-node SMT portfolio box (2x4 cores x 2 threads)"};
    s.smt_pairs = true;
    return s;
  }

  // Large multi-socket boxes for the sharded-engine scaling story. The
  // paper's evaluation tops out at 80 cores; these model the datacenter-class
  // machines the ROADMAP targets.
  static MachineSpec FourNode128() { return MachineSpec{128, 4, "4-node NUMA (4x32 cores)"}; }
  static MachineSpec EightNode256() { return MachineSpec{256, 8, "8-node NUMA (8x32 cores)"}; }

  // Carves one shard (a contiguous group of NUMA nodes) out of this machine.
  // Sharded simulations run one SchedCore per shard: shard `shard` of
  // `nshards` models CPUs [shard*ncpus/nshards, (shard+1)*ncpus/nshards) of
  // the full box, renumbered from 0. Requires nodes % nshards == 0 so shard
  // boundaries coincide with NUMA-node boundaries (no sched domain spans two
  // shards).
  MachineSpec ShardSpec(int shard, int nshards) const {
    ENOKI_CHECK(nshards > 0 && shard >= 0 && shard < nshards);
    ENOKI_CHECK(nodes % nshards == 0 && ncpus % nshards == 0);
    ENOKI_CHECK(node_of.empty());  // explicit maps would need renumbering
    MachineSpec s;
    s.ncpus = ncpus / nshards;
    s.nodes = nodes / nshards;
    s.smt_pairs = smt_pairs;
    s.warm_events_per_cpu = warm_events_per_cpu;  // shard-local warming hint
    s.name = name + " [shard " + std::to_string(shard) + "/" + std::to_string(nshards) + "]";
    return s;
  }
};

class SchedCore {
 public:
  SchedCore(MachineSpec spec, SimCosts costs);

  // Runs this core on an externally owned event loop (one shard of a
  // ShardedEventLoop). The loop must outlive the core. All scheduling events
  // land on `loop`; cross-shard traffic is the caller's business (see
  // ShardedEventLoop::PostCross).
  SchedCore(MachineSpec spec, SimCosts costs, EventLoop* loop);

  ~SchedCore();

  SchedCore(const SchedCore&) = delete;
  SchedCore& operator=(const SchedCore&) = delete;

  // ---- Configuration (before Start) ----

  // Registers a scheduling class. Registration order defines class priority:
  // earlier registrations are tried first by the pick loop (like the
  // stop > dl > rt > fair ordering in Linux).
  // Returns the policy id used by CreateTask.
  int RegisterClass(SchedClass* cls);

  void set_ticks_enabled(bool enabled) { ticks_enabled_ = enabled; }

  // ---- Lifecycle ----

  // Arms per-CPU ticks. Must be called once before running.
  void Start();

  void RunFor(Duration d) { loop_->RunUntil(loop_->now() + d); }
  void RunUntil(Time t) { loop_->RunUntil(t); }

  // Runs until every created task has exited, or `deadline` passes. Returns
  // true if all tasks exited.
  bool RunUntilAllExit(Time deadline);

  // Runs until every task in `tasks` has exited (daemon tasks such as ghOSt
  // agents may keep running), or `deadline` passes.
  bool RunUntilTasksDead(const std::vector<Task*>& tasks, Time deadline) {
    auto all_dead = [&tasks] {
      for (const Task* t : tasks) {
        if (t->state() != TaskState::kDead) {
          return false;
        }
      }
      return true;
    };
    while (loop_->now() < deadline && !all_dead()) {
      if (!loop_->RunOne()) {
        break;
      }
    }
    return all_dead();
  }

  // ---- Task management ----

  Task* CreateTask(std::string name, std::unique_ptr<TaskBody> body, int policy, int nice = 0);
  Task* CreateTaskOn(std::string name, std::unique_ptr<TaskBody> body, int policy, int nice,
                     const CpuMask& affinity);

  // Signals a wait queue from kernel/event context (wakes one waiter or
  // leaves a pending signal), mirroring a task's Action::Wake.
  void Signal(WaitQueue* wq, bool sync = false, int from_cpu = -1) {
    DoWake(wq, sync, from_cpu);
  }

  void SetTaskNice(Task* t, int nice);
  void SetTaskAffinity(Task* t, const CpuMask& mask);

  // sched_setscheduler analog: moves a task to another policy. The old
  // class sees DequeueTask(kDeparted) (Enoki: task_departed, returning the
  // Schedulable token); the new class receives the task as new.
  void SetTaskPolicy(Task* t, int policy);

  Task* FindTask(uint64_t pid) const {
    // Pids are assigned densely from 1 and tasks are never destroyed before
    // the core, so the task vector doubles as the pid table.
    return pid == 0 || pid > tasks_.size() ? nullptr : tasks_[pid - 1].get();
  }

  // ---- Services for SchedClass implementations ----

  void SetNeedResched(int cpu);

  // Ensures `cpu` re-enters the scheduler soon: if idle, schedules a pick;
  // if busy, sends a resched IPI that preempts the current task.
  void KickCpu(int cpu, int from_cpu = -1);

  // Charges scheduler-path overhead to `cpu`; applied at its next dispatch
  // (or folded into the waking task's on-CPU time on the wake path).
  void ChargeCpu(int cpu, Duration d) { cpus_[cpu].pending_charge += d; }

  // Arms a one-shot per-CPU policy timer (hrtimer analog); `cls->TimerFired`
  // runs on expiry. Returns an id usable with CancelClassTimer.
  EventId ArmClassTimer(int cpu, Duration delay, SchedClass* cls);
  void CancelClassTimer(EventId id) { loop_->Cancel(id); }

  // Runtime of a task including its in-progress on-CPU segment.
  Duration TaskRuntime(const Task* t) const {
    return t->state_ == TaskState::kRunning
               ? t->total_runtime_ + (loop_->now() - t->run_segment_start_)
               : t->total_runtime_;
  }

  // Records that a class moved a queued (runnable, not running) task to
  // another CPU's queue. The class is responsible for its own queue state;
  // the core validates the move and updates the task's CPU.
  void MoveQueuedTask(Task* t, int to_cpu);

  // Starvation detector (soft-lockup / hung-task analog). When the bound is
  // non-zero, each cpu-0 tick scans for tasks that have been runnable but
  // off-CPU for longer than the bound and reports each such task once per
  // runnable episode to its class's OnTaskStarved. Zero disables the scan.
  void set_starvation_bound(Duration bound) { starvation_bound_ = bound; }
  Duration starvation_bound() const { return starvation_bound_; }

  // ---- Introspection ----

  EventLoop& loop() { return *loop_; }
  Time now() const { return loop_->now(); }
  int ncpus() const { return spec_.ncpus; }
  int NodeOf(int cpu) const { return spec_.NodeOfCpu(cpu); }
  int SiblingOf(int cpu) const { return spec_.SiblingOfCpu(cpu); }
  const MachineSpec& spec() const { return spec_; }
  const SimCosts& costs() const { return costs_; }
  SchedClass* ClassForPolicy(int policy) const { return classes_[policy]; }
  int ClassPriority(const SchedClass* cls) const;

  Task* CurrentOn(int cpu) const { return cpus_[cpu].current; }
  bool CpuIdle(int cpu) const {
    return cpus_[cpu].current == nullptr && !cpus_[cpu].in_switch;
  }

  // True while `cpu` is inside the context-switch window: a task has been
  // picked (and left its class's queue) but FinishSwitch has not yet run.
  // Re-policying such a task would double-attach it; callers that sweep
  // tasks across classes (watchdog fallback) must wait the window out.
  bool CpuInSwitch(int cpu) const { return cpus_[cpu].in_switch; }

  // True while an idle-exit kick (wakeup dispatch) is in flight for `cpu`:
  // the CPU has been sent its resched IPI and will pick shortly. Balancers
  // should not steal from a queue whose CPU is already waking.
  bool CpuKickPending(int cpu) const { return cpus_[cpu].kick_pending; }

  uint64_t context_switches() const { return context_switches_; }
  uint64_t coalesced_ipis() const { return coalesced_ipis_; }
  uint64_t live_task_count() const { return live_tasks_; }
  const LatencyRecorder& wake_latency() const { return wake_latency_; }
  LatencyRecorder& mutable_wake_latency() { return wake_latency_; }
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }
  uint64_t pick_errors() const { return pick_errors_; }
  void CountPickError() { ++pick_errors_; }

  // Hook invoked with (task, wake-to-run latency) at every dispatch following
  // a wakeup; workloads use it for per-task latency attribution.
  void set_wake_latency_hook(std::function<void(Task*, Duration)> hook) {
    wake_latency_hook_ = std::move(hook);
  }

  // Order-sensitive digest of this core's observable state: simulated time,
  // events executed, context switches, per-CPU occupancy, per-task progress,
  // and the wake-latency distribution. Two runs that made identical
  // scheduling decisions in identical order produce identical fingerprints;
  // the sharded determinism tests compare these across thread counts.
  uint64_t Fingerprint() const;

 private:
  friend class SimContext;

  struct CpuState {
    Task* current = nullptr;
    bool in_switch = false;
    bool need_resched = false;
    bool kick_pending = false;
    // Arrival time of the resched IPI currently in flight to this (busy)
    // CPU, or kTimeMax when none. Used to coalesce same-tick wakeups: a
    // second IPI arriving at the identical instant would re-run the exact
    // same preempt check, so it is elided (batched wakeup delivery).
    Time ipi_inflight_at = kTimeMax;
    Time idle_since = 0;
    Duration pending_charge = 0;
    uint64_t idle_ticks = 0;
    EventId tick_event = kInvalidEventId;
  };

  // Idle CPUs attempt a balance pass every this many ticks (nohz idle
  // balancing analog).
  static constexpr uint64_t kIdleBalanceTicks = 4;

  // Both constructors end here: checks the machine spec, sizes the per-CPU
  // state and warms the loop.
  void Init();
  void WakeTaskInternal(Task* t, bool sync, int from_cpu, bool is_new);
  void Schedule(int cpu);
  Task* PickNext(int cpu);
  void Dispatch(int cpu, Task* next);
  void FinishSwitch(int cpu, Task* next);
  void RunCurrent(int cpu);
  void OnComputeDone(int cpu, Task* t);
  void PreemptCurrent(int cpu);
  void BlockCurrent(int cpu, WaitQueue* wq);
  void SleepCurrent(int cpu, Duration d);
  void YieldCurrent(int cpu);
  void ExitCurrent(int cpu);
  void DoWake(WaitQueue* wq, bool sync, int from_cpu);
  void StopCompute(Task* t);
  void AccrueRuntime(Task* t);
  Duration IdleExitCost(int cpu) const;
  void TickFired(int cpu);
  void CheckStarvation();
  Duration TakeCharge(int cpu) {
    const Duration d = cpus_[cpu].pending_charge;
    cpus_[cpu].pending_charge = 0;
    return d;
  }

  const MachineSpec spec_;
  const SimCosts costs_;
  // The loop events land on. Owned by default; a sharded run hands in one
  // shard's loop instead (owned_loop_ stays null).
  std::unique_ptr<EventLoop> owned_loop_;
  EventLoop* loop_;
  std::vector<CpuState> cpus_;
  std::vector<SchedClass*> classes_;  // priority order
  std::vector<std::unique_ptr<Task>> tasks_;  // index pid-1: the pid table
  uint64_t next_pid_ = 1;
  uint64_t live_tasks_ = 0;
  uint64_t context_switches_ = 0;
  uint64_t coalesced_ipis_ = 0;
  uint64_t pick_errors_ = 0;
  bool ticks_enabled_ = true;
  bool started_ = false;
  Duration starvation_bound_ = 0;  // 0 = detector off
  LatencyRecorder wake_latency_;
  std::function<void(Task*, Duration)> wake_latency_hook_;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_SCHED_CORE_H_

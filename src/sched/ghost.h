// Model of ghOSt (Humphries et al., SOSP'21), the paper's main baseline
// framework (section 4.2.2).
//
// ghOSt delegates scheduling policy to userspace agents: the kernel
// component forwards every task event as a message to an agent, and the
// agent responds asynchronously with per-CPU transaction commits naming the
// task to run. The kernel never waits for the agent — if no commitment is
// available at pick time, the CPU idles (or falls through to CFS). The two
// costs the paper attributes to ghOSt — agent scheduling latency and stale
// asynchronous decisions — are exactly the mechanisms modeled here.
//
// Three agent policies are provided, matching the paper's baselines:
//  - kPerCpuFifo: one agent per CPU, sharing that CPU with the workload;
//  - kSol: a single latency-optimized global FIFO agent spinning on a
//    dedicated CPU;
//  - kShinjuku: the ghOSt version of the Shinjuku policy (centralized FCFS
//    with 10 us preemption), spinning on a dedicated CPU.
//
// GhostClass is the kernel component (a native SchedClass); agents run as
// simulated tasks under AgentClass, a higher-priority class, and drive the
// policy via GhostClass::AgentProcess.

#ifndef SRC_SCHED_GHOST_H_
#define SRC_SCHED_GHOST_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/cpumask.h"
#include "src/enoki/checkpoint.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/sched_core.h"

namespace enoki {

// Runs the per-CPU agent tasks: at most one agent bound to each CPU,
// strictly above the ghost class (and CFS) in class priority so a woken
// agent preempts the workload on its CPU.
class AgentClass : public SchedClass {
 public:
  const char* name() const override { return "ghost_agent"; }
  void Attach(SchedCore* core) override {
    SchedClass::Attach(core);
    queued_.assign(static_cast<size_t>(core->ncpus()), nullptr);
  }
  int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) override {
    return t->affinity().First();
  }
  void EnqueueTask(int cpu, Task* t, bool wakeup) override {
    ENOKI_CHECK(queued_[cpu] == nullptr);
    queued_[cpu] = t;
  }
  void DequeueTask(int cpu, Task* t, DequeueReason reason) override {
    if (queued_[cpu] == t) {
      queued_[cpu] = nullptr;
    }
  }
  Task* PickNextTask(int cpu) override {
    Task* t = queued_[cpu];
    queued_[cpu] = nullptr;
    return t;
  }
  void TaskPreempted(int cpu, Task* t) override { queued_[cpu] = t; }
  void TaskYielded(int cpu, Task* t) override { queued_[cpu] = t; }
  void TaskTick(int cpu, Task* t) override {}

 private:
  std::vector<Task*> queued_;
};

class GhostClass : public SchedClass {
 public:
  enum class Mode { kPerCpuFifo, kSol, kShinjuku };

  struct Msg {
    enum class Type { kNew, kWakeup, kBlocked, kDead, kPreempt, kYield };
    Type type;
    uint64_t pid;
    int cpu;
  };

  static constexpr Duration kAgentSpinQuantumNs = 2'000;
  static constexpr Duration kShinjukuSliceNs = 10'000;

  GhostClass(Mode mode, CpuMask worker_cpus) : mode_(mode), worker_cpus_(worker_cpus) {}

  // ---- SchedClass (the ghOSt kernel component) ----
  const char* name() const override { return "ghost"; }
  void Attach(SchedCore* core) override;
  int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) override;
  void EnqueueTask(int cpu, Task* t, bool wakeup) override;
  void DequeueTask(int cpu, Task* t, DequeueReason reason) override;
  Task* PickNextTask(int cpu) override;
  void TaskPreempted(int cpu, Task* t) override;
  void TaskYielded(int cpu, Task* t) override;
  void TaskTick(int cpu, Task* t) override {}

  // Spawns the agent task(s). For kPerCpuFifo one agent per worker CPU; for
  // kSol/kShinjuku a single agent pinned to `agent_cpu`. `agent_policy` is
  // the policy id of the AgentClass registration.
  void SpawnAgents(int agent_policy, int agent_cpu);

  // ---- Agent side ----
  // Processes one unit of agent work for agent `idx`; returns the CPU time
  // the agent consumed, or 0 when there was nothing to do.
  Duration AgentProcess(int idx);
  bool AgentSpins() const { return mode_ != Mode::kPerCpuFifo; }

  uint64_t commits() const { return commits_; }
  uint64_t messages() const { return messages_; }

  // ---- Checkpointing ----
  // GhostClass is a native SchedClass, not an EnokiSched, so it cannot ride
  // the EnokiRuntime recovery ladder — but it honors the same versioned,
  // bounds-guarded checkpoint contract so every in-tree policy round-trips.
  // v1 serializes the agent-side accounting cursors (arrival sequence,
  // round-robin placement cursor, commit/message counters); task tables,
  // queues, and in-flight commits are kernel-side bookkeeping rebuilt from
  // live task events, exactly as Enoki checkpoints exclude queue membership.
  void CheckpointFields(CheckpointArchive* ar);
  uint32_t CheckpointVersion() const { return 1; }
  bool SaveCheckpoint(ByteWriter* out) const {
    return SaveCheckpointFields(this, CheckpointVersion(), out);
  }
  bool LoadCheckpoint(uint32_t version, ByteReader* in) {
    return LoadCheckpointFields(this, version, CheckpointVersion(), in);
  }

 private:
  struct GTask {
    bool runnable = false;
    int running_cpu = -1;
    int home_cpu = 0;        // per-CPU FIFO assignment
    uint64_t seq = 0;        // global arrival order
  };

  int AgentIndexFor(int cpu) const { return mode_ == Mode::kPerCpuFifo ? cpu : 0; }
  void SendMsg(Msg::Type type, uint64_t pid, int cpu);
  void Commit(int target_cpu, uint64_t pid, int agent_cpu);
  void TryCommitPerCpu(int cpu, int agent_cpu);
  void TryCommitGlobal(int agent_cpu);
  void ShinjukuScan(int agent_cpu);

  const Mode mode_;
  const CpuMask worker_cpus_;
  std::unordered_map<uint64_t, GTask> tasks_;
  std::vector<uint64_t> committed_;  // per-cpu committed pid (0 = none)
  std::vector<uint64_t> running_;    // per-cpu running pid (0 = none)
  std::vector<Time> running_since_;

  // Policy queues (agent state).
  std::vector<std::deque<uint64_t>> fifo_;  // per-cpu (per-cpu mode)
  std::deque<uint64_t> global_fifo_;        // SOL / Shinjuku

  // Message channels, one per agent.
  std::vector<std::deque<Msg>> msgq_;
  std::vector<std::unique_ptr<WaitQueue>> agent_wq_;
  std::vector<Task*> agents_;
  std::vector<int> agent_cpus_;

  uint64_t next_seq_ = 1;
  uint64_t commits_ = 0;
  uint64_t messages_ = 0;
  int rr_cpu_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_GHOST_H_

// Central-dispatch scheduler, modeled on sched_ext's scx_central.
//
// One CPU (the dispatch CPU) owns all scheduling decisions: it runs a
// periodic dispatch pulse that kicks workers with waiting tasks and preempts
// workers that overran their slice. Every other CPU is tickless — TaskTick
// never requests a resched, so a worker with no waiting competition runs
// undisturbed until it blocks. When nothing is queued anywhere the pulse is
// not re-armed, so an idle machine is timer-silent. The natural comparison
// is the ghOSt SOL (single-agent) model, which also centralizes decisions
// but polls from an agent task instead of a timer (see bench_table5_apps).
//
// Queues are per-CPU FIFOs ordered by a global arrival sequence, which makes
// the policy a distributed approximation of scx_central's single global
// queue: balance always pulls the globally-oldest waiting task.

#ifndef SRC_SCHED_EXT_CENTRAL_H_
#define SRC_SCHED_EXT_CENTRAL_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class CentralSched : public EnokiSched {
 public:
  struct Ent {
    uint64_t seq = 0;            // global arrival order
    Duration last_runtime = 0;
    Time pick_time = 0;          // wall-clock at last pick (slice policing)
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
    uint64_t next_seq = 1;
  };

  static constexpr Duration kDefaultPulseNs = Microseconds(50);
  static constexpr Duration kDefaultSliceNs = Milliseconds(1);

  explicit CentralSched(int policy_id, int central_cpu = 0,
                        Duration pulse = kDefaultPulseNs,
                        Duration slice = kDefaultSliceNs)
      : policy_id_(policy_id), central_cpu_(central_cpu), pulse_(pulse), slice_(slice) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      queues_.resize(static_cast<size_t>(env->NumCpus()));
      running_pid_.assign(static_cast<size_t>(env->NumCpus()), 0);
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

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;
  void TimerFired(int cpu) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v1: the global arrival sequence cursor. Queue
  // membership and tokens are kernel-side state, re-injected after restore.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Per-policy probation budget: central dispatch routes every decision
  // through the dispatch CPU, so a restored module naturally bounces a few
  // picks while the pulse timer re-arms — a tight pick budget would flap.
  // Window length and call count stay at the ladder defaults.
  ProbationConfig DefaultProbation() const override {
    ProbationConfig p;
    p.max_pick_errors = 8;
    return p;
  }

  // Introspection for tests.
  int central_cpu() const { return central_cpu_; }
  uint64_t dispatch_pulses();
  uint64_t preempt_kicks();
  uint64_t central_picks();
  size_t QueueDepth(int cpu);

 private:
  void RequeueRunnable(const TaskMessage& msg, Schedulable sched);
  void ArmPulseLocked();
  bool AnyQueuedLocked() const;
  // Drops the running marker for pid if it holds one. Caller holds lock_.
  void ClearRunningLocked(uint64_t pid, Ent& e);
  // True when tasks are allowed to run on `cpu` (everything but the central
  // CPU, unless the machine has only one CPU).
  bool WorkerCpuLocked(int cpu) const {
    return cpu != central_cpu_ || queues_.size() == 1;
  }

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
  const int central_cpu_;
  const Duration pulse_;
  const Duration slice_;
  SpinLock lock_;
  std::vector<Ent> ents_;                           // indexed by pid
  std::vector<std::optional<Schedulable>> tokens_;  // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;
  std::vector<uint64_t> running_pid_;               // 0 = idle
  uint64_t next_seq_ = 1;
  bool timer_armed_ = false;
  uint64_t dispatch_pulses_ = 0;
  uint64_t preempt_kicks_ = 0;
  uint64_t central_picks_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_EXT_CENTRAL_H_

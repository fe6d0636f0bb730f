// EnokiRuntime: the Enoki-C analog (section 3).
//
// The runtime sits between the simulated kernel's scheduling-class dispatch
// and a loaded EnokiSched module. It owns everything the paper assigns to
// Enoki-C plus the unsafe parts of libEnoki:
//  - translating core-scheduler callbacks into value messages,
//  - minting and validating Schedulable tokens (section 3.1),
//  - maintaining the kernel-side run-queue bookkeeping (which task is queued
//    where) that modules must never touch,
//  - charging the framework's per-invocation overhead to the cost model,
//  - hint queues in both directions (section 3.3), and
//  - appending record entries in record mode (section 3.4).
// The live upgrade (section 3.2) and the fault-containment half, the
// recovery ladder, are the RecoveryLadder it holds
// (src/enoki/recovery_ladder.h).

#ifndef SRC_ENOKI_RUNTIME_H_
#define SRC_ENOKI_RUNTIME_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/call_codec.h"
#include "src/enoki/record.h"
#include "src/enoki/recovery_ladder.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/sched_core.h"

namespace enoki {

class EnokiRuntime : public SchedClass, public EnokiKernelEnv {
 public:
  explicit EnokiRuntime(std::unique_ptr<EnokiSched> module);
  ~EnokiRuntime() override = default;

  // ---- SchedClass (calls from the simulated kernel) ----
  const char* name() const override { return "enoki"; }
  void Attach(SchedCore* core) override;
  int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) override;
  void EnqueueTask(int cpu, Task* t, bool wakeup) override;
  void DequeueTask(int cpu, Task* t, DequeueReason reason) override;
  Task* PickNextTask(int cpu) override;
  void TaskPreempted(int cpu, Task* t) override;
  void TaskYielded(int cpu, Task* t) override;
  void TaskTick(int cpu, Task* t) override;
  bool Balance(int cpu) override;
  bool WantsBalanceBeforePick() const override { return true; }
  void TimerFired(int cpu) override;
  void AffinityChanged(Task* t) override;
  void PrioChanged(Task* t) override;
  void OnTaskStarved(Task* t, Duration runnable_ns) override;

  // ---- EnokiKernelEnv (services for the module) ----
  Time Now() const override { return core_->now(); }
  int NumCpus() const override { return core_->ncpus(); }
  int NodeOf(int cpu) const override { return core_->NodeOf(cpu); }
  int SiblingOf(int cpu) const override { return core_->SiblingOf(cpu); }
  void ArmTimer(int cpu, Duration delay) override;
  void ReschedCpu(int cpu) override { core_->KickCpu(cpu); }
  void BusyWait(int cpu, Duration d) override;
  void PushRevHint(int queue_id, const HintBlob& hint) override;

  // ---- Hint queues (userspace side) ----
  // Creates a user->kernel queue and registers it with the module.
  int CreateHintQueue(size_t capacity);
  // Creates a kernel->user queue and registers it with the module.
  int CreateRevQueue(size_t capacity);
  // Userspace writes a hint. `cpu` attributes the write cost (pass the
  // sending task's CPU, or -1 to skip charging).
  bool SendHint(int queue_id, const HintBlob& hint, int cpu = -1);
  // Userspace polls a kernel->user queue.
  std::optional<HintBlob> PollRevHint(int queue_id);

  // ---- Live upgrade (section 3.2): RecoveryLadder::Upgrade documents it ----
  UpgradeReport Upgrade(std::unique_ptr<EnokiSched> next) {
    return ladder_.Upgrade(std::move(next));
  }

  // ---- Fault containment (the recovery ladder) ----
  RecoveryLadder& ladder() { return ladder_; }
  const RecoveryLadder& ladder() const { return ladder_; }
  // Forwarders to the ladder under the names the repository benchmark reads
  // (perfbench/). RecoveryLadder::Arm documents EnableWatchdog.
  void EnableWatchdog(const WatchdogConfig& config, int fallback_policy) {
    ladder_.Arm(config, fallback_policy);
  }
  void SetCheckpointInterval(Duration interval) { ladder_.SetCheckpointInterval(interval); }
  bool quarantined() const { return ladder_.quarantined(); }
  uint64_t rollbacks() const { return ladder_.rollbacks(); }
  uint64_t module_restarts() const { return ladder_.module_restarts(); }
  uint64_t periodic_checkpoints() const { return ladder_.periodic_checkpoints(); }
  const std::string& RestoreTimelineString() const { return ladder_.RestoreTimelineString(); }

  // ---- Record mode (section 3.4) ----
  // Also hands `recorder` this runtime's clock for its lock entries, which
  // it reads until another runtime attaches it: no lock event may reach it
  // once this runtime is gone.
  void SetRecorder(Recorder* recorder);

  // ---- Introspection ----
  EnokiSched* module() const { return module_.get(); }
  uint64_t module_calls() const { return module_calls_; }
  uint64_t pick_errors() const { return pick_errors_; }
  uint64_t balance_errors() const { return balance_errors_; }
  uint64_t escaped_exceptions() const { return ladder_.escaped_exceptions(); }
  size_t QueuedCount(int cpu) const { return queued_[cpu].size(); }
  const FlightRecorder& flight_recorder() const { return flight_; }

 private:
  friend class RecoveryLadder;

  // ---- The per-call bookkeeping ----
  // Every module call runs these, so they are defined here and forced
  // inline (GCC's heuristics keep Record out of line for its many call
  // sites), as is the ladder's OnCallReturn. Each Notify/Query instantiation
  // is then one straight-line path. What runs only on a rare path (an
  // attached Recorder, a trip, hint traffic, a probation window) sits behind
  // an [[unlikely]] test in an out-of-line function.

  [[gnu::always_inline]] TaskMessage MakeMsg(const Task* t, int cpu, bool wake_sync = false) const {
    return TaskMessage{.pid = t->pid(),
                       .cpu = cpu,
                       .prev_cpu = t->cpu(),
                       .runtime = core_->TaskRuntime(t),
                       .nice = t->nice(),
                       .wake_sync = wake_sync};
  }
  [[gnu::always_inline]] Schedulable Mint(Task* t, int cpu) {
    // Bumping the generation invalidates every token previously minted for
    // this task: the scheduler must use the newest proof.
    ++t->token_generation_;
    return SchedulableMinter::Mint(t->pid(), cpu, t->token_generation_);
  }
  // Validates a token a module returned for running on `cpu`.
  [[gnu::always_inline]] bool ValidateForRun(const Schedulable& s, int cpu, Task** out_task) const {
    Task* t = s.valid() ? core_->FindTask(s.pid()) : nullptr;
    if (t == nullptr || t->state() != TaskState::kRunnable || s.cpu() != cpu ||
        t->cpu() != cpu || SchedulableMinter::Generation(s) != t->token_generation_ ||
        !queued_[cpu].contains(s.pid())) {
      return false;
    }
    *out_task = t;
    return true;
  }
  [[gnu::always_inline]] void Charge(int cpu) {
    ++module_calls_;
    Duration cost = core_->costs().enoki_call_ns;
    if (recorder_ != nullptr) {
      cost += core_->costs().enoki_record_ns;
    }
    core_->ChargeCpu(cpu, cost);
  }
  // What the runtime records of one module call or lifecycle event: a
  // RecordEntry less the stamps its sinks add (seq, time, kthread). Call
  // sites build it with the codec's encoders (call_codec.h) and hand it to
  // Record, which is inlined with them; its address never leaves the
  // inlined code, so GCC keeps its fields in registers and computes only the
  // four the flight ring reads unless a Recorder is attached.
  struct CallRecord {
    RecordType type{};
    bool has_resp = false;
    bool flag = false;
    int32_t cpu = -1;
    uint64_t pid = 0;
    uint64_t runtime = 0;
    uint64_t arg[4] = {0, 0, 0, 0};
    uint64_t resp0 = 0;
  };
  // Appends `call` to the flight ring and, when one is attached, the
  // Recorder. The flight ring is always on: it is what lets a CrashReport
  // carry the module's last calls even when full recording is disabled.
  [[gnu::always_inline]] void Record(const CallRecord& call) {
    flight_.Append(core_->now(), call.type, call.cpu, call.pid, call.resp0);
    if (recorder_ != nullptr) [[unlikely]] {
      AppendToRecorder(call.type, call.cpu, call.pid, call.runtime, call.arg[0], call.arg[1],
                       call.arg[2], call.arg[3], call.resp0, call.has_resp, call.flag);
    }
  }
  // Appends the call's fields to the Recorder as a RecordEntry stamped with
  // the current time. It takes them as scalars: a CallRecord passed by
  // reference or by value would have to be stored to the stack on every
  // call, Recorder or not.
  [[gnu::noinline]] void AppendToRecorder(RecordType type, int cpu, uint64_t pid,
                                          uint64_t runtime, uint64_t arg0, uint64_t arg1,
                                          uint64_t arg2, uint64_t arg3, uint64_t resp0,
                                          bool has_resp, bool flag);
  // Feeds queued user hints to the module; false when the module is (or
  // went) offline.
  [[gnu::always_inline]] bool DrainHints() {
    if (!user_queues_.empty()) [[unlikely]] {
      DrainHintQueues();
    }
    return !ladder_.offline();
  }
  void DrainHintQueues();
  // TaskPreempted / TaskYielded: the running task goes back on the queue.
  // False when the module is offline and must not hear of it.
  bool Requeue(int cpu, Task* t);

  // The one call path into the module. Notify charges `cpu` (none when
  // negative), records `*e` (when non-null) and runs `fn` inside the
  // containment boundary: an escape goes to HandleEscape, a normal return
  // (the call cost plus the module's BusyWait) to the ladder. Query charges
  // `cpu`, runs `fn` the same way and, if it returned, records `e` with
  // fn's result as resp0. Both return false if the callback threw; the
  // caller degrades per site (a thrown pick idles).
  template <typename Fn>
  bool Notify(int cpu, const CallRecord* e, const char* site, Fn&& fn,
              bool probation_call = true);
  template <typename Fn>
  bool Query(int cpu, CallRecord e, const char* site, Fn&& fn);
  // The token-handing callbacks (new, wakeup, preempt, yield): enters
  // `cpu`'s kernel thread and notifies the module with the task's message,
  // recorded as `type`, and a freshly minted token.
  using TokenCall = void (EnokiSched::*)(const TaskMessage&, Schedulable);
  void HandToken(Task* t, int cpu, RecordType type, TokenCall call, const char* site,
                 bool probation_call = true);
  // Call from a catch block: hands the escape to the ladder; rethrows when it is unarmed.
  void HandleEscape(const char* site, const char* what);
  void ChargeAllCpus(Duration d);
  void KickAllCpus();
  // `swap` plus the per-CPU drain of a quiesce.
  Duration SwapPause(Duration swap) const {
    return swap + static_cast<Duration>(core_->ncpus()) * core_->costs().upgrade_percpu_drain_ns;
  }
  // Re-injects every queued task into the module as a wakeup with a freshly
  // minted token, stopping once the module goes offline; adds their restore
  // cost to *pause, charges *pause to every CPU and returns how many were
  // injected.
  uint64_t Reinject(Duration* pause);

  std::unique_ptr<EnokiSched> module_;
  Recorder* recorder_ = nullptr;

  // Dense pid membership set. Pids are assigned densely from 1 and the
  // runtime checks/updates membership on every queue transition, so a byte
  // vector beats a hash set on the hot path.
  class PidSet {
   public:
    bool contains(uint64_t pid) const { return pid < in_.size() && in_[pid] != 0; }
    void insert(uint64_t pid) {
      if (pid >= in_.size()) {
        in_.resize(pid + 1, 0);
      }
      in_[pid] = 1;
    }
    void erase(uint64_t pid) {
      if (pid < in_.size()) {
        in_[pid] = 0;
      }
    }
    // Counted on demand: only introspection (QueuedCount) asks.
    size_t size() const { return static_cast<size_t>(std::count(in_.begin(), in_.end(), 1)); }

    // Visits members in ascending pid order (deterministic recovery sweeps).
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (uint64_t pid = 0; pid < in_.size(); ++pid) {
        if (in_[pid] != 0) {
          fn(pid);
        }
      }
    }

   private:
    std::vector<uint8_t> in_;
  };

  // Kernel-side run-queue bookkeeping: pids queued (runnable, not running)
  // per CPU, and the pid running per CPU (0 = none / other class).
  std::vector<PidSet> queued_;
  std::vector<uint64_t> running_;

  std::vector<std::unique_ptr<HintQueue>> user_queues_;
  std::vector<std::unique_ptr<HintQueue>> rev_queues_;

  uint64_t module_calls_ = 0;
  uint64_t pick_errors_ = 0;
  uint64_t balance_errors_ = 0;
  // Simulated time the module declared via BusyWait during the current
  // callback; folded into that call's watchdog-visible latency.
  Duration callback_busy_ns_ = 0;
  // Always-on crash-forensics ring (kept even when recorder_ == nullptr).
  FlightRecorder flight_;
  RecoveryLadder ladder_{*this};
};

class ShardedEventLoop;

// Streams the sharded engine's committed cross-shard merge sequence into an
// Enoki trace: one kShardMerge entry per committed message, in commit order
// (arg[0]=deliver time, arg[1]=src shard, arg[2]=dst shard, arg[3]=per-shard
// send seq). Because the merge order is deterministic by construction, the
// recorded sequence is byte-identical across ENOKI_SHARD_THREADS — a trace
// diff is the cheapest way to audit a suspected nondeterminism. Replaces any
// previously attached merge observer; the recorder must outlive the engine's
// last commit.
void AttachShardMergeRecorder(ShardedEventLoop& engine, Recorder* recorder);

}  // namespace enoki

#endif  // SRC_ENOKI_RUNTIME_H_

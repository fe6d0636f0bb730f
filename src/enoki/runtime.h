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
//  - hint queues in both directions (section 3.3),
//  - live upgrade with quiesce and state transfer (section 3.2), and
//  - appending record entries in record mode (section 3.4).

#ifndef SRC_ENOKI_RUNTIME_H_
#define SRC_ENOKI_RUNTIME_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/call_codec.h"
#include "src/enoki/checkpoint.h"
#include "src/enoki/record.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"
#include "src/simkernel/sched_class.h"
#include "src/simkernel/sched_core.h"

namespace enoki {

class CheckpointSaboteur;

struct UpgradeReport {
  bool ok = false;
  Duration pause_ns = 0;
  std::string error;
  bool checkpointed = false;  // outgoing state captured before the swap
  bool rolled_back = false;   // post-swap init failure undone from the checkpoint
  bool refused_flapping = false;      // refused by flap damping (kFlapMaxFailures)
  uint64_t incoming_fingerprint = 0;  // VersionFingerprint() of `next`
};

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

  // ---- Live upgrade (section 3.2) ----
  // Transactional: the outgoing module's accounting state is checkpointed
  // before the swap (when it supports SaveCheckpoint), a post-swap init
  // failure rolls back to the checkpointed predecessor, and — with a
  // watchdog armed and a checkpoint taken — the incoming module runs a
  // probation window under its own DefaultProbation() budgets before the
  // upgrade commits.
  UpgradeReport Upgrade(std::unique_ptr<EnokiSched> next);

  // Flap damping: after kFlapMaxFailures failed upgrades (probation trips or
  // init rejections) of one incoming fingerprint within kFlapWindowNs,
  // upgrades to that fingerprint are refused until the window drains.
  static constexpr uint64_t kFlapMaxFailures = 3;
  static constexpr Duration kFlapWindowNs = Milliseconds(50);

  // ---- Fault containment (src/fault) ----
  // Arms the watchdog. `fallback_policy` names the registered class
  // (typically CFS) that inherits this module's tasks on a trip. Must be
  // called after Attach; installs the watchdog's starvation bound into the
  // core. Without a watchdog the runtime keeps its historical behavior:
  // module exceptions propagate and only token validation contains faults.
  void EnableWatchdog(const WatchdogConfig& config, int fallback_policy);

  // Arms the supervisor above the watchdog: trips become supervised
  // restart-from-checkpoint attempts (exponential backoff, budgeted per
  // window) and only escalate to quarantine+CFS once the budget is spent.
  // Requires EnableWatchdog first; `factory` builds fresh module instances.
  void EnableSupervisor(const SupervisorConfig& config, ModuleFactory factory);

  // sysrq-style operator abort: trips the watchdog immediately with
  // TripReason::kManual (requires EnableWatchdog).
  void AbortModule(const std::string& reason);

  // Installs a checkpoint-storage corruptor (tests/fault sweeps only):
  // applied to every checkpoint after sealing, modeling bit-rot the
  // checksum validation must catch.
  void SetCheckpointSaboteur(CheckpointSaboteur* saboteur) { saboteur_ = saboteur; }

  // Takes a fresh checkpoint generation of the current module outside any
  // upgrade and pushes it onto the ring. Returns false when the module does
  // not support checkpointing, is offline, or its saver crashed (a crash is
  // reported to the watchdog like any other escaped exception — the ring
  // keeps its prior generations either way).
  bool CheckpointNow();

  // Arms (interval > 0) or disarms (0) a periodic CheckpointNow() cadence
  // driven through the event loop, so supervised restarts lose a bounded
  // window of accounting even when no upgrade ever happens. Saves are
  // skipped — but the cadence stays armed — while the module is offline or
  // on probation (an unproven module must not overwrite proven generations);
  // a terminal quarantine stops the cadence for good.
  void SetCheckpointInterval(Duration interval);

  // The module slot's rung on the recovery ladder; DESIGN.md "Recovery
  // ladder" lists the legal edges. The order is load-bearing: from
  // kRollbackPending on, the module is offline (not called; its tasks wait in
  // the runtime's bookkeeping), and from kQuarantined on, for good.
  enum class SlotState : uint8_t {
    kActive,
    kUpgradeProbation,  // the predecessor is parked as the rollback target
    kRestartProbation,  // a supervised restart must prove itself
    kRollbackPending,   // waiting for a clean event boundary
    kRestartPending,    // waiting out the supervisor's backoff
    kQuarantined,       // terminal; the fallback sweep is scheduled
    kFallenBack,        // terminal; every task moved to the fallback class
  };
  SlotState slot_state() const { return state_; }
  bool quarantined() const { return state_ >= SlotState::kQuarantined; }
  bool fallback_done() const { return state_ == SlotState::kFallenBack; }
  bool in_probation() const { return state_ != SlotState::kActive && !ModuleOffline(); }
  bool recovery_pending() const { return ModuleOffline() && !quarantined(); }
  // The predecessor a probation rollback would reinstall, else nullptr.
  const EnokiSched* rollback_target() const { return prev_module_.get(); }
  const std::optional<CrashReport>& crash_report() const { return crash_report_; }
  Watchdog* watchdog() const { return watchdog_.get(); }
  ModuleSupervisor* supervisor() const { return supervisor_.get(); }
  // The newest sealed generation (by value: the ring owns the storage).
  std::optional<Checkpoint> last_good_checkpoint() const {
    const Checkpoint* newest = checkpoints_.newest();
    return newest == nullptr ? std::nullopt : std::optional<Checkpoint>(*newest);
  }
  const CheckpointStore& checkpoint_store() const { return checkpoints_; }
  // Mutable ring access for fault sweeps and fixtures (ring-slot bit-rot,
  // ring capacity).
  CheckpointStore* mutable_checkpoint_store() { return &checkpoints_; }

  // Deterministic restore timeline: one line per walk step ("skip"/"restore"
  // with simulated time, sequence, reason). Identical seeds must produce
  // byte-identical strings — the sweep tests' fallback-order fingerprint.
  std::string RestoreTimelineString() const { return restore_log_; }

  // ---- Record mode (section 3.4) ----
  void SetRecorder(Recorder* recorder) { recorder_ = recorder; }

  // ---- Introspection ----
  EnokiSched* module() const { return module_.get(); }
  uint64_t module_calls() const { return module_calls_; }
  uint64_t pick_errors() const { return pick_errors_; }
  uint64_t balance_errors() const { return balance_errors_; }
  uint64_t upgrades() const { return upgrades_; }
  uint64_t escaped_exceptions() const { return escaped_exceptions_; }
  uint64_t rollbacks() const { return rollbacks_; }
  uint64_t module_restarts() const { return module_restarts_; }
  uint64_t checkpoint_rejects() const { return checkpoint_rejects_; }
  uint64_t restore_fallbacks() const { return restore_fallbacks_; }
  uint64_t periodic_checkpoints() const { return periodic_checkpoints_; }
  uint64_t checkpoint_save_failures() const { return checkpoint_save_failures_; }
  uint64_t fingerprint_refusals() const { return fingerprint_refusals_; }
  // Ring depth consumed by the most recent restore walk (1 = newest
  // generation loaded cleanly; larger = generations were skipped) and the
  // simulated work window lost with it (now - taken_at of the generation
  // actually loaded). Both 0 until a restore runs.
  uint64_t last_restore_depth() const { return last_restore_depth_; }
  Duration last_restore_age_ns() const { return last_restore_age_ns_; }
  size_t QueuedCount(int cpu) const { return queued_[cpu].size(); }
  const FlightRecorder& flight_recorder() const { return flight_; }

 private:
  // ---- The per-call bookkeeping ----
  // Every module call runs these, so they are defined here and forced
  // inline (GCC's heuristics keep Record and FinishCall out of line for
  // their many call sites). Each Notify/Query instantiation is then one
  // straight-line path. What runs only on a rare path (an attached Recorder,
  // a trip, hint traffic, a probation window) sits behind an [[unlikely]]
  // test in an out-of-line function in runtime.cc.

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
  // RecordEntry less the stamps its sinks add (seq, time, kthread) and the
  // resp1 no call sets. It is built on every call; at 64 bytes GCC fills it
  // with a few vector stores, where it clears a 104-byte RecordEntry with
  // `rep stos` (about 5 % of pipe_wfq's host time on a 4-core Xeon). Record
  // widens it into a RecordEntry only when a Recorder is attached.
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
  static_assert(sizeof(CallRecord) == 64);
  // Appends `call` to the flight ring and, when one is attached, the
  // Recorder. The flight ring is always on: it is what lets a CrashReport
  // carry the module's last calls even when full recording is disabled.
  [[gnu::always_inline]] void Record(const CallRecord& call) {
    flight_.Append(core_->now(), call.type, call.cpu, call.pid, call.resp0);
    if (recorder_ != nullptr) [[unlikely]] {
      AppendToRecorder(call);
    }
  }
  // Widens `call` into a RecordEntry stamped with the current time.
  void AppendToRecorder(const CallRecord& call);
  // Feeds queued user hints to the module; false when the module is (or
  // went) offline.
  [[gnu::always_inline]] bool DrainHints() {
    if (!user_queues_.empty()) [[unlikely]] {
      DrainHintQueues();
    }
    return !ModuleOffline();
  }
  void DrainHintQueues();
  // A normal return from a callback: folds the module's BusyWait into the
  // call's latency and, with a watchdog armed, checks it against the budget
  // and counts the call toward an open probation window.
  [[gnu::always_inline]] void FinishCall(const char* site, bool probation_call) {
    const Duration busy = callback_busy_ns_;
    callback_busy_ns_ = 0;
    if (watchdog_ == nullptr || quarantined()) {
      return;
    }
    const Duration lat = core_->costs().enoki_call_ns + busy;
    if (watchdog_->OnCallbackLatency(lat) != TripReason::kNone) [[unlikely]] {
      TripCallbackBudget(site, lat);
      return;
    }
    if (probation_call && in_probation()) [[unlikely]] {
      CountProbationCall();
    }
  }
  [[gnu::cold]] void TripCallbackBudget(const char* site, Duration lat);
  // The probation window also closes after surviving N calls.
  void CountProbationCall();
  // TaskPreempted / TaskYielded: the running task goes back on the queue.
  // False when the module is offline and must not hear of it.
  bool Requeue(int cpu, Task* t);

  // The one call path into the module. Notify charges `cpu` (none when
  // negative), records `*e` (when non-null) and runs `fn` inside the
  // containment boundary: an escape goes to HandleEscape, a normal return to
  // FinishCall. Query charges `cpu`, runs `fn` the same way and, if it
  // returned, records `e` with fn's result as resp0. Both return false if
  // the callback threw; the caller degrades per site (a thrown pick idles).
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
  // Must be called from a catch block: counts the escape and either
  // rethrows (no watchdog) or reports it, possibly tripping.
  void HandleEscape(const char* site, const char* what);
  // The ladder's only entry point: snapshots the CrashReport and picks the
  // next rung from state_ (upgrade probation rolls back, a supervised module
  // restarts after backoff, anything else quarantines), deferring the module
  // swap to a clean event boundary. No-op while the module is offline.
  void TripWatchdog(TripReason reason, std::string detail);
  // kQuarantined -> kFallenBack: re-policies every task of this class onto
  // fallback_policy_ with zero task loss.
  void ExecuteFallback();

  // ---- Recovery ladder internals ----
  // Moves the slot along a legal edge (ENOKI_CHECKed). Leaving probation
  // ends the watchdog's probation; every move bumps recovery_epoch_.
  void Enter(SlotState next);
  bool ModuleOffline() const { return state_ >= SlotState::kRollbackPending; }
  // While any CPU is mid-switch (its task already picked by the current
  // module), reschedules `retry` one context switch later and returns true.
  bool DeferWhileSwitching(void (EnokiRuntime::*retry)());
  void ChargeAllCpus(Duration d);
  // `swap` plus the per-CPU drain of a quiesce.
  Duration SwapPause(Duration swap) const {
    return swap + static_cast<Duration>(core_->ncpus()) * core_->costs().upgrade_percpu_drain_ns;
  }
  // Snapshots `module` into `out` (sealed, saboteur applied). False when
  // the module does not support checkpointing or its saver threw (the
  // latter also sets last_save_threw_ for the caller to escalate).
  bool TakeCheckpoint(EnokiSched* module, Checkpoint* out);
  // Walks the generation ring newest→oldest, dropping (and logging) every
  // generation that fails its checksum, was saved by another module
  // fingerprint, or that LoadCheckpoint refuses. False = ring exhausted,
  // the module starts fresh.
  bool RestoreFromCheckpoint(EnokiSched* module);
  // VersionFingerprint(), with a throwing override treated as unknown (0).
  static uint64_t ModuleFingerprint(const EnokiSched* module);
  void AppendRestoreLog(const char* verdict, const Checkpoint& ck, const char* reason);
  // Self-rescheduling periodic-checkpoint timer (SetCheckpointInterval).
  void ArmCheckpointCadence(uint64_t epoch);
  // Re-injects every queued task into the module as a wakeup with a freshly
  // minted token, stopping once the module goes offline; adds their restore
  // cost to *pause, charges *pause to every CPU and returns how many were
  // injected.
  uint64_t Reinject(Duration* pause);
  // The one module-reinstall path (probation rollback, supervised restart,
  // upgrade init-failure abort): installs and attaches `module`, restores
  // it from the ring, enters kActive (kRestartProbation after a restart),
  // re-injects the queued tasks, charges every CPU `pause` plus the per-task
  // restore cost, records the rung and kicks every CPU. Returns the pause.
  Duration ReinstallModule(std::unique_ptr<EnokiSched> module, Duration pause, const char* what);
  // Enters a probation `state` under `cfg` and arms its window timer.
  void BeginProbation(const ProbationConfig& cfg, SlotState state);
  // Probation survived: drop the rollback target and checkpoint the module.
  void CommitProbation();
  // Deferred handlers of kRollbackPending and kRestartPending.
  void PerformRollback();
  void PerformRestart();
  void KickAllCpus();

  // Upgrade()'s ladder steps, in order. Admit refuses a null, offline,
  // on-probation or flapping upgrade. Quiesce checkpoints the outgoing module
  // and calls its ReregisterPrepare; SwapIn installs `next` and calls its
  // ReregisterInit (each false if that throws). Then AbortUpgrade undoes the
  // failed init, or CommitUpgrade records the upgrade and opens probation.
  bool AdmitUpgrade(const EnokiSched* next, UpgradeReport* report);
  bool Quiesce(TransferState* state, UpgradeReport* report);
  bool SwapIn(std::unique_ptr<EnokiSched> next, TransferState state, std::string* what);
  void AbortUpgrade(std::unique_ptr<EnokiSched> outgoing, Duration pause, const std::string& what,
                    UpgradeReport* report);
  void CommitUpgrade(std::unique_ptr<EnokiSched> outgoing, Duration pause, bool consumed,
                     UpgradeReport* report);

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
  uint64_t upgrades_ = 0;

  // Fault containment state. watchdog_ == nullptr means containment is off
  // and module exceptions propagate (the pre-watchdog contract).
  std::unique_ptr<Watchdog> watchdog_;
  int fallback_policy_ = -1;
  std::optional<CrashReport> crash_report_;
  // Simulated time the module declared via BusyWait during the current
  // callback; folded into that call's watchdog-visible latency.
  Duration callback_busy_ns_ = 0;
  uint64_t escaped_exceptions_ = 0;

  // ---- Recovery ladder state ----
  std::unique_ptr<ModuleSupervisor> supervisor_;
  CheckpointSaboteur* saboteur_ = nullptr;
  // Always-on crash-forensics ring (kept even when recorder_ == nullptr).
  FlightRecorder flight_;

  SlotState state_ = SlotState::kActive;
  // Bumped by every Enter(); deferred ladder timers capture it and no-op
  // when stale.
  uint64_t recovery_epoch_ = 0;
  // Calls survived in the open probation window, and the supervisor's
  // attempt number for the pending or latest restart.
  uint64_t probation_calls_seen_ = 0;
  uint64_t restart_attempt_ = 0;
  // The rollback target (non-null exactly in kUpgradeProbation and
  // kRollbackPending), and the generation ring recovery restores from.
  std::unique_ptr<EnokiSched> prev_module_;
  CheckpointStore checkpoints_;
  uint64_t checkpoint_seq_ = 0;
  // Set by TakeCheckpoint when the saver threw (vs. merely lacking
  // checkpoint support): CheckpointNow escalates a crash to the watchdog.
  bool last_save_threw_ = false;

  // Periodic-checkpoint cadence (0 = off). The epoch cancels a disarmed or
  // re-armed timer without touching the event loop.
  Duration checkpoint_interval_ = 0;
  uint64_t cadence_epoch_ = 0;

  // Version-fingerprint flap damping: (fingerprint, failure time) pairs,
  // appended in simulated-time order; AdmitUpgrade drops the expired ones.
  std::vector<std::pair<uint64_t, Time>> flap_failures_;
  // Fingerprint of the module whose upgrade probation is currently open.
  uint64_t incoming_fingerprint_ = 0;

  // Deterministic restore timeline (see RestoreTimelineString).
  std::string restore_log_;

  uint64_t rollbacks_ = 0;
  uint64_t module_restarts_ = 0;
  uint64_t checkpoint_rejects_ = 0;
  uint64_t restore_fallbacks_ = 0;
  uint64_t periodic_checkpoints_ = 0;
  uint64_t checkpoint_save_failures_ = 0;
  uint64_t fingerprint_refusals_ = 0;
  uint64_t last_restore_depth_ = 0;
  Duration last_restore_age_ns_ = 0;
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

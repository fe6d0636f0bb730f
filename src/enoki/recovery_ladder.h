// RecoveryLadder: the runtime's live upgrade and fault-containment half
// (DESIGN.md "Recovery ladder"). It owns the upgrade transaction, the slot
// state (which is also the probation window), the watchdog's strikes and
// callback budget, the checkpoint ring and its cadence, the restore walk,
// the reinstall, flap damping and the supervisor.
// Each EnokiRuntime holds one, armed or not, and the ladder reaches back into
// it (as a friend) for the module slot, the queued tasks and the record path.
// Unarmed, nothing trips and module exceptions propagate, but the checkpoint
// ring, the init-failure rollback and flap damping still work.

#ifndef SRC_ENOKI_RECOVERY_LADDER_H_
#define SRC_ENOKI_RECOVERY_LADDER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/checkpoint.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"

namespace enoki {

class CheckpointSaboteur;
class EnokiRuntime;
class SchedCore;
class Task;

struct UpgradeReport {
  bool ok = false;
  Duration pause_ns = 0;
  std::string error;
  bool checkpointed = false;  // outgoing state captured before the swap
  bool rolled_back = false;   // post-swap init failure undone from the checkpoint
  bool refused_flapping = false;      // refused by flap damping (kFlapMaxFailures)
  uint64_t incoming_fingerprint = 0;  // VersionFingerprint() of `next`
};

class RecoveryLadder {
 public:
  explicit RecoveryLadder(EnokiRuntime& rt) : rt_(rt) {}
  // Deferred ladder timers hold its address.
  RecoveryLadder(const RecoveryLadder&) = delete;
  RecoveryLadder& operator=(const RecoveryLadder&) = delete;

  // ---- Arming ----
  // Arms the watchdog (EnokiRuntime::EnableWatchdog). `fallback_policy` names
  // the registered class (typically CFS) that inherits the module's tasks on
  // a quarantine. Must be called after Attach; installs the starvation bound
  // into the core.
  void Arm(const WatchdogConfig& config, int fallback_policy);
  bool armed() const { return latency_ != nullptr; }

  // Arms the supervisor above the watchdog: trips become supervised
  // restart-from-checkpoint attempts (exponential backoff, budgeted per
  // window) and only escalate to quarantine+CFS once the budget is spent.
  // Requires Arm first; `factory` builds fresh module instances.
  void EnableSupervisor(const SupervisorConfig& config, ModuleFactory factory);

  // sysrq-style operator abort: trips at once with TripReason::kManual
  // (requires Arm).
  void AbortModule(const std::string& reason);

  // Installs a checkpoint-storage corruptor (tests/fault sweeps only):
  // applied to every checkpoint after sealing, modeling bit-rot the
  // checksum validation must catch.
  void SetCheckpointSaboteur(CheckpointSaboteur* saboteur) { saboteur_ = saboteur; }

  // Takes a fresh checkpoint generation of the current module outside any
  // upgrade and pushes it onto the ring. Returns false when the module does
  // not support checkpointing, is offline, or its saver crashed (a crash is
  // a strike like any other escaped exception — the ring keeps its prior
  // generations either way).
  bool CheckpointNow();

  // Arms (interval > 0) or disarms (0) a periodic CheckpointNow() cadence
  // driven through the event loop, so supervised restarts lose a bounded
  // window of accounting even when no upgrade ever happens. Saves are
  // skipped — but the cadence stays armed — while the module is offline or
  // on probation (an unproven module must not overwrite proven generations);
  // a terminal quarantine stops the cadence for good.
  void SetCheckpointInterval(Duration interval);

  // ---- Observations from the call path ----
  // A callback returned normally after `lat` of simulated time (the call
  // cost plus any BusyWait). With the watchdog armed, checks it against the
  // budget in force and counts the call toward an open probation window.
  // Every module call runs this, so it is forced inline; what runs only on a
  // trip or in probation is out of line.
  [[gnu::always_inline]] void OnCallReturn(const char* site, Duration lat, bool probation_call) {
    if (latency_ == nullptr || quarantined()) {
      return;
    }
    latency_->Add(lat);
    if (lat > callback_budget_) [[unlikely]] {
      TripCallbackBudget(site, lat);
      return;
    }
    if (probation_call && in_probation()) [[unlikely]] {
      CountProbationCall();
    }
  }

  // One strike against the module: an escaped exception, a pick or balance
  // validation failure, or a starved task (`starved_pid`). Trips with
  // `detail()` once the strikes of that kind reach the threshold in force (a
  // starved task trips at once). No-op when unarmed or offline.
  template <typename DetailFn>
  void Strike(TripReason reason, DetailFn&& detail, uint64_t starved_pid = 0) {
    if (CountStrike(reason)) [[unlikely]] {
      Trip(reason, detail(), starved_pid);
    }
  }

  // Counts an escape of `what` from `site` and, when armed, strikes; returns armed().
  bool OnEscape(const char* site, const char* what);

  // A task reached the class while the module is offline. After the
  // fallback sweep it is handed to the fallback class at the next event
  // boundary; until then the runtime's nullptr pick keeps it parked.
  void ParkOffline(const Task* t);

  // ---- The live upgrade (section 3.2; EnokiRuntime::Upgrade forwards) ----
  // One transaction. It refuses a null, offline, on-probation or flapping
  // upgrade before any quiesce (no pause, no count), checkpoints the
  // outgoing module before ReregisterPrepare, swaps, and calls the incoming
  // module's ReregisterInit. An init throw reinstalls the checkpointed
  // predecessor, or, with no checkpoint, leaves the broken module installed
  // and trips (kUpgradeFailure) when armed. With a watchdog armed and a
  // checkpoint taken, a commit parks the predecessor as the rollback target
  // while the incoming module runs a probation window under its own
  // DefaultProbation() budgets. If the incoming module did not take the
  // transfer, the queued tasks are re-injected with fresh tokens.
  UpgradeReport Upgrade(std::unique_ptr<EnokiSched> next);
  // Successful swaps.
  uint64_t upgrades() const { return upgrades_; }

  // Flap damping: after kFlapMaxFailures failed upgrades (probation trips or
  // init rejections) of one incoming fingerprint within kFlapWindowNs,
  // upgrades to that fingerprint are refused until the window drains.
  static constexpr uint64_t kFlapMaxFailures = 3;
  static constexpr Duration kFlapWindowNs = Milliseconds(50);

  // ---- The slot state ----
  // The module slot's rung; DESIGN.md "Recovery ladder" lists the legal
  // edges. The order is load-bearing: from kRollbackPending on, the module
  // is offline (not called; its tasks wait in the runtime's bookkeeping),
  // and from kQuarantined on, for good.
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
  bool offline() const { return state_ >= SlotState::kRollbackPending; }
  bool quarantined() const { return state_ >= SlotState::kQuarantined; }
  bool fallback_done() const { return state_ == SlotState::kFallenBack; }
  bool in_probation() const { return state_ != SlotState::kActive && !offline(); }
  bool recovery_pending() const { return offline() && !quarantined(); }

  // ---- Introspection ----
  // The predecessor a probation rollback would reinstall, else nullptr.
  const EnokiSched* rollback_target() const { return prev_module_.get(); }
  const std::optional<CrashReport>& crash_report() const { return crash_report_; }
  ModuleSupervisor* supervisor() const { return supervisor_.get(); }
  // The budgets of the newest probation window, and the callback budget in
  // force (scaled by budget_scale while a window is open).
  const ProbationConfig& probation() const { return probation_; }
  Duration effective_callback_budget() const { return callback_budget_; }
  const CheckpointStore& checkpoint_store() const { return checkpoints_; }
  // Mutable ring access for fault sweeps and fixtures (ring-slot bit-rot,
  // ring capacity).
  CheckpointStore* mutable_checkpoint_store() { return &checkpoints_; }
  // Deterministic restore timeline: one line per walk step ("skip"/"restore"
  // with simulated time, sequence, reason). Identical seeds must produce
  // byte-identical strings — the sweep tests' fallback-order fingerprint.
  const std::string& RestoreTimelineString() const { return restore_log_; }

  // Exceptions the module let escape (calls, saves, inits), armed or not.
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

 private:
  SchedCore* core() const;  // the runtime's
  [[gnu::cold]] void TripCallbackBudget(const char* site, Duration lat);
  // The probation window also closes after surviving N calls.
  void CountProbationCall();
  // Counts a strike of `reason`; true when it reaches the threshold.
  bool CountStrike(TripReason reason);
  // The ladder's only entry point: snapshots the CrashReport and picks the
  // next rung from state_ (upgrade probation rolls back, a supervised module
  // restarts after backoff, anything else quarantines), deferring the module
  // swap to a clean event boundary. No-op while the module is offline.
  void Trip(TripReason reason, std::string detail, uint64_t starved_pid = 0);
  // Runs the offline state's rung `delay` from now, once no CPU is
  // mid-switch (unless the state has moved on): kRollbackPending reinstalls
  // the predecessor, kRestartPending a fresh instance, and kQuarantined
  // re-policies every task of the runtime's class onto fallback_policy_.
  void ScheduleRung(Duration delay);
  // Moves the slot along a legal edge (ENOKI_CHECKed), re-derives the
  // callback budget and bumps recovery_epoch_.
  void Enter(SlotState next);
  // Walks the generation ring newest→oldest, dropping (and logging) every
  // generation that fails its checksum, was saved by another module
  // fingerprint, or that LoadCheckpoint refuses. False = ring exhausted,
  // the module starts fresh.
  bool RestoreFromCheckpoint(EnokiSched* module);
  // Snapshots `module` into `out` (sealed, saboteur applied). False when the
  // module does not support checkpointing or its saver threw (then *threw).
  bool TakeCheckpoint(EnokiSched* module, Checkpoint* out, bool* threw = nullptr);
  // Records `ck`'s kCheckpointSave and pushes it onto the ring: the one way
  // onto the ring, so every sequence a restore names was saved in the trace.
  void PushCheckpoint(Checkpoint ck);
  // VersionFingerprint(), with a throwing override treated as unknown (0).
  static uint64_t ModuleFingerprint(const EnokiSched* module);
  void AppendRestoreLog(const char* verdict, const Checkpoint& ck, const char* reason);
  // Self-rescheduling periodic-checkpoint timer (SetCheckpointInterval).
  void ArmCheckpointCadence(uint64_t epoch);
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

  EnokiRuntime& rt_;

  // What every call reads, together at the head (the runtime holds the
  // ladder after its own per-call fields). Arm makes the watchdog's latency
  // histogram (30 KB), so an unarmed runtime neither builds nor reads it;
  // unarmed, nothing trips and module exceptions propagate.
  SlotState state_ = SlotState::kActive;
  Duration callback_budget_ = 0;
  std::unique_ptr<CallLatency> latency_;

  WatchdogConfig config_;
  int fallback_policy_ = -1;
  // Strikes per kind (escaped exception, pick error, balance error) since
  // the current module instance was installed, and their values when the
  // open probation window began.
  uint64_t strikes_[3] = {0, 0, 0};
  uint64_t probation_base_[3] = {0, 0, 0};
  std::optional<CrashReport> crash_report_;

  // Bumped by every Enter(); deferred ladder timers capture it and no-op
  // when stale.
  uint64_t recovery_epoch_ = 0;
  ProbationConfig probation_;
  // Calls survived in the open probation window.
  uint64_t probation_calls_seen_ = 0;
  std::unique_ptr<ModuleSupervisor> supervisor_;

  // The rollback target (non-null exactly in kUpgradeProbation and
  // kRollbackPending), and the generation ring recovery restores from.
  std::unique_ptr<EnokiSched> prev_module_;
  CheckpointStore checkpoints_;
  uint64_t checkpoint_seq_ = 0;
  CheckpointSaboteur* saboteur_ = nullptr;

  // Periodic-checkpoint cadence (0 = off). The epoch cancels a disarmed or
  // re-armed timer without touching the event loop.
  Duration checkpoint_interval_ = 0;
  uint64_t cadence_epoch_ = 0;

  // Version-fingerprint flap damping: (fingerprint, failure time) pairs,
  // appended in simulated-time order; Upgrade drops the expired ones.
  std::vector<std::pair<uint64_t, Time>> flap_failures_;

  std::string restore_log_;

  uint64_t upgrades_ = 0;
  uint64_t escaped_exceptions_ = 0;
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

}  // namespace enoki

#endif  // SRC_ENOKI_RECOVERY_LADDER_H_

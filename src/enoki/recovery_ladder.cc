#include "src/enoki/recovery_ladder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/base/log.h"
#include "src/enoki/runtime.h"
#include "src/fault/injector.h"

namespace enoki {

SchedCore* RecoveryLadder::core() const { return rt_.core_; }

void RecoveryLadder::Arm(const WatchdogConfig& config, int fallback_policy) {
  ENOKI_CHECK(core() != nullptr);  // Attach first: the starvation bound lives in the core
  ENOKI_CHECK(fallback_policy >= 0);
  ENOKI_CHECK(core()->ClassForPolicy(fallback_policy) != &rt_);
  latency_ = std::make_unique<CallLatency>();
  config_ = config;
  fallback_policy_ = fallback_policy;
  callback_budget_ = config.callback_budget_ns;
  if (config.starvation_bound_ns > 0) {
    core()->set_starvation_bound(config.starvation_bound_ns);
  }
}

void RecoveryLadder::EnableSupervisor(const SupervisorConfig& config, ModuleFactory factory) {
  ENOKI_CHECK(armed());  // the supervisor sits above the watchdog
  ENOKI_CHECK(factory != nullptr);
  supervisor_ = std::make_unique<ModuleSupervisor>(config, std::move(factory));
  // Seed the first generation so even the first restart has a restore point
  // (modules without checkpoint support restart fresh).
  CheckpointNow();
}

void RecoveryLadder::AbortModule(const std::string& reason) {
  ENOKI_CHECK(armed());
  Trip(TripReason::kManual, reason);
}

// ---- Strikes and trips ----

bool RecoveryLadder::OnEscape(const char* site, const char* what) {
  ++escaped_exceptions_;
  if (armed()) {
    ENOKI_WARN("enoki: exception escaped %s: %s", site, what);
    Strike(TripReason::kEscapedException, [&] { return std::string(site) + ": " + what; });
  }
  return armed();
}

void RecoveryLadder::TripCallbackBudget(const char* site, Duration lat) {
  Trip(TripReason::kCallbackBudget, std::string(site) + " consumed " + std::to_string(lat) +
                                        "ns (budget " + std::to_string(callback_budget_) + "ns)");
}

void RecoveryLadder::CountProbationCall() {
  ++probation_calls_seen_;
  if (probation_.window_calls > 0 && probation_calls_seen_ >= probation_.window_calls) {
    CommitProbation();
  }
}

bool RecoveryLadder::CountStrike(TripReason reason) {
  if (!armed() || offline()) {
    return false;
  }
  if (reason == TripReason::kStarvation) {
    return true;
  }
  const size_t k = reason == TripReason::kPickErrors      ? 1
                   : reason == TripReason::kBalanceErrors ? 2
                                                          : 0;
  const bool p = in_probation();
  const uint64_t limit[3] = {p ? probation_.max_escaped_exceptions : config_.max_escaped_exceptions,
                             p ? probation_.max_pick_errors : config_.max_pick_errors,
                             p ? probation_.max_balance_errors : config_.max_balance_errors};
  return ++strikes_[k] - (p ? probation_base_[k] : 0) >= limit[k];
}

void RecoveryLadder::Trip(TripReason reason, std::string detail, uint64_t starved_pid) {
  if (offline()) {
    return;
  }
  CrashReport report;
  report.reason = reason;
  report.detail = std::move(detail);
  report.tripped_at = core()->now();
  report.during_probation = in_probation();
  report.module_calls = rt_.module_calls();
  report.pick_errors = rt_.pick_errors();
  report.balance_errors = rt_.balance_errors();
  report.escaped_exceptions = escaped_exceptions_;
  report.starved_pid = starved_pid;
  latency_->Summarize(&report);
  if (rt_.recorder_ != nullptr) {
    rt_.recorder_->Drain();
    const auto& log = rt_.recorder_->log();
    const size_t n = std::min(log.size(), config_.crash_ring_entries);
    report.last_calls.assign(log.end() - static_cast<std::ptrdiff_t>(n), log.end());
  } else {
    report.last_calls = rt_.flight_.Tail(config_.crash_ring_entries);
  }
  crash_report_ = std::move(report);

  // Rung 2: a trip inside an upgrade's probation window condemns the
  // incoming module — roll the transaction back to the checkpointed
  // predecessor instead of quarantining.
  if (state_ == SlotState::kUpgradeProbation) {
    Enter(SlotState::kRollbackPending);
    // Flap damping: the incoming fingerprint failed its probation. Enough of
    // these inside the rolling window and Upgrade() refuses the fingerprint.
    flap_failures_.emplace_back(ModuleFingerprint(rt_.module_.get()), core()->now());
    ENOKI_WARN("enoki: watchdog tripped (%s) during upgrade probation: %s; rolling back",
               TripReasonName(crash_report_->reason), crash_report_->detail.c_str());
    ScheduleRung(0);
    return;
  }

  // Rung 3: a supervised module restarts from its last good checkpoint
  // after the supervisor's backoff, as long as the window budget holds.
  if (supervisor_ != nullptr) {
    const RestartDecision d = supervisor_->OnTrip(*crash_report_, core()->now());
    if (d.action == RecoveryAction::kRestart) {
      Enter(SlotState::kRestartPending);
      ENOKI_WARN("enoki: watchdog tripped (%s): %s; supervised restart #%" PRIu64
                 " in %" PRIu64 "ns",
                 TripReasonName(crash_report_->reason), crash_report_->detail.c_str(), d.attempt,
                 static_cast<uint64_t>(d.backoff_ns));
      ScheduleRung(d.backoff_ns);
      return;
    }
    ENOKI_WARN("enoki: supervisor restart budget exhausted; escalating to quarantine");
  }

  // Rung 4 (terminal): quarantine + CFS fallback.
  Enter(SlotState::kQuarantined);
  ENOKI_WARN("enoki: watchdog tripped (%s): %s; quarantining module",
             TripReasonName(crash_report_->reason), crash_report_->detail.c_str());
  ScheduleRung(0);
}

void RecoveryLadder::ScheduleRung(Duration delay) {
  core()->loop().ScheduleAfter(delay, [this, epoch = recovery_epoch_] {
    if (epoch != recovery_epoch_) {
      return;
    }
    // The trip can fire deep inside a scheduling operation (mid-pick,
    // mid-wakeup), and a CPU mid-switch already holds a task the current
    // module picked: swapping the module or re-policying that task now would
    // double-attach it. Offline picks return nullptr, so no new switch window
    // opens while the rung waits.
    for (int cpu = 0; cpu < core()->ncpus(); ++cpu) {
      if (core()->CpuInSwitch(cpu)) {
        ScheduleRung(core()->costs().context_switch_ns);
        return;
      }
    }
    rt_.StampRecorder();
    const SimCosts& costs = core()->costs();
    if (state_ == SlotState::kRollbackPending) {
      ReinstallModule(std::move(prev_module_), rt_.SwapPause(costs.upgrade_swap_ns),
                      "rolled back to checkpointed predecessor");
      return;
    }
    if (state_ == SlotState::kRestartPending) {
      std::unique_ptr<EnokiSched> fresh = supervisor_->MakeModule();
      ENOKI_CHECK(fresh != nullptr);
      // A factory-fresh instance never saw CreateHintQueue: re-register every
      // existing queue id so hints keep flowing after the restart.
      for (size_t qid = 0; qid < rt_.user_queues_.size(); ++qid) {
        fresh->RegisterQueue(static_cast<int>(qid));
      }
      for (size_t qid = 0; qid < rt_.rev_queues_.size(); ++qid) {
        fresh->RegisterReverseQueue(static_cast<int>(qid));
      }
      ReinstallModule(std::move(fresh), rt_.SwapPause(costs.module_restart_ns),
                      "supervised restart complete; entering probation");
      return;
    }
    Enter(SlotState::kFallenBack);  // from kQuarantined, the only other offline state
    // Best-effort quiesce through the upgrade path: the module gets the same
    // prepare callback a live upgrade would send, so a well-behaved module
    // sees a clean shutdown. Its state goes nowhere — there is no successor.
    try {
      (void)rt_.module_->ReregisterPrepare();
    } catch (...) {
      // Already condemned; a throw here changes nothing.
    }
    uint64_t moved = 0;
    for (const auto& t : core()->tasks()) {
      if (t->sched_class() == &rt_ && t->state() != TaskState::kDead) {
        core()->SetTaskPolicy(t.get(), fallback_policy_);
        ++moved;
      }
    }
    const Duration pause = rt_.SwapPause(costs.upgrade_swap_ns) +
                           static_cast<Duration>(moved) * costs.fallback_pertask_ns;
    rt_.ChargeAllCpus(pause);
    crash_report_->tasks_repolicied = moved;
    crash_report_->fallback_pause_ns = pause;
    ENOKI_WARN("enoki: fallback complete: %" PRIu64
               " tasks re-policied to policy %d, pause %" PRIu64 "ns",
               moved, fallback_policy_, static_cast<uint64_t>(pause));
  });
}

void RecoveryLadder::ParkOffline(const Task* t) {
  if (!fallback_done()) {
    return;
  }
  core()->loop().ScheduleAfter(0, [this, pid = t->pid()] {
    Task* late = core()->FindTask(pid);
    if (late != nullptr && late->sched_class() == &rt_ && late->state() != TaskState::kDead) {
      core()->SetTaskPolicy(late, fallback_policy_);
    }
  });
}

// ---- The slot state ----

void RecoveryLadder::Enter(SlotState next) {
  using S = SlotState;
  constexpr auto bit = [](S s) { return 1u << static_cast<unsigned>(s); };
  // Bit `to` of kLegal[from] is set for every legal ladder edge.
  static constexpr unsigned kLegal[] = {
      bit(S::kUpgradeProbation) | bit(S::kRestartPending) | bit(S::kQuarantined),  // kActive
      bit(S::kActive) | bit(S::kRollbackPending),                       // kUpgradeProbation
      bit(S::kActive) | bit(S::kRestartPending) | bit(S::kQuarantined),  // kRestartProbation
      bit(S::kActive),                                                   // kRollbackPending
      bit(S::kRestartProbation),                                         // kRestartPending
      bit(S::kFallenBack),                                               // kQuarantined
      0,                                                                 // kFallenBack
  };
  ENOKI_CHECK((kLegal[static_cast<unsigned>(state_)] & bit(next)) != 0);
  state_ = next;
  ++recovery_epoch_;
  callback_budget_ = in_probation() ? static_cast<Duration>(
                                          static_cast<double>(config_.callback_budget_ns) *
                                          probation_.budget_scale)
                                    : config_.callback_budget_ns;
}

// ---- Checkpoints ----

bool RecoveryLadder::CheckpointNow() {
  if (offline()) {
    return false;
  }
  Checkpoint ck;
  bool threw = false;
  if (!TakeCheckpoint(rt_.module_.get(), &ck, &threw)) {
    if (threw) {
      // A crash inside SaveCheckpoint is a module crash like any other: the
      // ring keeps its prior generations untouched and the watchdog decides
      // whether the module has spent its escape budget.
      ++checkpoint_save_failures_;
      ++escaped_exceptions_;
      ENOKI_WARN("enoki: module crashed during CheckpointNow (save failure #%" PRIu64 ")",
                 checkpoint_save_failures_);
      Strike(TripReason::kEscapedException,
             [] { return "save_checkpoint: crash during CheckpointNow"; });
    }
    return false;
  }
  core()->ChargeCpu(0, core()->costs().checkpoint_save_ns);
  PushCheckpoint(std::move(ck));
  return true;
}

void RecoveryLadder::PushCheckpoint(Checkpoint ck) {
  EnokiRuntime::CallRecord e{.type = RecordType::kCheckpointSave};
  e.arg[0] = ck.sequence;
  e.arg[1] = static_cast<uint64_t>(ck.taken_at);
  e.arg[2] = ck.bytes.size();
  rt_.Record(e);
  checkpoints_.Push(std::move(ck));
}

void RecoveryLadder::SetCheckpointInterval(Duration interval) {
  checkpoint_interval_ = interval;
  const uint64_t epoch = ++cadence_epoch_;  // cancels any previously armed timer
  if (interval > 0 && core() != nullptr && !quarantined()) {
    ArmCheckpointCadence(epoch);
  }
}

void RecoveryLadder::ArmCheckpointCadence(uint64_t epoch) {
  core()->loop().ScheduleAfter(checkpoint_interval_, [this, epoch] {
    if (epoch != cadence_epoch_ || quarantined()) {
      return;  // disarmed, re-armed at a different interval, or terminal
    }
    // Probation skips the save (an unproven module must not overwrite proven
    // generations) but keeps the cadence alive; so does a pending recovery.
    if (state_ == SlotState::kActive && CheckpointNow()) {
      ++periodic_checkpoints_;
    }
    if (!quarantined()) {
      ArmCheckpointCadence(epoch);
    }
  });
}

bool RecoveryLadder::TakeCheckpoint(EnokiSched* module, Checkpoint* out, bool* threw) {
  rt_.StampRecorder();
  ByteWriter w;
  bool ok = false;
  try {
    ok = module->SaveCheckpoint(&w);
  } catch (...) {
    if (threw != nullptr) {
      *threw = true;  // no checkpoint; CheckpointNow counts the crash
    }
  }
  if (!ok) {
    return false;
  }
  out->state_version = module->CheckpointVersion();
  out->sequence = ++checkpoint_seq_;
  out->taken_at = core()->now();
  out->module_fingerprint = ModuleFingerprint(module);
  out->bytes = w.Take();
  out->Seal();
  if (saboteur_ != nullptr) {
    // Simulated storage rot happens after sealing, so validation must
    // catch it at restore time.
    saboteur_->MaybeCorrupt(out);
  }
  return true;
}

uint64_t RecoveryLadder::ModuleFingerprint(const EnokiSched* module) {
  try {
    return module->VersionFingerprint();
  } catch (...) {
    return 0;  // unknown saver: matches any generation
  }
}

void RecoveryLadder::AppendRestoreLog(const char* verdict, const Checkpoint& ck,
                                      const char* reason) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%" PRIu64 " %s seq=%" PRIu64 " v=%u taken=%" PRIu64 " %s",
                static_cast<uint64_t>(core()->now()), verdict, ck.sequence, ck.state_version,
                static_cast<uint64_t>(ck.taken_at), reason);
  restore_log_ += buf;
  restore_log_ += '\n';
}

bool RecoveryLadder::RestoreFromCheckpoint(EnokiSched* module) {
  last_restore_depth_ = 0;
  last_restore_age_ns_ = 0;
  if (saboteur_ != nullptr) {
    // Ring-slot bit-rot is discovered at read time: an arbitrary stored
    // generation (not just the newest) may have rotted since its save.
    saboteur_->MaybeCorruptSlot(&checkpoints_);
  }
  const uint64_t want_fp = ModuleFingerprint(module);
  while (!checkpoints_.empty()) {
    ++last_restore_depth_;
    const Checkpoint& ck = checkpoints_.FromNewest(0);
    const char* skip = nullptr;
    if (!ck.Valid()) {
      ++checkpoint_rejects_;  // never deserialized: the checksum caught it
      skip = "reason=checksum";
    } else if (ck.module_fingerprint != 0 && want_fp != 0 && ck.module_fingerprint != want_fp) {
      // Saved by a different module build (e.g. a replaced predecessor
      // policy): format-compatible by accident at worst, wrong by design.
      skip = "reason=fingerprint";
    } else {
      ByteReader r(ck.bytes);
      bool ok = false;
      try {
        ok = module->LoadCheckpoint(ck.state_version, &r);
      } catch (...) {
        // A throwing loader refuses the generation like a false return.
      }
      if (!ok) {
        skip = "reason=load-refused";
      }
    }
    if (skip != nullptr) {
      ++restore_fallbacks_;
      ENOKI_WARN("enoki: skipping checkpoint #%" PRIu64 " (version %u, %s)", ck.sequence,
                 ck.state_version, skip);
      AppendRestoreLog("skip", ck, skip);
      checkpoints_.DropNewest();  // never offer a refused generation twice
      continue;
    }
    last_restore_age_ns_ = core()->now() - ck.taken_at;
    AppendRestoreLog("restore", ck, "");
    EnokiRuntime::CallRecord e{.type = RecordType::kCheckpointRestore};
    e.arg[0] = ck.sequence;
    e.arg[1] = last_restore_depth_;
    e.arg[2] = last_restore_depth_ - 1;  // generations skipped on the way
    rt_.Record(e);
    return true;
  }
  ENOKI_WARN("enoki: checkpoint ring exhausted after %" PRIu64 " generations; starting fresh",
             last_restore_depth_);
  Checkpoint none;
  AppendRestoreLog("fresh", none, "reason=ring-exhausted");
  return false;
}

// ---- Reinstall and probation ----

Duration RecoveryLadder::ReinstallModule(std::unique_ptr<EnokiSched> module, Duration pause,
                                         const char* what) {
  const bool restart = state_ == SlotState::kRestartPending;
  if (state_ != SlotState::kActive) {
    // A rolled-back predecessor is trusted and a restart is a fresh
    // instance: the condemned module's strikes die with it.
    std::fill(std::begin(strikes_), std::end(strikes_), 0);
  }
  rt_.module_ = std::move(module);  // the replaced module dies here
  // Attach even a reinstalled predecessor: ReregisterPrepare moved its
  // per-CPU structures out, and a failed restore must still leave it with
  // sized (if empty) state rather than a hollow shell.
  rt_.module_->Attach(&rt_);
  const bool restored = RestoreFromCheckpoint(rt_.module_.get());
  EnokiRuntime::CallRecord e;
  if (restart) {
    ++module_restarts_;
    supervisor_->OnRestartComplete(core()->now(), restored);
    BeginProbation(supervisor_->config().probation, SlotState::kRestartProbation);
    e.type = RecordType::kModuleRestart;
    e.arg[0] = supervisor_->timeline().back().attempt;
  } else {
    ++rollbacks_;
    if (state_ == SlotState::kRollbackPending) {
      Enter(SlotState::kActive);
    }
    e.type = RecordType::kUpgradeRollback;
  }
  // The module is back online before it sees its tasks, so a trip raised
  // by a re-injected wakeup walks the ladder from the state just entered.
  const uint64_t reinjected = rt_.Reinject(&pause);
  e.arg[restart ? 1 : 0] = restored ? 1 : 0;
  e.arg[restart ? 2 : 1] = reinjected;
  rt_.Record(e);
  ENOKI_WARN("enoki: %s (restored=%d, %" PRIu64 " tasks re-injected, pause %" PRIu64 "ns)", what,
             restored ? 1 : 0, reinjected, static_cast<uint64_t>(pause));
  rt_.KickAllCpus();
  return pause;
}

void RecoveryLadder::BeginProbation(const ProbationConfig& cfg, SlotState state) {
  ENOKI_CHECK(armed());
  probation_ = cfg;
  Enter(state);
  probation_calls_seen_ = 0;
  std::copy(std::begin(strikes_), std::end(strikes_), probation_base_);
  if (cfg.window_ns > 0) {
    core()->loop().ScheduleAfter(cfg.window_ns, [this, epoch = recovery_epoch_] {
      if (epoch == recovery_epoch_) {
        CommitProbation();
      }
    });
  }
}

void RecoveryLadder::CommitProbation() {
  ENOKI_CHECK(in_probation());
  Enter(SlotState::kActive);  // also cancels the probation window timer
  prev_module_.reset();  // the predecessor stops being a rollback target
  // The module proved itself: its current state becomes the newest
  // generation on the ring.
  Checkpoint ck;
  if (TakeCheckpoint(rt_.module_.get(), &ck)) {
    core()->ChargeCpu(0, core()->costs().checkpoint_save_ns);
    PushCheckpoint(std::move(ck));
  }
  if (supervisor_ != nullptr) {
    supervisor_->OnHealthy();
  }
}

// ---- The live upgrade ----

UpgradeReport RecoveryLadder::Upgrade(std::unique_ptr<EnokiSched> next) {
  UpgradeReport report;
  // Every refusal comes before any quiesce attempt: no pause is charged and
  // the upgrade counter is untouched.
  const char* refusal = next == nullptr  ? "null module"
                        : offline()      ? "module quarantined by watchdog; upgrade refused"
                        : in_probation() ? "previous upgrade still in probation; upgrade refused"
                                         : nullptr;
  if (refusal != nullptr) {
    report.error = refusal;
    return report;
  }
  // Flap damping: a fingerprint that keeps failing probation is refused
  // outright until the rolling window drains — no chance to churn the
  // module slot a fourth time.
  const uint64_t fp = ModuleFingerprint(next.get());
  report.incoming_fingerprint = fp;
  const Time now = core()->now();
  std::erase_if(flap_failures_, [&](auto& f) { return now - f.second > kFlapWindowNs; });
  const uint64_t flaps = static_cast<uint64_t>(std::count_if(
      flap_failures_.begin(), flap_failures_.end(), [&](auto& f) { return f.first == fp; }));
  if (fp != 0 && flaps >= kFlapMaxFailures) {
    ++fingerprint_refusals_;
    report.error = "incoming fingerprint flapping (" + std::to_string(flaps) +
                   " probation failures in window); upgrade refused";
    report.refused_flapping = true;
    return report;
  }
  // Checkpoint the outgoing module *before* ReregisterPrepare disturbs its
  // state: if the incoming module fails init or probation, this snapshot is
  // what the transaction rolls back to.
  Checkpoint ck;
  report.checkpointed = TakeCheckpoint(rt_.module_.get(), &ck);
  TransferState state;
  try {
    state = rt_.module_->ReregisterPrepare();
  } catch (const std::exception& ex) {
    // The old module would not quiesce: it stays installed and keeps
    // running; no pause is charged because the write lock was released
    // without a handoff.
    report.error = std::string("module refused to quiesce: ") + ex.what();
    return report;
  }
  if (report.checkpointed) {
    PushCheckpoint(std::move(ck));  // what an abort restores
  }
  // The pause: the write-locked quiesce's reader drain (one in-flight call
  // per CPU), the prepare/init calls, the pointer swap and the checkpoint.
  const SimCosts& costs = core()->costs();
  const Duration pause = rt_.SwapPause(costs.upgrade_swap_ns + 2 * costs.enoki_call_ns) +
                         (report.checkpointed ? costs.checkpoint_save_ns : 0);
  // Probe whether the incoming module actually adopts the transferred state.
  // A cross-policy upgrade names a different transfer type, so Take() fails,
  // the carried Schedulable tokens die with the transfer, and the commit path
  // must re-inject queued tasks as fresh wakeups or they strand forever.
  std::shared_ptr<bool> consumed = state.AttachConsumptionProbe();
  std::unique_ptr<EnokiSched> outgoing = std::move(rt_.module_);
  next->Attach(&rt_);
  rt_.module_ = std::move(next);
  try {
    rt_.module_->ReregisterInit(std::move(state));
  } catch (const std::exception& ex) {
    if (report.checkpointed) {
      // Transaction abort: reinstall the outgoing module and restore the
      // accounting state snapshotted before prepare. Queued tasks are
      // re-injected as wakeups so nothing is lost; the broken incoming
      // module dies having never owned a task. The rejection counts against
      // the incoming fingerprint just like a probation trip would: it is the
      // same "this build cannot take the slot" signal, one rung earlier.
      flap_failures_.emplace_back(fp, core()->now());
      report.error =
          std::string("new module rejected transferred state; rolled back: ") + ex.what();
      report.rolled_back = true;
      report.pause_ns = ReinstallModule(std::move(outgoing), pause,
                                        "upgrade aborted, rolled back to predecessor");
      return report;
    }
    // Legacy (non-checkpointable module) path: the swap already happened and
    // the old module's state is gone. The new module is installed but
    // broken. With a watchdog this is a containment event (quarantine +
    // fallback, zero task loss); without one the caller only gets the error.
    report.error = std::string("new module rejected transferred state: ") + ex.what();
    report.pause_ns = pause;
    ++escaped_exceptions_;
    rt_.ChargeAllCpus(pause);
    ENOKI_WARN("enoki: upgrade failed after swap: %s", report.error.c_str());
    if (armed()) {
      Trip(TripReason::kUpgradeFailure, report.error);
    }
    return report;
  }
  ++upgrades_;
  // Every CPU's next scheduling operation is delayed by the blackout.
  rt_.ChargeAllCpus(pause);
  report.ok = true;
  report.pause_ns = pause;
  EnokiRuntime::CallRecord e{.type = RecordType::kUpgrade};
  e.arg[0] = upgrades_;
  e.arg[1] = report.checkpointed ? 1 : 0;
  rt_.Record(e);
  if (report.checkpointed && armed()) {
    // Probation: the outgoing module stays parked as the rollback target
    // until the incoming one survives a window under the incoming policy's
    // own DefaultProbation() budgets — a central dispatcher and a
    // work-stealing balancer do not false-positive on the same thresholds.
    prev_module_ = std::move(outgoing);
    ProbationConfig probation;
    try {
      probation = rt_.module_->DefaultProbation();
    } catch (...) {
      probation = ProbationConfig{};
    }
    BeginProbation(probation, SlotState::kUpgradeProbation);
  }
  if (!*consumed) {
    // The incoming module did not take the transfer (different policy, or
    // the outgoing module exported nothing): every token it carried is gone.
    // Re-inject the queued tasks with freshly minted tokens, as a reinstall
    // does. Runs after probation is armed so a successor that trips the
    // watchdog here is contained by the normal probation rollback.
    Duration restore = 0;
    if (rt_.Reinject(&restore) > 0) {
      report.pause_ns += restore;
      rt_.KickAllCpus();
    }
  }
  return report;
}

}  // namespace enoki

#include "src/enoki/runtime.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/base/log.h"
#include "src/fault/injector.h"
#include "src/simkernel/sharded_event_loop.h"

namespace enoki {

EnokiRuntime::EnokiRuntime(std::unique_ptr<EnokiSched> module) : module_(std::move(module)) {
  ENOKI_CHECK(module_ != nullptr);
}

void EnokiRuntime::Attach(SchedCore* core) {
  SchedClass::Attach(core);
  queued_.resize(static_cast<size_t>(core->ncpus()));
  running_.assign(static_cast<size_t>(core->ncpus()), 0);
  module_->Attach(this);
}

void EnokiRuntime::AppendToRecorder(const CallRecord& call) {
  RecordEntry e;
  e.type = call.type;
  e.pid = call.pid;
  e.cpu = call.cpu;
  e.runtime = call.runtime;
  std::copy(std::begin(call.arg), std::end(call.arg), e.arg);
  e.resp0 = call.resp0;
  e.has_resp = call.has_resp;
  e.flag = call.flag;
  recorder_->SetTime(core_->now());
  recorder_->Append(e);
}

// ---- The call path into the module ----

template <typename Fn>
[[gnu::always_inline]] inline bool EnokiRuntime::Notify(int cpu, const CallRecord* e,
                                                        const char* site, Fn&& fn,
                                                        bool probation_call) {
  if (cpu >= 0) {
    Charge(cpu);
  }
  if (e != nullptr) {
    Record(*e);
  }
  try {
    fn();
  } catch (const std::exception& ex) {
    HandleEscape(site, ex.what());
    return false;
  } catch (...) {
    HandleEscape(site, "non-standard exception");
    return false;
  }
  FinishCall(site, probation_call);
  return true;
}

template <typename Fn>
[[gnu::always_inline]] inline bool EnokiRuntime::Query(int cpu, CallRecord e, const char* site,
                                                       Fn&& fn) {
  if (!Notify(cpu, nullptr, site, [&] { e.resp0 = fn(); })) {
    return false;
  }
  e.has_resp = true;
  Record(e);
  return true;
}

// Forced inline like Notify and Query: each callback then compiles into one
// straight-line path, at the cost of five copies of this one.
[[gnu::always_inline]] inline void EnokiRuntime::HandToken(Task* t, int cpu, RecordType type,
                                                           TokenCall call, const char* site,
                                                           bool probation_call) {
  SetCurrentKthread(cpu);
  const TaskMessage msg = MakeMsg(t, cpu);
  const CallRecord e = EncodeTask<CallRecord>(type, msg);
  Notify(
      cpu, &e, site, [&] { (module_.get()->*call)(msg, Mint(t, cpu)); }, probation_call);
}

// ---- Fault containment ----

void EnokiRuntime::HandleEscape(const char* site, const char* what) {
  ++escaped_exceptions_;
  callback_busy_ns_ = 0;
  if (watchdog_ == nullptr) {
    throw;  // containment off: the exception keeps its pre-watchdog behavior
  }
  ENOKI_WARN("enoki: exception escaped %s: %s", site, what);
  if (!quarantined() && watchdog_->OnEscapedException() != TripReason::kNone) {
    TripWatchdog(TripReason::kEscapedException, std::string(site) + ": " + what);
  }
}

void EnokiRuntime::TripCallbackBudget(const char* site, Duration lat) {
  TripWatchdog(TripReason::kCallbackBudget,
               std::string(site) + " consumed " + std::to_string(lat) + "ns (budget " +
                   std::to_string(watchdog_->effective_callback_budget()) + "ns)");
}

void EnokiRuntime::CountProbationCall() {
  ++probation_calls_seen_;
  const uint64_t limit = watchdog_->probation().window_calls;
  if (limit > 0 && probation_calls_seen_ >= limit) {
    CommitProbation();
  }
}

void EnokiRuntime::EnableWatchdog(const WatchdogConfig& config, int fallback_policy) {
  ENOKI_CHECK(core_ != nullptr);  // Attach first: the starvation bound lives in the core
  ENOKI_CHECK(fallback_policy >= 0);
  ENOKI_CHECK(core_->ClassForPolicy(fallback_policy) != this);
  watchdog_ = std::make_unique<Watchdog>(config);
  fallback_policy_ = fallback_policy;
  if (config.starvation_bound_ns > 0) {
    core_->set_starvation_bound(config.starvation_bound_ns);
  }
}

void EnokiRuntime::AbortModule(const std::string& reason) {
  ENOKI_CHECK(watchdog_ != nullptr);
  TripWatchdog(TripReason::kManual, reason);
}

void EnokiRuntime::TripWatchdog(TripReason reason, std::string detail) {
  if (ModuleOffline()) {
    return;
  }
  CrashReport report = watchdog_->BuildReport(reason, std::move(detail), core_->now());
  // The runtime's counters are authoritative: they also cover events from
  // before EnableWatchdog.
  report.module_calls = module_calls_;
  report.pick_errors = pick_errors_;
  report.balance_errors = balance_errors_;
  report.escaped_exceptions = escaped_exceptions_;
  if (recorder_ != nullptr) {
    recorder_->Drain();
    const auto& log = recorder_->log();
    const size_t n = std::min(log.size(), watchdog_->config().crash_ring_entries);
    report.last_calls.assign(log.end() - static_cast<std::ptrdiff_t>(n), log.end());
  } else {
    report.last_calls = flight_.Tail(watchdog_->config().crash_ring_entries);
  }
  crash_report_ = std::move(report);

  // Rung 2: a trip inside an upgrade's probation window condemns the
  // incoming module — roll the transaction back to the checkpointed
  // predecessor instead of quarantining.
  if (state_ == SlotState::kUpgradeProbation) {
    Enter(SlotState::kRollbackPending);
    // Flap damping: the incoming fingerprint failed its probation. Enough of
    // these inside the rolling window and Upgrade() refuses the fingerprint.
    flap_failures_.emplace_back(incoming_fingerprint_, core_->now());
    ENOKI_WARN("enoki: watchdog tripped (%s) during upgrade probation: %s; rolling back",
               TripReasonName(crash_report_->reason), crash_report_->detail.c_str());
    // The trip can fire deep inside a scheduling operation (mid-pick,
    // mid-wakeup). Defer the module swap to a clean event boundary.
    core_->loop().ScheduleAfter(0, [this] { PerformRollback(); });
    return;
  }

  // Rung 3: a supervised module restarts from its last good checkpoint
  // after the supervisor's backoff, as long as the window budget holds.
  if (supervisor_ != nullptr) {
    const RestartDecision d = supervisor_->OnTrip(*crash_report_, core_->now());
    if (d.action == RecoveryAction::kRestart) {
      Enter(SlotState::kRestartPending);
      restart_attempt_ = d.attempt;
      ENOKI_WARN("enoki: watchdog tripped (%s): %s; supervised restart #%" PRIu64
                 " in %" PRIu64 "ns",
                 TripReasonName(crash_report_->reason), crash_report_->detail.c_str(), d.attempt,
                 static_cast<uint64_t>(d.backoff_ns));
      core_->loop().ScheduleAfter(d.backoff_ns, [this, epoch = recovery_epoch_] {
        if (epoch == recovery_epoch_) {
          PerformRestart();
        }
      });
      return;
    }
    ENOKI_WARN("enoki: supervisor restart budget exhausted; escalating to quarantine");
  }

  // Rung 4 (terminal): quarantine + CFS fallback.
  Enter(SlotState::kQuarantined);
  ENOKI_WARN("enoki: watchdog tripped (%s): %s; quarantining module",
             TripReasonName(crash_report_->reason), crash_report_->detail.c_str());
  core_->loop().ScheduleAfter(0, [this] { ExecuteFallback(); });
}

void EnokiRuntime::ExecuteFallback() {
  // Re-policying a task mid-dispatch would double-attach it. Quarantined
  // picks return nullptr, so no new switch window opens while we wait.
  if (DeferWhileSwitching(&EnokiRuntime::ExecuteFallback)) {
    return;
  }
  Enter(SlotState::kFallenBack);
  // Best-effort quiesce through the upgrade path: the module gets the same
  // prepare callback a live upgrade would send, so a well-behaved module
  // sees a clean shutdown. Its state goes nowhere — there is no successor.
  try {
    (void)module_->ReregisterPrepare();
  } catch (...) {
    // Already condemned; a throw here changes nothing.
  }
  uint64_t moved = 0;
  for (const auto& t : core_->tasks()) {
    if (t->sched_class() == this && t->state() != TaskState::kDead) {
      core_->SetTaskPolicy(t.get(), fallback_policy_);
      ++moved;
    }
  }
  const Duration pause = SwapPause(core_->costs().upgrade_swap_ns) +
                         static_cast<Duration>(moved) * core_->costs().fallback_pertask_ns;
  ChargeAllCpus(pause);
  crash_report_->tasks_repolicied = moved;
  crash_report_->fallback_pause_ns = pause;
  ENOKI_WARN("enoki: fallback complete: %" PRIu64 " tasks re-policied to policy %d, pause %" PRIu64
             "ns",
             moved, fallback_policy_, static_cast<uint64_t>(pause));
}

// ---- Recovery ladder internals ----

void EnokiRuntime::Enter(SlotState next) {
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
  if (in_probation()) {
    watchdog_->EndProbation();
  }
  state_ = next;
  ++recovery_epoch_;
}

bool EnokiRuntime::DeferWhileSwitching(void (EnokiRuntime::*retry)()) {
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    if (core_->CpuInSwitch(cpu)) {
      core_->loop().ScheduleAfter(core_->costs().context_switch_ns,
                                  [this, retry] { (this->*retry)(); });
      return true;
    }
  }
  return false;
}

void EnokiRuntime::ChargeAllCpus(Duration d) {
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    core_->ChargeCpu(cpu, d);
  }
}

void EnokiRuntime::EnableSupervisor(const SupervisorConfig& config, ModuleFactory factory) {
  ENOKI_CHECK(watchdog_ != nullptr);  // the supervisor sits above the watchdog
  ENOKI_CHECK(factory != nullptr);
  supervisor_ = std::make_unique<ModuleSupervisor>(config, std::move(factory));
  // Seed the first generation so even the first restart has a restore point
  // (modules without checkpoint support restart fresh).
  CheckpointNow();
}

bool EnokiRuntime::CheckpointNow() {
  if (ModuleOffline()) {
    return false;
  }
  Checkpoint ck;
  if (!TakeCheckpoint(module_.get(), &ck)) {
    if (last_save_threw_) {
      // A crash inside SaveCheckpoint is a module crash like any other: the
      // ring keeps its prior generations untouched and the watchdog decides
      // whether the module has spent its escape budget.
      ++checkpoint_save_failures_;
      ++escaped_exceptions_;
      ENOKI_WARN("enoki: module crashed during CheckpointNow (save failure #%" PRIu64 ")",
                 checkpoint_save_failures_);
      if (watchdog_ != nullptr && watchdog_->OnEscapedException() != TripReason::kNone) {
        TripWatchdog(TripReason::kEscapedException, "save_checkpoint: crash during CheckpointNow");
      }
    }
    return false;
  }
  core_->ChargeCpu(0, core_->costs().checkpoint_save_ns);
  CallRecord e{.type = RecordType::kCheckpointSave};
  e.arg[0] = ck.sequence;
  e.arg[1] = static_cast<uint64_t>(ck.taken_at);
  e.arg[2] = ck.bytes.size();
  Record(e);
  checkpoints_.Push(std::move(ck));
  return true;
}

void EnokiRuntime::SetCheckpointInterval(Duration interval) {
  checkpoint_interval_ = interval;
  const uint64_t epoch = ++cadence_epoch_;  // cancels any previously armed timer
  if (interval > 0 && core_ != nullptr && !quarantined()) {
    ArmCheckpointCadence(epoch);
  }
}

void EnokiRuntime::ArmCheckpointCadence(uint64_t epoch) {
  core_->loop().ScheduleAfter(checkpoint_interval_, [this, epoch] {
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

bool EnokiRuntime::TakeCheckpoint(EnokiSched* module, Checkpoint* out) {
  ByteWriter w;
  bool ok = false;
  last_save_threw_ = false;
  try {
    ok = module->SaveCheckpoint(&w);
  } catch (...) {
    last_save_threw_ = true;  // no checkpoint; CheckpointNow escalates the crash
  }
  if (!ok) {
    return false;
  }
  out->state_version = module->CheckpointVersion();
  out->sequence = ++checkpoint_seq_;
  out->taken_at = core_->now();
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

uint64_t EnokiRuntime::ModuleFingerprint(const EnokiSched* module) {
  try {
    return module->VersionFingerprint();
  } catch (...) {
    return 0;  // unknown saver: matches any generation
  }
}

void EnokiRuntime::AppendRestoreLog(const char* verdict, const Checkpoint& ck,
                                    const char* reason) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "t=%" PRIu64 " %s seq=%" PRIu64 " v=%u taken=%" PRIu64 " %s",
                static_cast<uint64_t>(core_->now()), verdict, ck.sequence, ck.state_version,
                static_cast<uint64_t>(ck.taken_at), reason);
  restore_log_ += buf;
  restore_log_ += '\n';
}

bool EnokiRuntime::RestoreFromCheckpoint(EnokiSched* module) {
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
    last_restore_age_ns_ = core_->now() - ck.taken_at;
    AppendRestoreLog("restore", ck, "");
    CallRecord e{.type = RecordType::kCheckpointRestore};
    e.arg[0] = ck.sequence;
    e.arg[1] = last_restore_depth_;
    e.arg[2] = last_restore_depth_ - 1;  // generations skipped on the way
    Record(e);
    return true;
  }
  ENOKI_WARN("enoki: checkpoint ring exhausted after %" PRIu64 " generations; starting fresh",
             last_restore_depth_);
  Checkpoint none;
  AppendRestoreLog("fresh", none, "reason=ring-exhausted");
  return false;
}

uint64_t EnokiRuntime::Reinject(Duration* pause) {
  uint64_t injected = 0;
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    queued_[cpu].ForEach([&](uint64_t pid) {
      Task* t = core_->FindTask(pid);
      // A trip raised by an earlier wakeup takes the module offline; the
      // rest stay queued for the rung that trip chose.
      if (t == nullptr || t->state() != TaskState::kRunnable || ModuleOffline()) {
        return;
      }
      // Runtime-driven, so it does not count toward a probation window.
      HandToken(t, cpu, RecordType::kTaskWakeup, &EnokiSched::TaskWakeup, "reinject_wakeup",
                /*probation_call=*/false);
      ++injected;
    });
  }
  *pause += static_cast<Duration>(injected) * core_->costs().restore_pertask_ns;
  ChargeAllCpus(*pause);
  return injected;
}

Duration EnokiRuntime::ReinstallModule(std::unique_ptr<EnokiSched> module, Duration pause,
                                       const char* what) {
  const bool restart = state_ == SlotState::kRestartPending;
  module_ = std::move(module);  // the replaced module dies here
  // Attach even a reinstalled predecessor: ReregisterPrepare moved its
  // per-CPU structures out, and a failed restore must still leave it with
  // sized (if empty) state rather than a hollow shell.
  module_->Attach(this);
  const bool restored = RestoreFromCheckpoint(module_.get());
  CallRecord e;
  if (restart) {
    ++module_restarts_;
    supervisor_->OnRestartComplete(core_->now(), restored);
    BeginProbation(supervisor_->config().probation, SlotState::kRestartProbation);
    e.type = RecordType::kModuleRestart;
    e.arg[0] = restart_attempt_;
  } else {
    ++rollbacks_;
    if (state_ == SlotState::kRollbackPending) {
      Enter(SlotState::kActive);
    }
    e.type = RecordType::kUpgradeRollback;
  }
  // The module is back online before it sees its tasks, so a trip raised
  // by a re-injected wakeup walks the ladder from the state just entered.
  const uint64_t reinjected = Reinject(&pause);
  e.arg[restart ? 1 : 0] = restored ? 1 : 0;
  e.arg[restart ? 2 : 1] = reinjected;
  Record(e);
  ENOKI_WARN("enoki: %s (restored=%d, %" PRIu64 " tasks re-injected, pause %" PRIu64 "ns)", what,
             restored ? 1 : 0, reinjected, static_cast<uint64_t>(pause));
  KickAllCpus();
  return pause;
}

void EnokiRuntime::BeginProbation(const ProbationConfig& cfg, SlotState state) {
  ENOKI_CHECK(watchdog_ != nullptr);
  Enter(state);
  probation_calls_seen_ = 0;
  watchdog_->BeginProbation(cfg);
  if (cfg.window_ns > 0) {
    core_->loop().ScheduleAfter(cfg.window_ns, [this, epoch = recovery_epoch_] {
      if (epoch == recovery_epoch_) {
        CommitProbation();
      }
    });
  }
}

void EnokiRuntime::CommitProbation() {
  ENOKI_CHECK(in_probation());
  Enter(SlotState::kActive);  // also cancels the probation window timer
  incoming_fingerprint_ = 0;
  prev_module_.reset();  // the predecessor stops being a rollback target
  // The module proved itself: its current state becomes the newest
  // generation on the ring.
  Checkpoint ck;
  if (TakeCheckpoint(module_.get(), &ck)) {
    core_->ChargeCpu(0, core_->costs().checkpoint_save_ns);
    checkpoints_.Push(std::move(ck));
  }
  if (supervisor_ != nullptr) {
    supervisor_->OnHealthy(core_->now());
  }
}

void EnokiRuntime::PerformRollback() {
  if (DeferWhileSwitching(&EnokiRuntime::PerformRollback)) {
    return;
  }
  incoming_fingerprint_ = 0;
  // The predecessor is trusted: the condemned module's strikes die with it.
  watchdog_->ResetCounters();
  ReinstallModule(std::move(prev_module_), SwapPause(core_->costs().upgrade_swap_ns),
                  "rolled back to checkpointed predecessor");
}

void EnokiRuntime::PerformRestart() {
  if (DeferWhileSwitching(&EnokiRuntime::PerformRestart)) {
    return;
  }
  std::unique_ptr<EnokiSched> fresh = supervisor_->MakeModule();
  ENOKI_CHECK(fresh != nullptr);
  // A factory-fresh instance never saw CreateHintQueue: re-register every
  // existing queue id so hints keep flowing after the restart.
  for (size_t qid = 0; qid < user_queues_.size(); ++qid) {
    fresh->RegisterQueue(static_cast<int>(qid));
  }
  for (size_t qid = 0; qid < rev_queues_.size(); ++qid) {
    fresh->RegisterReverseQueue(static_cast<int>(qid));
  }
  // Fresh instance, fresh strikes.
  watchdog_->ResetCounters();
  ReinstallModule(std::move(fresh), SwapPause(core_->costs().module_restart_ns),
                  "supervised restart complete; entering probation");
}

void EnokiRuntime::KickAllCpus() {
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    core_->KickCpu(cpu);
  }
}

void EnokiRuntime::OnTaskStarved(Task* t, Duration runnable_ns) {
  if (watchdog_ == nullptr || ModuleOffline()) {
    return;
  }
  if (watchdog_->OnStarvation(t->pid(), runnable_ns) != TripReason::kNone) {
    TripWatchdog(TripReason::kStarvation, "pid " + std::to_string(t->pid()) + " runnable for " +
                                              std::to_string(runnable_ns) + "ns");
  }
}

void EnokiRuntime::DrainHintQueues() {
  for (const auto& queue : user_queues_) {
    std::optional<HintBlob> hint;
    while (!ModuleOffline() && (hint = queue->Pop()).has_value()) {
      const CallRecord e = EncodeHint<CallRecord>(RecordType::kParseHint, *hint);
      Notify(-1, &e, "parse_hint", [&] { module_->ParseHint(*hint); });
    }
  }
}

int EnokiRuntime::SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) {
  const int home = prev_cpu >= 0 ? prev_cpu : 0;
  const int safe = t->affinity().Test(home) ? home : t->affinity().First();
  if (!DrainHints()) {
    return safe;
  }
  SetCurrentKthread(home);
  TaskMessage msg = MakeMsg(t, prev_cpu, wake_sync);
  msg.is_new = is_new;
  const CallRecord e = EncodeTask<CallRecord>(RecordType::kSelectTaskRq, msg);
  int cpu = -1;
  if (!Query(home, e, "select_task_rq", [&] {
        cpu = module_->SelectTaskRq(msg);
        return static_cast<uint64_t>(cpu);
      })) {
    return safe;
  }
  if (cpu < 0 || cpu >= core_->ncpus() || !t->affinity().Test(cpu)) {
    ENOKI_DEBUG("enoki: module chose invalid cpu %d for pid %llu", cpu,
               static_cast<unsigned long long>(t->pid()));
    return safe;
  }
  return cpu;
}

void EnokiRuntime::EnqueueTask(int cpu, Task* t, bool wakeup) {
  queued_[cpu].insert(t->pid());
  if (ModuleOffline()) {
    // The quarantined module sees nothing. Tasks that reach this class after
    // the fallback sweep (freshly created with its policy, or woken from a
    // long block) are handed to the fallback class at the next event
    // boundary; until then the nullptr pick keeps them parked here.
    if (fallback_done()) {
      const uint64_t pid = t->pid();
      core_->loop().ScheduleAfter(0, [this, pid] {
        Task* late = core_->FindTask(pid);
        if (late != nullptr && late->sched_class() == this && late->state() != TaskState::kDead) {
          core_->SetTaskPolicy(late, fallback_policy_);
        }
      });
    }
    return;
  }
  // If the callback throws, the freshly minted token dies in the unwind and
  // the module may never learn of the task — the classic lost-wakeup bug.
  // The starvation detector is what rescues the task in that case.
  if (wakeup) {
    HandToken(t, cpu, RecordType::kTaskWakeup, &EnokiSched::TaskWakeup, "task_wakeup");
  } else {
    HandToken(t, cpu, RecordType::kTaskNew, &EnokiSched::TaskNew, "task_new");
  }
}

void EnokiRuntime::DequeueTask(int cpu, Task* t, DequeueReason reason) {
  if (running_[cpu] == t->pid()) {
    running_[cpu] = 0;
  } else {
    queued_[cpu].erase(t->pid());
  }
  // Invalidate any token the module still holds for this task.
  ++t->token_generation_;
  if (ModuleOffline()) {
    return;
  }
  SetCurrentKthread(cpu);
  const TaskMessage msg = MakeMsg(t, cpu);
  switch (reason) {
    case DequeueReason::kBlocked: {
      const CallRecord e = EncodeTask<CallRecord>(RecordType::kTaskBlocked, msg);
      Notify(cpu, &e, "task_blocked", [&] { module_->TaskBlocked(msg); });
      break;
    }
    case DequeueReason::kDead: {
      const CallRecord e = EncodeCpu<CallRecord>(RecordType::kTaskDead, cpu, msg.pid, msg.runtime);
      Notify(cpu, &e, "task_dead", [&] { module_->TaskDead(t->pid()); });
      break;
    }
    case DequeueReason::kDeparted: {
      CallRecord e = EncodeTask<CallRecord>(RecordType::kTaskDeparted, msg);
      e.has_resp = true;
      uint64_t returned = 0;
      if (!Query(cpu, e, "task_departed", [&] {
            const std::optional<Schedulable> token = module_->TaskDeparted(msg);
            return returned = token.has_value() ? token->pid() : 0;
          })) {
        Record(e);  // a departure that threw is still recorded, with no token
      } else if (returned != t->pid()) {
        ENOKI_WARN("enoki: task_departed returned wrong token for pid %llu",
                   static_cast<unsigned long long>(t->pid()));
      }
      break;
    }
  }
}

Task* EnokiRuntime::PickNextTask(int cpu) {
  if (!DrainHints()) {
    return nullptr;  // cede the CPU to lower classes (the fallback)
  }
  SetCurrentKthread(cpu);
  std::optional<Schedulable> token;
  if (!Query(cpu, EncodeCpu<CallRecord>(RecordType::kPickNextTask, cpu), "pick_next_task", [&] {
        token = module_->PickNextTask(cpu, std::nullopt);
        return token.has_value() ? token->pid() : 0;
      }) ||
      !token.has_value()) {
    return nullptr;  // a thrown pick is an idle pick
  }
  Task* t = nullptr;
  if (!ValidateForRun(*token, cpu, &t)) {
    // The module tried to run a task that is not safely runnable on this
    // CPU. In Linux this would crash the kernel; Enoki catches it and hands
    // the token back through pnt_err (section 3.1).
    ++pick_errors_;
    core_->CountPickError();
    const CallRecord err = EncodeCpu<CallRecord>(RecordType::kPntErr, cpu, token->pid());
    Notify(cpu, &err, "pnt_err", [&] { module_->PntErr(cpu, std::move(token)); });
    if (watchdog_ != nullptr && !quarantined() &&
        watchdog_->OnPickError() != TripReason::kNone) {
      TripWatchdog(TripReason::kPickErrors, "repeated pick_next_task validation failures");
    }
    return nullptr;
  }
  // Consume the proof: the token the module returned is spent.
  ++t->token_generation_;
  queued_[cpu].erase(t->pid());
  running_[cpu] = t->pid();
  return t;
}

void EnokiRuntime::TaskPreempted(int cpu, Task* t) {
  if (Requeue(cpu, t)) {
    HandToken(t, cpu, RecordType::kTaskPreempt, &EnokiSched::TaskPreempt, "task_preempt");
  }
}

void EnokiRuntime::TaskYielded(int cpu, Task* t) {
  if (Requeue(cpu, t)) {
    HandToken(t, cpu, RecordType::kTaskYield, &EnokiSched::TaskYield, "task_yield");
  }
}

bool EnokiRuntime::Requeue(int cpu, Task* t) {
  if (running_[cpu] == t->pid()) {
    running_[cpu] = 0;
  }
  queued_[cpu].insert(t->pid());
  return !ModuleOffline();
}

void EnokiRuntime::TaskTick(int cpu, Task* t) {
  // enter_queue: hints are also drained on the tick path so they stay
  // timely even when no scheduling decisions are pending.
  if (!DrainHints()) {
    return;
  }
  SetCurrentKthread(cpu);
  const Duration runtime = core_->TaskRuntime(t);
  const CallRecord e = EncodeCpu<CallRecord>(RecordType::kTaskTick, cpu, t->pid(), runtime);
  Notify(cpu, &e, "task_tick", [&] { module_->TaskTick(cpu, t->pid(), runtime); });
}

bool EnokiRuntime::Balance(int cpu) {
  if (ModuleOffline()) {
    return false;
  }
  SetCurrentKthread(cpu);
  std::optional<uint64_t> pid;
  if (!Query(cpu, EncodeCpu<CallRecord>(RecordType::kBalance, cpu), "balance", [&] {
        pid = module_->Balance(cpu);
        return pid.value_or(0);
      }) ||
      !pid.has_value()) {
    return false;
  }
  Task* t = core_->FindTask(*pid);
  // An offer can fail for two very different reasons: the task is genuinely
  // not movable (dead, not runnable, wrong queue, affinity) — a module bug —
  // or its CPU already has a wakeup dispatch in flight, which is a benign
  // race any correct module can lose. Only the former feeds the watchdog.
  const bool valid_offer = t != nullptr && t->state() == TaskState::kRunnable && t->cpu() != cpu &&
                           queued_[t->cpu()].contains(*pid) && t->affinity().Test(cpu);
  const bool movable = valid_offer && !core_->CpuKickPending(t->cpu());
  if (!movable) {
    ++balance_errors_;
    const CallRecord err = EncodeCpu<CallRecord>(RecordType::kBalanceErr, cpu, *pid);
    Notify(cpu, &err, "balance_err", [&] { module_->BalanceErr(cpu, *pid, std::nullopt); });
    if (!valid_offer && watchdog_ != nullptr && !quarantined() &&
        watchdog_->OnBalanceError() != TripReason::kNone) {
      TripWatchdog(TripReason::kBalanceErrors, "repeated balance validation failures");
    }
    return false;
  }
  const int from = t->cpu();
  queued_[from].erase(*pid);
  const MigrateMessage mig{
      .pid = *pid, .from_cpu = from, .to_cpu = cpu, .runtime = core_->TaskRuntime(t)};
  const CallRecord me = EncodeMigrate<CallRecord>(RecordType::kMigrateTaskRq, mig);
  uint64_t returned = 0;
  if (!Query(cpu, me, "migrate_task_rq", [&] {
        return returned = module_->MigrateTaskRq(mig, Mint(t, cpu)).pid();
      })) {
    // The migration never happened: put the bookkeeping back. Any token the
    // module still holds is stale (Mint bumped the generation), so a later
    // pick of this pid bounces through pnt_err until the module recovers.
    queued_[from].insert(*pid);
    return false;
  }
  if (returned != *pid) {
    // Best-effort check: the paper notes the old token cannot be fully
    // validated (section 3.1).
    ENOKI_WARN("enoki: migrate_task_rq returned unexpected token for pid %llu",
               static_cast<unsigned long long>(*pid));
  }
  core_->MoveQueuedTask(t, cpu);
  queued_[cpu].insert(*pid);
  return true;
}

void EnokiRuntime::TimerFired(int cpu) {
  if (ModuleOffline()) {
    return;
  }
  SetCurrentKthread(cpu);
  const CallRecord e = EncodeCpu<CallRecord>(RecordType::kTimerFired, cpu);
  Notify(cpu, &e, "timer_fired", [&] { module_->TimerFired(cpu); });
}

void EnokiRuntime::AffinityChanged(Task* t) {
  if (ModuleOffline()) {
    return;
  }
  const CallRecord e =
      EncodePidMask<CallRecord>(RecordType::kAffinityChanged, t->pid(), t->affinity());
  Notify(t->cpu(), &e, "affinity_changed",
         [&] { module_->TaskAffinityChanged(t->pid(), t->affinity()); });
}

void EnokiRuntime::PrioChanged(Task* t) {
  if (ModuleOffline()) {
    return;
  }
  const CallRecord e = EncodePidNice<CallRecord>(RecordType::kPrioChanged, t->pid(), t->nice());
  Notify(t->cpu(), &e, "prio_changed", [&] { module_->TaskPrioChanged(t->pid(), t->nice()); });
}

void EnokiRuntime::ArmTimer(int cpu, Duration delay) {
  core_->ChargeCpu(cpu, core_->costs().timer_arm_ns);
  core_->ArmClassTimer(cpu, delay, this);
}

void EnokiRuntime::BusyWait(int cpu, Duration d) {
  if (cpu < 0 || cpu >= core_->ncpus()) {
    cpu = 0;
  }
  core_->ChargeCpu(cpu, d);
  callback_busy_ns_ += d;
}

void EnokiRuntime::PushRevHint(int queue_id, const HintBlob& hint) {
  ENOKI_CHECK(queue_id >= 0 && queue_id < static_cast<int>(rev_queues_.size()));
  rev_queues_[queue_id]->Push(hint);
}

int EnokiRuntime::CreateHintQueue(size_t capacity) {
  // The API accepts any requested size; the ring itself requires a power of
  // two, so round up here (matching the kernel module's behaviour).
  user_queues_.push_back(std::make_unique<HintQueue>(HintQueue::RoundUpPow2(capacity)));
  const int id = static_cast<int>(user_queues_.size()) - 1;
  module_->RegisterQueue(id);
  return id;
}

int EnokiRuntime::CreateRevQueue(size_t capacity) {
  rev_queues_.push_back(std::make_unique<HintQueue>(HintQueue::RoundUpPow2(capacity)));
  const int id = static_cast<int>(rev_queues_.size()) - 1;
  module_->RegisterReverseQueue(id);
  return id;
}

bool EnokiRuntime::SendHint(int queue_id, const HintBlob& hint, int cpu) {
  ENOKI_CHECK(queue_id >= 0 && queue_id < static_cast<int>(user_queues_.size()));
  if (cpu >= 0) {
    core_->ChargeCpu(cpu, core_->costs().hint_write_ns);
  }
  const bool ok = user_queues_[queue_id]->Push(hint);
  // enter_queue: the write side kicks the kernel so the hint is parsed at
  // the next scheduler entry even on an otherwise quiet system.
  core_->loop().ScheduleAfter(core_->costs().hint_write_ns, [this] { DrainHints(); });
  return ok;
}

std::optional<HintBlob> EnokiRuntime::PollRevHint(int queue_id) {
  ENOKI_CHECK(queue_id >= 0 && queue_id < static_cast<int>(rev_queues_.size()));
  return rev_queues_[queue_id]->Pop();
}

UpgradeReport EnokiRuntime::Upgrade(std::unique_ptr<EnokiSched> next) {
  UpgradeReport report;
  TransferState state;
  if (!AdmitUpgrade(next.get(), &report) || !Quiesce(&state, &report)) {
    return report;
  }
  // The pause: the write-locked quiesce's reader drain (one in-flight call
  // per CPU), the prepare/init calls, the pointer swap and the checkpoint.
  const SimCosts& costs = core_->costs();
  const Duration pause = SwapPause(costs.upgrade_swap_ns + 2 * costs.enoki_call_ns) +
                         (report.checkpointed ? costs.checkpoint_save_ns : 0);
  // Probe whether the incoming module actually adopts the transferred state.
  // A cross-policy upgrade names a different transfer type, so Take() fails,
  // the carried Schedulable tokens die with the transfer, and the commit path
  // must re-inject queued tasks as fresh wakeups or they strand forever.
  std::shared_ptr<bool> consumed = state.AttachConsumptionProbe();
  std::unique_ptr<EnokiSched> outgoing = std::move(module_);
  std::string what;
  if (SwapIn(std::move(next), std::move(state), &what)) {
    CommitUpgrade(std::move(outgoing), pause, *consumed, &report);
  } else {
    AbortUpgrade(std::move(outgoing), pause, what, &report);
  }
  return report;
}

bool EnokiRuntime::AdmitUpgrade(const EnokiSched* next, UpgradeReport* report) {
  // Every refusal comes before any quiesce attempt: no pause is charged and
  // the upgrade counter is untouched.
  const char* refusal = next == nullptr   ? "null module"
                        : ModuleOffline() ? "module quarantined by watchdog; upgrade refused"
                        : in_probation()  ? "previous upgrade still in probation; upgrade refused"
                                          : nullptr;
  if (refusal != nullptr) {
    report->error = refusal;
    return false;
  }
  // Flap damping: a fingerprint that keeps failing probation is refused
  // outright until the rolling window drains — no chance to churn the
  // module slot a fourth time.
  const uint64_t fp = ModuleFingerprint(next);
  report->incoming_fingerprint = fp;
  const Time now = core_->now();
  std::erase_if(flap_failures_, [&](auto& f) { return now - f.second > kFlapWindowNs; });
  const uint64_t flaps = static_cast<uint64_t>(std::count_if(
      flap_failures_.begin(), flap_failures_.end(), [&](auto& f) { return f.first == fp; }));
  if (fp == 0 || flaps < kFlapMaxFailures) {
    return true;
  }
  ++fingerprint_refusals_;
  report->error = "incoming fingerprint flapping (" + std::to_string(flaps) +
                  " probation failures in window); upgrade refused";
  report->refused_flapping = true;
  return false;
}

bool EnokiRuntime::Quiesce(TransferState* state, UpgradeReport* report) {
  // Checkpoint the outgoing module *before* ReregisterPrepare disturbs its
  // state: if the incoming module fails init or probation, this snapshot is
  // what the transaction rolls back to.
  Checkpoint ck;
  report->checkpointed = TakeCheckpoint(module_.get(), &ck);
  try {
    *state = module_->ReregisterPrepare();
  } catch (const std::exception& ex) {
    // The old module would not quiesce: it stays installed and keeps
    // running; no pause is charged because the write lock was released
    // without a handoff.
    report->error = std::string("module refused to quiesce: ") + ex.what();
    return false;
  }
  if (report->checkpointed) {
    checkpoints_.Push(std::move(ck));  // what an abort or a rollback restores
  }
  return true;
}

bool EnokiRuntime::SwapIn(std::unique_ptr<EnokiSched> next, TransferState state,
                          std::string* what) {
  next->Attach(this);
  module_ = std::move(next);
  try {
    module_->ReregisterInit(std::move(state));
  } catch (const std::exception& ex) {
    *what = ex.what();
    return false;
  }
  return true;
}

void EnokiRuntime::AbortUpgrade(std::unique_ptr<EnokiSched> outgoing, Duration pause,
                                const std::string& what, UpgradeReport* report) {
  if (report->checkpointed) {
    // Transaction abort: reinstall the outgoing module and restore the
    // accounting state snapshotted before prepare. Queued tasks are
    // re-injected as wakeups so nothing is lost; the broken incoming module
    // dies having never owned a task. The rejection counts against the
    // incoming fingerprint just like a probation trip would: it is the same
    // "this build cannot take the slot" signal, one rung earlier.
    flap_failures_.emplace_back(report->incoming_fingerprint, core_->now());
    report->error = "new module rejected transferred state; rolled back: " + what;
    report->rolled_back = true;
    report->pause_ns =
        ReinstallModule(std::move(outgoing), pause, "upgrade aborted, rolled back to predecessor");
    return;
  }
  // Legacy (non-checkpointable module) path: the swap already happened and
  // the old module's state is gone. The new module is installed but broken.
  // With a watchdog this is a containment event (quarantine + fallback, zero
  // task loss); without one the caller only gets the error.
  report->error = "new module rejected transferred state: " + what;
  report->pause_ns = pause;
  ++escaped_exceptions_;
  ChargeAllCpus(pause);
  ENOKI_WARN("enoki: upgrade failed after swap: %s", report->error.c_str());
  if (watchdog_ != nullptr) {
    TripWatchdog(TripReason::kUpgradeFailure, report->error);
  }
}

void EnokiRuntime::CommitUpgrade(std::unique_ptr<EnokiSched> outgoing, Duration pause,
                                 bool consumed, UpgradeReport* report) {
  ++upgrades_;
  // Every CPU's next scheduling operation is delayed by the blackout.
  ChargeAllCpus(pause);
  report->ok = true;
  report->pause_ns = pause;
  CallRecord e{.type = RecordType::kUpgrade};
  e.arg[0] = upgrades_;
  e.arg[1] = report->checkpointed ? 1 : 0;
  Record(e);
  if (report->checkpointed && watchdog_ != nullptr) {
    // Probation: the outgoing module stays parked as the rollback target
    // until the incoming one survives a window under the incoming policy's
    // own DefaultProbation() budgets — a central dispatcher and a
    // work-stealing balancer do not false-positive on the same thresholds.
    prev_module_ = std::move(outgoing);
    incoming_fingerprint_ = report->incoming_fingerprint;
    ProbationConfig probation;
    try {
      probation = module_->DefaultProbation();
    } catch (...) {
      probation = ProbationConfig{};
    }
    BeginProbation(probation, SlotState::kUpgradeProbation);
  }
  if (!consumed) {
    // The incoming module did not take the transfer (different policy, or
    // the outgoing module exported nothing): every token it carried is gone.
    // Re-inject the queued tasks with freshly minted tokens, as a reinstall
    // does. Runs after probation is armed so a successor that trips the
    // watchdog here is contained by the normal probation rollback.
    Duration restore = 0;
    if (Reinject(&restore) > 0) {
      report->pause_ns += restore;
      KickAllCpus();
    }
  }
}

void AttachShardMergeRecorder(ShardedEventLoop& engine, Recorder* recorder) {
  ENOKI_CHECK(recorder != nullptr);
  engine.set_merge_observer(
      [recorder](Time deliver_at, int src, int dst, uint64_t seq) {
        RecordEntry e;
        e.type = RecordType::kShardMerge;
        e.arg[0] = deliver_at;
        e.arg[1] = static_cast<uint64_t>(src);
        e.arg[2] = static_cast<uint64_t>(dst);
        e.arg[3] = seq;
        // Stamp with the message's simulated delivery time: commits happen
        // at epoch barriers, outside any core's call context, so the
        // runtime's usual pre-call SetTime has not run here.
        recorder->SetTime(deliver_at);
        recorder->Append(e);
      });
}

}  // namespace enoki

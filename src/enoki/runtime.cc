#include "src/enoki/runtime.h"

#include <utility>

#include "src/base/log.h"
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

void EnokiRuntime::AppendToRecorder(RecordType type, int cpu, uint64_t pid, uint64_t runtime,
                                    uint64_t arg0, uint64_t arg1, uint64_t arg2, uint64_t arg3,
                                    uint64_t resp0, bool has_resp, bool flag) {
  recorder_->SetTime(core_->now());
  recorder_->Append(RecordEntry{.type = type, .pid = pid, .cpu = cpu, .runtime = runtime,
                                .arg = {arg0, arg1, arg2, arg3}, .resp0 = resp0,
                                .has_resp = has_resp, .flag = flag});
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
  } else {
    StampRecorder();
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
  const Duration lat = core_->costs().enoki_call_ns + std::exchange(callback_busy_ns_, 0);
  ladder_.OnCallReturn(site, lat, probation_call);
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
  callback_busy_ns_ = 0;
  if (!ladder_.OnEscape(site, what)) {
    throw;  // containment off: the exception keeps its pre-watchdog behavior
  }
}

void EnokiRuntime::ChargeAllCpus(Duration d) {
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    core_->ChargeCpu(cpu, d);
  }
}

void EnokiRuntime::KickAllCpus() {
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    core_->KickCpu(cpu);
  }
}

uint64_t EnokiRuntime::Reinject(Duration* pause) {
  uint64_t injected = 0;
  for (int cpu = 0; cpu < core_->ncpus(); ++cpu) {
    queued_[cpu].ForEach([&](uint64_t pid) {
      Task* t = core_->FindTask(pid);
      // A trip raised by an earlier wakeup takes the module offline; the
      // rest stay queued for the rung that trip chose.
      if (t == nullptr || t->state() != TaskState::kRunnable || ladder_.offline()) {
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

void EnokiRuntime::OnTaskStarved(Task* t, Duration runnable_ns) {
  ladder_.Strike(
      TripReason::kStarvation,
      [&] {
        return "pid " + std::to_string(t->pid()) + " runnable for " +
               std::to_string(runnable_ns) + "ns";
      },
      t->pid());
}

void EnokiRuntime::DrainHintQueues() {
  for (const auto& queue : user_queues_) {
    std::optional<HintBlob> hint;
    while (!ladder_.offline() && (hint = queue->Pop()).has_value()) {
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
  if (ladder_.offline()) {
    // The offline module sees nothing. Tasks that reach this class after the
    // fallback sweep (freshly created with its policy, or woken from a long
    // block) go to the fallback class.
    ladder_.ParkOffline(t);
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
  if (ladder_.offline()) {
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
    ladder_.Strike(TripReason::kPickErrors,
                   [] { return "repeated pick_next_task validation failures"; });
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
  return !ladder_.offline();
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
  if (ladder_.offline()) {
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
    if (!valid_offer) {
      ladder_.Strike(TripReason::kBalanceErrors,
                     [] { return "repeated balance validation failures"; });
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
  if (ladder_.offline()) {
    return;
  }
  SetCurrentKthread(cpu);
  const CallRecord e = EncodeCpu<CallRecord>(RecordType::kTimerFired, cpu);
  Notify(cpu, &e, "timer_fired", [&] { module_->TimerFired(cpu); });
}

void EnokiRuntime::AffinityChanged(Task* t) {
  if (ladder_.offline()) {
    return;
  }
  const CallRecord e =
      EncodePidMask<CallRecord>(RecordType::kAffinityChanged, t->pid(), t->affinity());
  Notify(t->cpu(), &e, "affinity_changed",
         [&] { module_->TaskAffinityChanged(t->pid(), t->affinity()); });
}

void EnokiRuntime::PrioChanged(Task* t) {
  if (ladder_.offline()) {
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

#include "src/fault/injector.h"

#include "src/base/check.h"

namespace enoki {

FaultInjector::FaultInjector(std::unique_ptr<EnokiSched> inner, FaultPlan plan)
    : inner_(std::move(inner)),
      plan_(plan),
      rng_(plan.seed),
      save_rng_(plan.seed ^ 0x2545f4914f6cdd1dull) {
  ENOKI_CHECK(inner_ != nullptr);
}

void FaultInjector::Attach(EnokiKernelEnv* env) {
  EnokiSched::Attach(env);
  inner_->Attach(env);
}

int FaultInjector::GetPolicy() const { return inner_->GetPolicy(); }

void FaultInjector::MaybeThrow(const char* site) {
  if (Chance(plan_.throw_rate)) {
    ++counts_.throws;
    throw InjectedFault(site);
  }
}

void FaultInjector::MaybeBusySpin(int cpu) {
  if (Chance(plan_.busy_spin_rate)) {
    ++counts_.busy_spins;
    env_->BusyWait(cpu >= 0 ? cpu : 0, plan_.busy_spin_ns);
  }
}

void FaultInjector::MaybeHintFlood() {
  if (rev_queue_ >= 0 && Chance(plan_.hint_flood_rate)) {
    ++counts_.hint_floods;
    HintBlob blob;
    for (int i = 0; i < plan_.hint_flood_burst; ++i) {
      blob.w[0] = static_cast<uint64_t>(i);
      env_->PushRevHint(rev_queue_, blob);
    }
  }
}

void FaultInjector::MaybeMisbehave(const char* site) {
  if (misbehave_left_ > 0) {
    --misbehave_left_;
    ++counts_.probation_misbehaviors;
    throw InjectedFault(std::string("probation: ") + site);
  }
}

void FaultInjector::ReinjectStashed(uint64_t pid) {
  auto it = stashed_.find(pid);
  if (it == stashed_.end()) {
    return;
  }
  Schedulable real = std::move(it->second);
  stashed_.erase(it);
  ++counts_.reinjected;
  TaskMessage msg;
  msg.pid = pid;
  msg.cpu = real.cpu();
  msg.prev_cpu = real.cpu();
  inner_->TaskWakeup(msg, std::move(real));
}

int FaultInjector::SelectTaskRq(const TaskMessage& msg) {
  MaybeMisbehave("select_task_rq");
  MaybeThrow("select_task_rq");
  MaybeBusySpin(msg.prev_cpu);
  return inner_->SelectTaskRq(msg);
}

std::optional<Schedulable> FaultInjector::PickNextTask(int cpu,
                                                       std::optional<Schedulable> curr) {
  MaybeMisbehave("pick_next_task");
  MaybeThrow("pick_next_task");
  MaybeBusySpin(cpu);
  // Double return, phase 2: hand back a proof that was already consumed.
  if (!replay_tokens_.empty() && Chance(plan_.double_return_rate)) {
    ++counts_.double_returns;
    Schedulable dup = std::move(replay_tokens_.back().second);
    replay_tokens_.pop_back();
    return dup;
  }
  auto token = inner_->PickNextTask(cpu, std::move(curr));
  if (!token.has_value()) {
    return token;
  }
  const uint64_t pid = token->pid();
  const uint64_t generation = SchedulableMinter::Generation(*token);
  if (Chance(plan_.stale_token_rate)) {
    ++counts_.stale_tokens;
    stashed_.insert_or_assign(pid, std::move(*token));
    return SchedulableMinter::Mint(pid, cpu, generation - 1);
  }
  if (Chance(plan_.wrong_cpu_token_rate)) {
    ++counts_.wrong_cpu_tokens;
    stashed_.insert_or_assign(pid, std::move(*token));
    return SchedulableMinter::Mint(pid, (cpu + 1) % env_->NumCpus(), generation);
  }
  if (Chance(plan_.double_return_rate)) {
    // Double return, phase 1: keep an identical proof for a later replay.
    // The real token is consumed by this pick, so the clone is stale by the
    // time phase 2 returns it.
    replay_tokens_.emplace_back(pid, SchedulableMinter::Mint(pid, cpu, generation));
  }
  return token;
}

void FaultInjector::PntErr(int cpu, std::optional<Schedulable> sched) {
  // A forged token bounced. If we held back the real proof for this pid,
  // hand it to the inner module as a wakeup so the task recovers; the inner
  // module only sees a spurious (but valid) re-enqueue.
  if (sched.has_value()) {
    const uint64_t pid = sched->pid();
    if (stashed_.count(pid) > 0) {
      ReinjectStashed(pid);
      return;
    }
  }
  inner_->PntErr(cpu, std::move(sched));
}

void FaultInjector::TaskDead(uint64_t pid) {
  stashed_.erase(pid);
  inner_->TaskDead(pid);
}

void FaultInjector::TaskBlocked(const TaskMessage& msg) { inner_->TaskBlocked(msg); }

void FaultInjector::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  MaybeThrow("task_wakeup");
  if (Chance(plan_.drop_enqueue_rate)) {
    ++counts_.dropped_enqueues;
    return;  // token destroyed: the inner module never learns of the wakeup
  }
  inner_->TaskWakeup(msg, std::move(sched));
}

void FaultInjector::TaskNew(const TaskMessage& msg, Schedulable sched) {
  if (Chance(plan_.drop_enqueue_rate)) {
    ++counts_.dropped_enqueues;
    return;
  }
  inner_->TaskNew(msg, std::move(sched));
}

void FaultInjector::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  inner_->TaskPreempt(msg, std::move(sched));
}

void FaultInjector::TaskYield(const TaskMessage& msg, Schedulable sched) {
  inner_->TaskYield(msg, std::move(sched));
}

std::optional<Schedulable> FaultInjector::TaskDeparted(const TaskMessage& msg) {
  auto it = stashed_.find(msg.pid);
  if (it != stashed_.end()) {
    // The task leaves while its real token is held back: return the stash
    // (likely stale by now; the runtime only warns) and tell the inner
    // module the task died so it drops any bookkeeping.
    Schedulable s = std::move(it->second);
    stashed_.erase(it);
    inner_->TaskDead(msg.pid);
    return s;
  }
  return inner_->TaskDeparted(msg);
}

void FaultInjector::TaskAffinityChanged(uint64_t pid, const CpuMask& mask) {
  inner_->TaskAffinityChanged(pid, mask);
}

void FaultInjector::TaskPrioChanged(uint64_t pid, int nice) {
  inner_->TaskPrioChanged(pid, nice);
}

void FaultInjector::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  MaybeMisbehave("task_tick");
  MaybeThrow("task_tick");
  MaybeBusySpin(cpu);
  MaybeHintFlood();
  inner_->TaskTick(cpu, pid, runtime);
}

void FaultInjector::TimerFired(int cpu) { inner_->TimerFired(cpu); }

int FaultInjector::RegisterQueue(int queue_id) { return inner_->RegisterQueue(queue_id); }

int FaultInjector::RegisterReverseQueue(int queue_id) {
  rev_queue_ = queue_id;
  return inner_->RegisterReverseQueue(queue_id);
}

void FaultInjector::ParseHint(const HintBlob& hint) { inner_->ParseHint(hint); }

std::optional<uint64_t> FaultInjector::Balance(int cpu) {
  MaybeThrow("balance");
  return inner_->Balance(cpu);
}

void FaultInjector::BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) {
  inner_->BalanceErr(cpu, pid, std::move(sched));
}

Schedulable FaultInjector::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
  return inner_->MigrateTaskRq(msg, std::move(sched));
}

TransferState FaultInjector::ReregisterPrepare() {
  if (Chance(plan_.prepare_throw_rate)) {
    ++counts_.prepare_throws;
    throw InjectedFault("reregister_prepare");
  }
  return inner_->ReregisterPrepare();
}

void FaultInjector::ReregisterInit(TransferState state) {
  if (Chance(plan_.init_throw_rate)) {
    ++counts_.init_throws;
    throw InjectedFault("reregister_init");
  }
  inner_->ReregisterInit(std::move(state));
  // Survived the swap: optionally arm early-callback misbehavior so the
  // fault lands inside the new module's probation window.
  if (Chance(plan_.probation_misbehave_rate)) {
    misbehave_left_ = plan_.probation_misbehave_count;
  }
}

}  // namespace enoki

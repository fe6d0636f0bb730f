#include "src/simkernel/sched_core.h"

#include <algorithm>

#include "src/base/log.h"

namespace enoki {

Time SimContext::now() const { return core_->now(); }
int SimContext::cpu() const { return task_->cpu(); }

SchedCore::SchedCore(MachineSpec spec, SimCosts costs)
    : spec_(spec),
      costs_(costs),
      owned_loop_(std::make_unique<EventLoop>()),
      loop_(owned_loop_.get()) {
  Init();
}

SchedCore::SchedCore(MachineSpec spec, SimCosts costs, EventLoop* loop)
    : spec_(spec), costs_(costs), loop_(loop) {
  ENOKI_CHECK(loop != nullptr);
  Init();
}

void SchedCore::Init() {
  ENOKI_CHECK(spec_.ncpus > 0 && spec_.ncpus <= CpuMask::kMaxCpus);
  ENOKI_CHECK(spec_.nodes > 0 && spec_.ncpus % spec_.nodes == 0);
  ENOKI_CHECK(spec_.node_of.empty() ||
              spec_.node_of.size() == static_cast<size_t>(spec_.ncpus));
  ENOKI_CHECK(!spec_.smt_pairs || spec_.ncpus % 2 == 0);
  cpus_.resize(static_cast<size_t>(spec_.ncpus));
  if (spec_.warm_events_per_cpu > 0) {
    // Shard-local slab warming, at construction rather than Start(): task and
    // tenant creation precede Start(), and their wake events must draw from
    // the pre-grown pool too for whole-process prof_event_slabs to stay 0.
    // The hint travels through ShardSpec, so every shard core warms its own
    // loop.
    loop_->WarmSlabs(static_cast<size_t>(spec_.ncpus) *
                     static_cast<size_t>(spec_.warm_events_per_cpu));
  }
}

SchedCore::~SchedCore() = default;

int SchedCore::RegisterClass(SchedClass* cls) {
  ENOKI_CHECK(!started_);
  cls->Attach(this);
  classes_.push_back(cls);
  return static_cast<int>(classes_.size()) - 1;
}

int SchedCore::ClassPriority(const SchedClass* cls) const {
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (classes_[i] == cls) {
      return static_cast<int>(i);
    }
  }
  ENOKI_CHECK_MSG(false, "unregistered scheduling class");
  return -1;
}

void SchedCore::Start() {
  ENOKI_CHECK(!started_);
  started_ = true;
  if (!ticks_enabled_) {
    return;
  }
  for (int cpu = 0; cpu < spec_.ncpus; ++cpu) {
    // Stagger ticks across CPUs so they do not fire in lockstep. The initial
    // delay can reach ~2x tick_ns — possibly past the lane horizon — so it
    // takes no deadline promise; steady-state re-arms (TickFired) do.
    const Duration offset = costs_.tick_ns * static_cast<Duration>(cpu) /
                            static_cast<Duration>(spec_.ncpus);
    cpus_[cpu].tick_event =
        loop_->ScheduleAfter(costs_.tick_ns + offset, [this, cpu] { TickFired(cpu); });
  }
}

bool SchedCore::RunUntilAllExit(Time deadline) {
  while (loop_->now() < deadline && live_tasks_ > 0) {
    if (!loop_->RunOne()) {
      break;
    }
  }
  return live_tasks_ == 0;
}

Task* SchedCore::CreateTask(std::string name, std::unique_ptr<TaskBody> body, int policy,
                            int nice) {
  return CreateTaskOn(std::move(name), std::move(body), policy, nice,
                      CpuMask::All(spec_.ncpus));
}

Task* SchedCore::CreateTaskOn(std::string name, std::unique_ptr<TaskBody> body, int policy,
                              int nice, const CpuMask& affinity) {
  ENOKI_CHECK(policy >= 0 && policy < static_cast<int>(classes_.size()));
  ENOKI_CHECK(nice >= kMinNice && nice <= kMaxNice);
  ENOKI_CHECK(!affinity.Intersect(CpuMask::All(spec_.ncpus)).Empty());
  auto task = std::make_unique<Task>(next_pid_++, std::move(name), std::move(body));
  Task* t = task.get();
  t->policy_ = policy;
  t->sched_class_ = classes_[policy];
  t->nice_ = nice;
  t->affinity_ = affinity.Intersect(CpuMask::All(spec_.ncpus));
  t->cpu_ = t->affinity_.First();
  tasks_.push_back(std::move(task));
  ++live_tasks_;
  WakeTaskInternal(t, /*sync=*/false, /*from_cpu=*/-1, /*is_new=*/true);
  return t;
}

void SchedCore::WakeTaskInternal(Task* t, bool sync, int from_cpu, bool is_new) {
  ENOKI_CHECK(t->state_ == TaskState::kBlocked || t->state_ == TaskState::kCreated);
  t->state_ = TaskState::kRunnable;
  t->last_runnable_at_ = loop_->now();
  t->wake_latency_pending_ = true;
  ++t->wake_count_;

  SchedClass* cls = t->sched_class_;
  int target = cls->SelectTaskRq(t, t->cpu_, sync, is_new);
  if (!t->affinity_.Test(target)) {
    ENOKI_DEBUG("scheduler %s placed pid %llu on disallowed cpu %d; clamping", cls->name(),
               static_cast<unsigned long long>(t->pid()), target);
    target = t->affinity_.First();
  }
  t->cpu_ = target;
  cls->EnqueueTask(target, t, /*wakeup=*/!is_new);

  CpuState& c = cpus_[target];
  if (c.current == nullptr && !c.in_switch) {
    // Waking an idle CPU: pay idle-exit (and IPI when cross-CPU) latency
    // before the pick runs there.
    Duration lat = IdleExitCost(target);
    if (from_cpu >= 0 && from_cpu != target) {
      lat += costs_.ipi_ns;
    }
    if (!c.kick_pending) {
      c.kick_pending = true;
      loop_->ScheduleAfter(lat, [this, target] {
        cpus_[target].kick_pending = false;
        if (cpus_[target].current == nullptr && !cpus_[target].in_switch) {
          Schedule(target);
        }
      });
    }
    return;
  }

  // Busy CPU: wakeup-preemption check. A higher-priority class always
  // preempts; within a class the class decides (check_preempt_wakeup).
  Task* curr = c.current;
  bool preempt = false;
  if (curr != nullptr) {
    const int woken_prio = ClassPriority(cls);
    const int curr_prio = ClassPriority(curr->sched_class_);
    if (woken_prio < curr_prio) {
      preempt = true;
    } else if (woken_prio == curr_prio) {
      preempt = cls->WakeupPreempt(target, curr, t);
    }
  }
  if (preempt) {
    if (curr != nullptr && curr->sched_class_ == cls) {
      // Same-class wakeup preemption takes effect at the next scheduling
      // point (tick, action boundary), as in CFS: "it preempts the current
      // task when a system timer ticks".
      c.need_resched = true;
    } else {
      KickCpu(target, from_cpu);
    }
  }
}

void SchedCore::SetNeedResched(int cpu) { cpus_[cpu].need_resched = true; }

void SchedCore::KickCpu(int cpu, int from_cpu) {
  CpuState& c = cpus_[cpu];
  if (c.current == nullptr && !c.in_switch) {
    Duration lat = IdleExitCost(cpu);
    if (from_cpu >= 0 && from_cpu != cpu) {
      lat += costs_.ipi_ns;
    }
    if (!c.kick_pending) {
      c.kick_pending = true;
      loop_->ScheduleAfter(lat, [this, cpu] {
        cpus_[cpu].kick_pending = false;
        if (cpus_[cpu].current == nullptr && !cpus_[cpu].in_switch) {
          Schedule(cpu);
        }
      });
    }
    return;
  }
  c.need_resched = true;
  const Duration lat = (from_cpu >= 0 && from_cpu != cpu) ? costs_.ipi_ns : 0;
  const Time arrival = loop_->now() + lat;
  if (c.ipi_inflight_at == arrival) {
    // Batched wakeup delivery: a resched IPI arriving at this exact instant
    // is already in flight, and a duplicate would re-run the identical
    // preempt check (need_resched is already set) and no-op. Elide it.
    ++coalesced_ipis_;
    return;
  }
  c.ipi_inflight_at = arrival;
  loop_->ScheduleAfter(lat, [this, cpu, arrival] {
    CpuState& cs = cpus_[cpu];
    if (cs.ipi_inflight_at == arrival) {
      cs.ipi_inflight_at = kTimeMax;
    }
    if (cs.need_resched && cs.current != nullptr && !cs.in_switch) {
      cs.need_resched = false;
      PreemptCurrent(cpu);
    }
  });
}

EventId SchedCore::ArmClassTimer(int cpu, Duration delay, SchedClass* cls) {
  return loop_->ScheduleAfter(delay, [this, cpu, cls] {
    cls->TimerFired(cpu);
    CpuState& c = cpus_[cpu];
    if (c.need_resched && c.current != nullptr && !c.in_switch) {
      c.need_resched = false;
      PreemptCurrent(cpu);
    }
  });
}

Duration SchedCore::IdleExitCost(int cpu) const {
  const CpuState& c = cpus_[cpu];
  if (c.current != nullptr || c.in_switch) {
    return 0;
  }
  const Duration idle_for = loop_->now() - c.idle_since;
  if (idle_for >= costs_.deep_idle_threshold_ns) {
    return costs_.deep_idle_exit_ns;
  }
  if (idle_for >= costs_.medium_idle_threshold_ns) {
    return costs_.medium_idle_exit_ns;
  }
  return costs_.shallow_idle_exit_ns;
}

Task* SchedCore::PickNext(int cpu) {
  for (SchedClass* cls : classes_) {
    if (cls->WantsBalanceBeforePick()) {
      cls->Balance(cpu);
    }
    Task* t = cls->PickNextTask(cpu);
    if (t != nullptr) {
      return t;
    }
  }
  return nullptr;
}

void SchedCore::Schedule(int cpu) {
  CpuState& c = cpus_[cpu];
  ENOKI_CHECK(c.current == nullptr && !c.in_switch);
  c.pending_charge += costs_.pick_path_ns;
  Task* next = PickNext(cpu);
  // Affinity is a core-enforced invariant: a task picked for a CPU its mask
  // no longer allows (e.g. the mask changed while it was queued or running)
  // is pushed to an allowed CPU instead of dispatched here.
  while (next != nullptr && !next->affinity_.Test(cpu)) {
    const int target = next->affinity_.First();
    next->cpu_ = target;
    next->sched_class_->TaskPreempted(target, next);
    KickCpu(target, cpu);
    next = PickNext(cpu);
  }
  if (next == nullptr) {
    c.idle_since = loop_->now();
    c.pending_charge = 0;
    return;
  }
  Dispatch(cpu, next);
}

void SchedCore::Dispatch(int cpu, Task* next) {
  CpuState& c = cpus_[cpu];
  ENOKI_CHECK(next->state_ == TaskState::kRunnable);
  c.in_switch = true;
  ++context_switches_;
  const Duration lat = costs_.context_switch_ns + TakeCharge(cpu);
  loop_->ScheduleAfter(lat, [this, cpu, next] { FinishSwitch(cpu, next); });
}

void SchedCore::FinishSwitch(int cpu, Task* next) {
  CpuState& c = cpus_[cpu];
  ENOKI_CHECK(c.in_switch);
  c.in_switch = false;
  ENOKI_CHECK(next->state_ == TaskState::kRunnable);
  c.current = next;
  next->state_ = TaskState::kRunning;
  next->cpu_ = cpu;
  next->run_segment_start_ = loop_->now();
  next->starvation_flagged_ = false;  // got the CPU: new runnable episode
  ++next->switch_in_count_;
  if (next->wake_latency_pending_) {
    next->wake_latency_pending_ = false;
    const Duration lat = loop_->now() - next->last_runnable_at_;
    wake_latency_.Record(lat);
    if (wake_latency_hook_) {
      wake_latency_hook_(next, lat);
    }
  }
  if (!next->started_) {
    next->started_ = true;
    SimContext ctx(this, next);
    next->body_->OnStart(ctx);
  }
  RunCurrent(cpu);
}

void SchedCore::RunCurrent(int cpu) {
  CpuState& c = cpus_[cpu];
  while (true) {
    Task* t = c.current;
    ENOKI_CHECK(t != nullptr && t->state_ == TaskState::kRunning);
    if (c.need_resched) {
      c.need_resched = false;
      PreemptCurrent(cpu);
      return;
    }
    if (t->remaining_compute_ > 0) {
      t->compute_started_at_ = loop_->now();
      t->compute_event_ =
          loop_->ScheduleAfter(t->remaining_compute_, [this, cpu, t] { OnComputeDone(cpu, t); });
      return;
    }
    SimContext ctx(this, t);
    const Action a = t->body_->NextAction(ctx);
    switch (a.kind) {
      case Action::Kind::kCompute:
        t->remaining_compute_ = std::max<Duration>(a.duration, 1);
        break;
      case Action::Kind::kWake:
        DoWake(a.wq, a.wake_sync, cpu);
        // The wake path runs in the waker's context: charge the syscall plus
        // any scheduler-path overhead accrued during the wake.
        t->remaining_compute_ += costs_.wake_syscall_ns + TakeCharge(cpu);
        break;
      case Action::Kind::kBlock:
        if (a.wq->TryConsumeSignal()) {
          // Data already available: the "read" returns without sleeping.
          t->remaining_compute_ += costs_.block_syscall_ns;
          break;
        }
        BlockCurrent(cpu, a.wq);
        return;
      case Action::Kind::kSleep:
        SleepCurrent(cpu, a.duration);
        return;
      case Action::Kind::kYield:
        YieldCurrent(cpu);
        return;
      case Action::Kind::kExit:
        ExitCurrent(cpu);
        return;
    }
  }
}

void SchedCore::OnComputeDone(int cpu, Task* t) {
  ENOKI_CHECK(cpus_[cpu].current == t);
  t->compute_event_ = kInvalidEventId;
  t->remaining_compute_ = 0;
  RunCurrent(cpu);
}

void SchedCore::StopCompute(Task* t) {
  if (t->compute_event_ != kInvalidEventId) {
    loop_->Cancel(t->compute_event_);
    t->compute_event_ = kInvalidEventId;
    const Duration elapsed = loop_->now() - t->compute_started_at_;
    t->remaining_compute_ -= std::min(t->remaining_compute_, elapsed);
  }
}

void SchedCore::AccrueRuntime(Task* t) {
  t->total_runtime_ += loop_->now() - t->run_segment_start_;
  t->run_segment_start_ = loop_->now();
}

void SchedCore::PreemptCurrent(int cpu) {
  CpuState& c = cpus_[cpu];
  Task* t = c.current;
  ENOKI_CHECK(t != nullptr);
  StopCompute(t);
  AccrueRuntime(t);
  t->state_ = TaskState::kRunnable;
  t->sched_class_->TaskPreempted(cpu, t);
  c.current = nullptr;
  Schedule(cpu);
}

void SchedCore::BlockCurrent(int cpu, WaitQueue* wq) {
  CpuState& c = cpus_[cpu];
  Task* t = c.current;
  AccrueRuntime(t);
  t->state_ = TaskState::kBlocked;
  wq->AddWaiter(t);
  t->sched_class_->DequeueTask(cpu, t, DequeueReason::kBlocked);
  c.current = nullptr;
  c.pending_charge += costs_.block_syscall_ns;
  Schedule(cpu);
}

void SchedCore::SleepCurrent(int cpu, Duration d) {
  CpuState& c = cpus_[cpu];
  Task* t = c.current;
  AccrueRuntime(t);
  t->state_ = TaskState::kBlocked;
  t->sched_class_->DequeueTask(cpu, t, DequeueReason::kBlocked);
  t->sleep_event_ = loop_->ScheduleAfter(d, [this, t] {
    t->sleep_event_ = kInvalidEventId;
    WakeTaskInternal(t, /*sync=*/false, /*from_cpu=*/t->cpu_, /*is_new=*/false);
  });
  c.current = nullptr;
  c.pending_charge += costs_.block_syscall_ns;
  Schedule(cpu);
}

void SchedCore::YieldCurrent(int cpu) {
  CpuState& c = cpus_[cpu];
  Task* t = c.current;
  AccrueRuntime(t);
  t->state_ = TaskState::kRunnable;
  t->sched_class_->TaskYielded(cpu, t);
  c.current = nullptr;
  c.pending_charge += costs_.block_syscall_ns;
  Schedule(cpu);
}

void SchedCore::ExitCurrent(int cpu) {
  CpuState& c = cpus_[cpu];
  Task* t = c.current;
  AccrueRuntime(t);
  t->state_ = TaskState::kDead;
  t->sched_class_->DequeueTask(cpu, t, DequeueReason::kDead);
  c.current = nullptr;
  ENOKI_CHECK(live_tasks_ > 0);
  --live_tasks_;
  Schedule(cpu);
}

void SchedCore::DoWake(WaitQueue* wq, bool sync, int from_cpu) {
  Task* w = wq->PopWaiter();
  if (w == nullptr) {
    wq->AddSignal();
    return;
  }
  if (w->sleep_event_ != kInvalidEventId) {
    loop_->Cancel(w->sleep_event_);
    w->sleep_event_ = kInvalidEventId;
  }
  WakeTaskInternal(w, sync, from_cpu, /*is_new=*/false);
}

void SchedCore::CheckStarvation() {
  const Time now = loop_->now();
  for (const auto& tp : tasks_) {
    Task* t = tp.get();
    if (t->state_ != TaskState::kRunnable || t->starvation_flagged_) {
      continue;
    }
    // A runnable task's wait started either when it was last made runnable
    // or when its current on-queue stint began (after a preempt/yield the
    // run_segment_start_ of the previous segment is the later stamp).
    const Time since = std::max(t->last_runnable_at_, t->run_segment_start_);
    const Duration waited = now - since;
    if (waited > starvation_bound_) {
      t->starvation_flagged_ = true;
      t->sched_class_->OnTaskStarved(t, waited);
    }
  }
}

void SchedCore::TickFired(int cpu) {
  CpuState& c = cpus_[cpu];
  if (cpu == 0 && starvation_bound_ > 0) {
    CheckStarvation();
  }
  Task* t = c.current;
  if (t != nullptr) {
    t->sched_class_->TaskTick(cpu, t);
    if (c.need_resched && c.current != nullptr && !c.in_switch) {
      c.need_resched = false;
      PreemptCurrent(cpu);
    }
  } else if (!c.in_switch && !c.kick_pending && ++c.idle_ticks % kIdleBalanceTicks == 0) {
    // nohz idle balancing: an idle CPU periodically re-enters the scheduler
    // so classes get a balance/steal opportunity even with no local events.
    Schedule(cpu);
  }
  c.tick_event = loop_->ScheduleAfter(costs_.tick_ns, [this, cpu] { TickFired(cpu); });
}

void SchedCore::SetTaskPolicy(Task* t, int policy) {
  ENOKI_CHECK(policy >= 0 && policy < static_cast<int>(classes_.size()));
  SchedClass* new_class = classes_[policy];
  if (new_class == t->sched_class_) {
    t->policy_ = policy;
    return;
  }
  switch (t->state_) {
    case TaskState::kRunnable: {
      // Leave the old class's queue, join the new one.
      t->sched_class_->DequeueTask(t->cpu_, t, DequeueReason::kDeparted);
      t->sched_class_ = new_class;
      t->policy_ = policy;
      int target = new_class->SelectTaskRq(t, t->cpu_, /*wake_sync=*/false, /*is_new=*/true);
      if (!t->affinity_.Test(target)) {
        target = t->affinity_.First();
      }
      t->cpu_ = target;
      new_class->EnqueueTask(target, t, /*wakeup=*/false);
      KickCpu(target);
      break;
    }
    case TaskState::kRunning: {
      // Preempt first so the old class hands the task back, then reattach.
      const int cpu = t->cpu_;
      StopCompute(t);
      AccrueRuntime(t);
      t->state_ = TaskState::kRunnable;
      t->sched_class_->TaskPreempted(cpu, t);
      cpus_[cpu].current = nullptr;
      SetTaskPolicy(t, policy);  // now runnable: recurse into the case above
      Schedule(cpu);
      return;
    }
    case TaskState::kBlocked:
    case TaskState::kCreated:
      // Not attached to any run queue: just retarget the class.
      t->sched_class_ = new_class;
      t->policy_ = policy;
      break;
    case TaskState::kDead:
      ENOKI_CHECK_MSG(false, "cannot change policy of a dead task");
      break;
  }
}

void SchedCore::MoveQueuedTask(Task* t, int to_cpu) {
  ENOKI_CHECK(t->state_ == TaskState::kRunnable);
  ENOKI_CHECK(to_cpu >= 0 && to_cpu < spec_.ncpus);
  ENOKI_CHECK(t->affinity_.Test(to_cpu));
  t->cpu_ = to_cpu;
}

void SchedCore::SetTaskNice(Task* t, int nice) {
  ENOKI_CHECK(nice >= kMinNice && nice <= kMaxNice);
  t->nice_ = nice;
  t->sched_class_->PrioChanged(t);
}

namespace {

// FNV-1a, 64-bit. Integer-only so the digest is bit-exact across platforms.
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t SchedCore::Fingerprint() const {
  uint64_t h = 14695981039346656037ull;
  h = FnvMix(h, loop_->now());
  h = FnvMix(h, loop_->events_executed());
  h = FnvMix(h, context_switches_);
  h = FnvMix(h, coalesced_ipis_);
  h = FnvMix(h, live_tasks_);
  h = FnvMix(h, pick_errors_);
  for (const CpuState& c : cpus_) {
    h = FnvMix(h, c.current != nullptr ? c.current->pid() : 0);
    h = FnvMix(h, (c.in_switch ? 1u : 0u) | (c.need_resched ? 2u : 0u) |
                      (c.kick_pending ? 4u : 0u));
    h = FnvMix(h, c.idle_ticks);
  }
  for (const auto& tp : tasks_) {
    const Task* t = tp.get();
    h = FnvMix(h, static_cast<uint64_t>(t->state()));
    h = FnvMix(h, static_cast<uint64_t>(t->cpu()));
    h = FnvMix(h, t->total_runtime());
    h = FnvMix(h, t->wake_count());
    h = FnvMix(h, t->switch_in_count());
  }
  h = FnvMix(h, wake_latency_.count());
  h = FnvMix(h, wake_latency_.min());
  h = FnvMix(h, wake_latency_.max());
  h = FnvMix(h, wake_latency_.Percentile(50.0));
  h = FnvMix(h, wake_latency_.Percentile(99.0));
  return h;
}

void SchedCore::SetTaskAffinity(Task* t, const CpuMask& mask) {
  const CpuMask clamped = mask.Intersect(CpuMask::All(spec_.ncpus));
  ENOKI_CHECK(!clamped.Empty());
  t->affinity_ = clamped;
  if (t->state_ == TaskState::kRunning && !clamped.Test(t->cpu_)) {
    // Running on a now-disallowed CPU: force it off (migration_cpu_stop).
    const int cpu = t->cpu_;
    if (cpus_[cpu].current == t && !cpus_[cpu].in_switch) {
      PreemptCurrent(cpu);
    } else {
      SetNeedResched(cpu);
    }
  }
  t->sched_class_->AffinityChanged(t);
}

}  // namespace enoki

// The scheduling-class interface: the simulator's analog of Linux's
// `struct sched_class` (kernel/sched/sched.h). SchedCore dispatches every
// scheduling decision through this interface, in class-priority order, just
// as kernel/sched/core.c does. Native schedulers (CFS, the ghOSt kernel
// component) implement it directly; Enoki schedulers are adapted onto it by
// enoki::EnokiClassAdapter, which performs the message-passing translation
// the paper's Enoki-C does.

#ifndef SRC_SIMKERNEL_SCHED_CLASS_H_
#define SRC_SIMKERNEL_SCHED_CLASS_H_

#include "src/simkernel/event_loop.h"
#include "src/simkernel/task.h"

namespace enoki {

enum class DequeueReason {
  kBlocked,   // task went to sleep
  kDead,      // task exited
  kDeparted,  // task left this scheduling policy (setscheduler away)
};

class SchedClass {
 public:
  virtual ~SchedClass() = default;

  virtual const char* name() const = 0;

  // Called once when the class is registered, before any task operation.
  virtual void Attach(SchedCore* core) { core_ = core; }

  // Chooses the CPU a waking (or newly created, `is_new`) task should be
  // queued on.
  virtual int SelectTaskRq(Task* t, int prev_cpu, bool wake_sync, bool is_new) = 0;

  // Adds a runnable task to `cpu`'s queue. `wakeup` distinguishes wakeups
  // from new-task attach.
  virtual void EnqueueTask(int cpu, Task* t, bool wakeup) = 0;

  // Removes a task from its queue (it blocked, died, or departed). Only
  // called for queued (runnable, not running) or current tasks.
  virtual void DequeueTask(int cpu, Task* t, DequeueReason reason) = 0;

  // Picks the next task to run on `cpu`, or nullptr if this class has
  // nothing. The previously running task, if still runnable, has already
  // been handed back via TaskPreempted/TaskYielded.
  virtual Task* PickNextTask(int cpu) = 0;

  // The current task was preempted while still runnable; the class must
  // requeue it.
  virtual void TaskPreempted(int cpu, Task* t) = 0;

  // The current task called sched_yield(); the class must requeue it.
  virtual void TaskYielded(int cpu, Task* t) = 0;

  // Periodic tick while `t` runs on `cpu`. The class may call
  // SchedCore::SetNeedResched(cpu).
  virtual void TaskTick(int cpu, Task* t) = 0;

  // Should the newly woken task preempt the currently running one (both in
  // this class)? Mirrors check_preempt_wakeup().
  virtual bool WakeupPreempt(int cpu, Task* curr, Task* woken) { return false; }

  // Newidle/periodic balance opportunity on `cpu`. The class may migrate
  // queued tasks onto `cpu`; returns true if it pulled anything.
  virtual bool Balance(int cpu) { return false; }

  // When true, the core calls Balance(cpu) before every PickNextTask(cpu)
  // (the Enoki/ghOSt kernel interface invokes the balance callback on each
  // schedule operation; CFS instead balances internally on newidle).
  virtual bool WantsBalanceBeforePick() const { return false; }

  // A policy timer armed via SchedCore::ArmClassTimer fired on `cpu`.
  virtual void TimerFired(int cpu) {}

  // The core's starvation detector found `t` runnable-but-not-run for
  // `runnable_ns`, exceeding the configured bound. Called at most once per
  // runnable episode of the task. Default: ignore (native schedulers are
  // trusted); the Enoki runtime uses this to trip its watchdog.
  virtual void OnTaskStarved(Task* t, Duration runnable_ns) {}

  virtual void AffinityChanged(Task* t) {}
  virtual void PrioChanged(Task* t) {}

 protected:
  SchedCore* core_ = nullptr;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_SCHED_CLASS_H_

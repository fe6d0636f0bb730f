// The token-and-queue table: the share of a queue-based scheduler that
// libEnoki owns (paper section 4 and Table 2), so a policy module stays small.
//
// Every queue-based policy keeps the same bookkeeping: a pid-indexed entity
// table, the Schedulable token of every runnable task, and per-CPU run
// queues ordered by a policy key — WFQ's vruntime, or a global arrival
// sequence. TokenQueueTable holds that state, and TokenQueueSched implements
// the lifecycle callbacks over it once. Nine policies derive from it: fifo,
// nest, locality, shinjuku and WFQ in src/sched/, and central, pair,
// layered and rusty in src/sched/ext/. A policy derives from
// TokenQueueSched<Policy, Ent>, where Ent derives from QueueEnt, and
// supplies SelectTaskRq, PickNextTask, Balance, TaskTick or TimerFired, its
// own fields and the hooks below.
//
// Hooks resolve at compile time (CRTP), so no callback pays a virtual call.
// Every policy writes SaveTransfer and LoadTransfer; the base provides a
// default for each other hook. A policy shadows the hooks it needs
// as private members and befriends the base. Hooks run under the module's
// one lock, at these points:
//   Adopt(msg, e)           a fresh slot: TaskNew, or a first sighting on
//                           requeue (e.g. after an upgrade with partial state)
//   Charge(e, runtime)      runtime accounting on requeue, block and migrate,
//                           after the erase, which must use the key the
//                           entry was pushed under
//   StopRunning(pid, e)     the task stops running: before the erase on a
//                           requeue, after it on block, death and departure
//   Leave(pid, e)           after StopRunning on block, death and departure
//   Place(msg, e, cpu, why) sets e.key for the queue on `cpu`, after the
//                           erase and before the push of a new or requeued
//                           task (default: the next arrival sequence)
//   Enqueued(cpu)           after a new or requeued task and its token are in
//                           `cpu`'s queue
//   Migrate(msg, e)         after the erase of a migrating task, before the
//                           push (default: keep e.key, so an arrival-ordered
//                           task keeps its place in arrival order)
//   AttachCpus(ncpus)       sizes per-CPU policy state alongside the queues
//   SaveTransfer(t), LoadTransfer(t)    policy extras across a live upgrade
//
// A policy instantiates its base once, in its own .cc, and declares that
// instantiation `extern` in its header. Otherwise any file that builds the
// module emits its own copy of the callbacks, and the linker may keep one
// where the hooks defined in the policy's .cc are calls, not inlined code.
//
// Each policy declares `struct Transfer { TokenQueueTable<Ent> table; ... }`.
// The type must stay distinct per policy: TransferState::Take matches on
// typeid, and a cross-policy upgrade has to fail the take so the runtime
// re-injects the queued tasks instead of adopting a foreign table.

#ifndef SRC_ENOKI_TOKEN_QUEUE_H_
#define SRC_ENOKI_TOKEN_QUEUE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

// The per-task fields the table reads and writes.
struct QueueEnt {
  uint64_t key = 0;  // queue order: vruntime or arrival sequence
  Duration last_runtime = 0;
  int cpu = 0;  // CPU whose queue the task was last placed on
  bool queued = false;
  bool running = false;
  bool live = false;  // slot holds a tracked task
};

template <typename Ent>
struct TokenQueueTable {
  std::vector<Ent> ents;                                 // indexed by pid
  std::vector<std::optional<Schedulable>> tokens;        // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // per CPU: key -> pid
  uint64_t next_seq = 1;  // arrival cursor for arrival-ordered policies

  // Live entity for pid, or nullptr when untracked.
  Ent* Find(uint64_t pid) {
    if (pid >= ents.size() || !ents[pid].live) {
      return nullptr;
    }
    return &ents[pid];
  }

  // Queue length on `cpu`, counting a task running there as one more.
  size_t Load(int cpu) const {
    size_t len = queues[cpu].size();
    for (const Ent& e : ents) {
      if (e.live && e.running && e.cpu == cpu) {
        return len + 1;
      }
    }
    return len;
  }

  // Hands the token of the entry at `idx` on `cpu`'s queue to the caller,
  // after `picked(pid, e)` has updated the picked task's entity.
  template <typename F>
  std::optional<Schedulable> Pick(int cpu, size_t idx, F&& picked) {
    const uint64_t pid = queues[cpu][idx].second;
    queues[cpu].erase_at(idx);
    Ent* e = Find(pid);
    ENOKI_CHECK(e != nullptr);
    e->queued = false;
    e->running = true;
    picked(pid, *e);
    return TakeToken(pid);
  }

  // A fresh live slot for pid, grown on demand.
  Ent& Fresh(uint64_t pid, Duration runtime) {
    if (pid >= ents.size()) {
      ents.resize(pid + 1);
    }
    Ent& e = ents[pid];
    e = Ent{};
    e.live = true;
    e.last_runtime = runtime;
    return e;
  }

  void Push(uint64_t pid, Ent& e, int cpu) {
    e.cpu = cpu;
    e.queued = true;
    queues[cpu].emplace(e.key, pid);
  }

  void Erase(uint64_t pid, Ent& e) {
    if (e.queued) {
      queues[e.cpu].erase_one(e.key, pid);
      e.queued = false;
    }
  }

  void PutToken(uint64_t pid, Schedulable sched) {
    if (pid >= tokens.size()) {
      tokens.resize(pid + 1);
    }
    tokens[pid] = std::move(sched);
  }

  std::optional<Schedulable> TakeToken(uint64_t pid) {
    if (pid >= tokens.size() || !tokens[pid].has_value()) {
      return std::nullopt;
    }
    Schedulable s = std::move(*tokens[pid]);
    tokens[pid].reset();
    return s;
  }

  void DropToken(uint64_t pid) {
    if (pid < tokens.size()) {
      tokens[pid].reset();
    }
  }
};

template <typename Derived, typename Ent>
class TokenQueueSched : public EnokiSched {
 public:
  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    // Empty on first attach and after ReregisterPrepare moved them out.
    if (table_.queues.empty()) {
      table_.queues.resize(static_cast<size_t>(env->NumCpus()));
      self().AttachCpus(env->NumCpus());
    }
  }

  void TaskNew(const TaskMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    const int cpu = sched.cpu();
    Ent& e = table_.Fresh(msg.pid, msg.runtime);
    self().Adopt(msg, e);
    self().Place(msg, e, cpu, Arrival::kNew);
    table_.Push(msg.pid, e, cpu);
    table_.PutToken(msg.pid, std::move(sched));
    self().Enqueued(cpu);
  }

  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Requeue(msg, std::move(sched), Arrival::kWakeup);
  }
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Requeue(msg, std::move(sched), Arrival::kRequeue);
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Requeue(msg, std::move(sched), Arrival::kRequeue);
  }

  void TaskBlocked(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    if (Ent* e = table_.Find(msg.pid)) {
      Unqueue(msg.pid, *e);
      self().Charge(*e, msg.runtime);
      table_.DropToken(msg.pid);
    }
  }

  void TaskDead(uint64_t pid) override {
    SpinLockGuard g(lock_);
    Retire(pid);
    table_.DropToken(pid);
  }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    Retire(msg.pid);
    return table_.TakeToken(msg.pid);
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    Ent* e = table_.Find(msg.pid);
    ENOKI_CHECK(e != nullptr);
    table_.Erase(msg.pid, *e);
    self().Charge(*e, msg.runtime);
    self().Migrate(msg, *e);
    table_.Push(msg.pid, *e, msg.to_cpu);
    ENOKI_CHECK(msg.pid < table_.tokens.size() && table_.tokens[msg.pid].has_value());
    Schedulable old = std::move(*table_.tokens[msg.pid]);
    table_.tokens[msg.pid] = std::move(sched);
    return old;
  }

  TransferState ReregisterPrepare() override {
    SpinLockGuard g(lock_);
    auto t = std::make_unique<typename Derived::Transfer>();
    t->table = std::move(table_);
    table_ = TokenQueueTable<Ent>{};
    self().SaveTransfer(*t);
    return TransferState::Of(std::move(t));
  }

  void ReregisterInit(TransferState state) override {
    if (state.empty()) {
      return;
    }
    auto t = state.Take<typename Derived::Transfer>();
    if (t == nullptr) {
      return;
    }
    SpinLockGuard g(lock_);
    table_ = std::move(t->table);
    self().LoadTransfer(*t);
  }

  // Introspection for tests.
  size_t QueueDepth(int cpu) {
    SpinLockGuard g(lock_);
    return table_.queues[cpu].size();
  }

 protected:
  // Why a task is being queued; Place may order new, woken and requeued
  // (preempted or yielding) tasks differently.
  enum class Arrival { kNew, kWakeup, kRequeue };

  // Default hooks; see the top of this file.
  void Adopt(const TaskMessage& msg, Ent& e) {}
  void Charge(Ent& e, Duration runtime) {
    if (runtime > e.last_runtime) {
      e.last_runtime = runtime;
    }
  }
  void StopRunning(uint64_t pid, Ent& e) { e.running = false; }
  void Leave(uint64_t pid, Ent& e) {}
  void Place(const TaskMessage& msg, Ent& e, int cpu, Arrival why) {
    e.key = table_.next_seq++;
  }
  void Enqueued(int cpu) {}
  void Migrate(const MigrateMessage& msg, Ent& e) {}
  void AttachCpus(int ncpus) {}

  SpinLock lock_;  // the module's one lock, taken once per callback
  TokenQueueTable<Ent> table_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  void Requeue(const TaskMessage& msg, Schedulable sched, Arrival why) {
    SpinLockGuard g(lock_);
    Ent* e = table_.Find(msg.pid);
    if (e == nullptr) {
      e = &table_.Fresh(msg.pid, msg.runtime);
      self().Adopt(msg, *e);
    }
    self().StopRunning(msg.pid, *e);
    table_.Erase(msg.pid, *e);
    self().Charge(*e, msg.runtime);
    const int cpu = sched.cpu();
    self().Place(msg, *e, cpu, why);
    table_.Push(msg.pid, *e, cpu);
    table_.PutToken(msg.pid, std::move(sched));
    self().Enqueued(cpu);
  }

  // Takes a blocking, dying or departing task off its queue and its CPU.
  void Unqueue(uint64_t pid, Ent& e) {
    table_.Erase(pid, e);
    self().StopRunning(pid, e);
    self().Leave(pid, e);
  }

  // Drops a dying or departing task's entity; pids are never reused.
  void Retire(uint64_t pid) {
    if (Ent* e = table_.Find(pid)) {
      Unqueue(pid, *e);
      *e = Ent{};
    }
  }
};

}  // namespace enoki

#endif  // SRC_ENOKI_TOKEN_QUEUE_H_

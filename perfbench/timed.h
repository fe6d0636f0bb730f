// Layer tracing for the benchmark, done entirely from outside the library:
// wrappers around the public scheduling interfaces time every callback that
// crosses a layer boundary.
//
//  - TimedClass<Base> derives from a SchedClass implementation (EnokiRuntime,
//    CfsClass) and times each callback SchedCore makes into it. It is a
//    mixin rather than a forwarding object because the wrapped classes
//    compare task->sched_class() against `this` (CfsClass::WakeupPreempt)
//    and arm timers on `this` (EnokiRuntime); the registered object must be
//    the wrapped object itself or simulated results change.
//  - TimedModule forwards every EnokiSched virtual to an owned module and
//    times the callbacks the runtime makes into it. The module never sees the
//    wrapper, so VersionFingerprint, checkpoints and transfer state are the
//    module's own.
//
// Each wrapper instance writes to one CallTable, so tables never need
// synchronisation: a table is touched only by the thread running its shard.
// A span's self time excludes the spans nested inside it, which gives the
// shim its own time (runtime span minus module spans) and the simulator core
// its own time (run wall minus top-level class spans).

#ifndef PERFBENCH_TIMED_H_
#define PERFBENCH_TIMED_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/enoki/api.h"
#include "src/simkernel/sched_class.h"

namespace perfbench {

using enoki::Duration;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Callback ids. Class callbacks come first, then module callbacks; CbName()
// gives the metric suffix of each.
enum Cb : int {
  // SchedClass
  kSelect,
  kEnqueue,
  kDequeue,
  kPick,
  kPreempted,
  kYielded,
  kTick,
  kWakeupPreempt,
  kBalance,
  kTimerFired,
  kStarved,
  kAffinity,
  kPrio,
  // EnokiSched
  kPickNextTask,
  kPntErr,
  kTaskDead,
  kTaskBlocked,
  kTaskWakeup,
  kTaskNew,
  kTaskPreempt,
  kTaskYield,
  kTaskDeparted,
  kTaskAffinity,
  kTaskPrio,
  kTaskTick,
  kModTimerFired,
  kSelectTaskRq,
  kMigrateTaskRq,
  kModBalance,
  kBalanceErr,
  kReregisterPrepare,
  kReregisterInit,
  kSaveCheckpoint,
  kLoadCheckpoint,
  kHint,
  kNumCb,
};

inline const char* CbName(int cb) {
  static constexpr const char* kNames[kNumCb] = {
      "select",         "enqueue",         "dequeue",           "pick",
      "preempted",      "yielded",         "tick",              "wakeup_preempt",
      "balance",        "timer_fired",     "starved",           "affinity",
      "prio",           "pick_next_task",  "pnt_err",           "task_dead",
      "task_blocked",   "task_wakeup",     "task_new",          "task_preempt",
      "task_yield",     "task_departed",   "task_affinity",     "task_prio",
      "task_tick",      "timer_fired",     "select_task_rq",    "migrate_task_rq",
      "balance",        "balance_err",     "reregister_prepare", "reregister_init",
      "save_checkpoint", "load_checkpoint", "parse_hint",
  };
  return kNames[cb];
}

struct CallStats {
  static constexpr int kBuckets = 48;
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::array<uint64_t, kBuckets> log2_hist{};  // bucket b: ns in [2^(b-1), 2^b)

  void Add(uint64_t ns, uint64_t self) {
    ++calls;
    total_ns += ns;
    self_ns += self;
    const int b = ns == 0 ? 0 : 64 - __builtin_clzll(ns);
    ++log2_hist[static_cast<size_t>(b < kBuckets ? b : kBuckets - 1)];
  }
  void Merge(const CallStats& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    for (int i = 0; i < kBuckets; ++i) {
      log2_hist[static_cast<size_t>(i)] += o.log2_hist[static_cast<size_t>(i)];
    }
  }
};

// One wrapper instance's counters.
struct CallTable {
  std::array<CallStats, kNumCb> cb{};
  uint64_t top_ns = 0;             // spans not nested in another span
  uint64_t nested_child_calls = 0; // spans nested inside this table's spans
  std::vector<uint64_t> save_ns;   // per SaveCheckpoint call
  uint64_t save_bytes = 0;

  void Merge(const CallTable& o) {
    for (int i = 0; i < kNumCb; ++i) {
      cb[static_cast<size_t>(i)].Merge(o.cb[static_cast<size_t>(i)]);
    }
    top_ns += o.top_ns;
    nested_child_calls += o.nested_child_calls;
    save_ns.insert(save_ns.end(), o.save_ns.begin(), o.save_ns.end());
    save_bytes += o.save_bytes;
  }
};

// Owns the tables of one traced run, grouped by layer.
class Tracer {
 public:
  enum Layer { kEnoki, kCfs, kModule, kNumLayers };

  CallTable* NewTable(Layer layer) {
    tables_[layer].emplace_back();
    return &tables_[layer].back();
  }
  CallTable Sum(Layer layer) const {
    CallTable sum;
    for (const CallTable& t : tables_[layer]) {
      sum.Merge(t);
    }
    return sum;
  }

 private:
  // deque: tables keep their addresses as instances are added.
  std::array<std::deque<CallTable>, kNumLayers> tables_;
};

// RAII span: times one callback into `table->cb[cb]` and charges its
// duration to the enclosing span, whose self time then excludes it. The
// duration is also stored to `*out_ns` when given.
class Span {
 public:
  Span(CallTable* table, int cb, uint64_t* out_ns = nullptr)
      : table_(table), cb_(cb), parent_(tl_current_), out_ns_(out_ns) {
    tl_current_ = this;
    start_ = NowNs();
  }
  ~Span() {
    const uint64_t ns = NowNs() - start_;
    tl_current_ = parent_;
    if (out_ns_ != nullptr) {
      *out_ns_ = ns;
    }
    table_->cb[static_cast<size_t>(cb_)].Add(ns, ns - child_ns_);
    if (parent_ != nullptr) {
      parent_->child_ns_ += ns;
      ++parent_->table_->nested_child_calls;
    } else {
      table_->top_ns += ns;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static thread_local Span* tl_current_;
  CallTable* table_;
  int cb_;
  Span* parent_;
  uint64_t* out_ns_;
  uint64_t start_ = 0;
  uint64_t child_ns_ = 0;
};

inline thread_local Span* Span::tl_current_ = nullptr;

template <typename Base>
class TimedClass : public Base {
 public:
  template <typename... Args>
  explicit TimedClass(CallTable* table, Args&&... args)
      : Base(std::forward<Args>(args)...), table_(table) {}

  int SelectTaskRq(enoki::Task* t, int prev_cpu, bool wake_sync, bool is_new) override {
    Span s(table_, kSelect);
    return Base::SelectTaskRq(t, prev_cpu, wake_sync, is_new);
  }
  void EnqueueTask(int cpu, enoki::Task* t, bool wakeup) override {
    Span s(table_, kEnqueue);
    Base::EnqueueTask(cpu, t, wakeup);
  }
  void DequeueTask(int cpu, enoki::Task* t, enoki::DequeueReason reason) override {
    Span s(table_, kDequeue);
    Base::DequeueTask(cpu, t, reason);
  }
  enoki::Task* PickNextTask(int cpu) override {
    Span s(table_, kPick);
    return Base::PickNextTask(cpu);
  }
  void TaskPreempted(int cpu, enoki::Task* t) override {
    Span s(table_, kPreempted);
    Base::TaskPreempted(cpu, t);
  }
  void TaskYielded(int cpu, enoki::Task* t) override {
    Span s(table_, kYielded);
    Base::TaskYielded(cpu, t);
  }
  void TaskTick(int cpu, enoki::Task* t) override {
    Span s(table_, kTick);
    Base::TaskTick(cpu, t);
  }
  bool WakeupPreempt(int cpu, enoki::Task* curr, enoki::Task* woken) override {
    Span s(table_, kWakeupPreempt);
    return Base::WakeupPreempt(cpu, curr, woken);
  }
  bool Balance(int cpu) override {
    Span s(table_, kBalance);
    return Base::Balance(cpu);
  }
  void TimerFired(int cpu) override {
    Span s(table_, kTimerFired);
    Base::TimerFired(cpu);
  }
  void OnTaskStarved(enoki::Task* t, Duration runnable_ns) override {
    Span s(table_, kStarved);
    Base::OnTaskStarved(t, runnable_ns);
  }
  void AffinityChanged(enoki::Task* t) override {
    Span s(table_, kAffinity);
    Base::AffinityChanged(t);
  }
  void PrioChanged(enoki::Task* t) override {
    Span s(table_, kPrio);
    Base::PrioChanged(t);
  }

 private:
  CallTable* table_;
};

class TimedModule : public enoki::EnokiSched {
 public:
  TimedModule(std::unique_ptr<enoki::EnokiSched> inner, CallTable* table)
      : inner_(std::move(inner)), table_(table) {}

  void Attach(enoki::EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    inner_->Attach(env);
  }
  int GetPolicy() const override { return inner_->GetPolicy(); }

  std::optional<enoki::Schedulable> PickNextTask(
      int cpu, std::optional<enoki::Schedulable> curr) override {
    Span s(table_, kPickNextTask);
    return inner_->PickNextTask(cpu, std::move(curr));
  }
  void PntErr(int cpu, std::optional<enoki::Schedulable> sched) override {
    Span s(table_, kPntErr);
    inner_->PntErr(cpu, std::move(sched));
  }
  void TaskDead(uint64_t pid) override {
    Span s(table_, kTaskDead);
    inner_->TaskDead(pid);
  }
  void TaskBlocked(const enoki::TaskMessage& msg) override {
    Span s(table_, kTaskBlocked);
    inner_->TaskBlocked(msg);
  }
  void TaskWakeup(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(table_, kTaskWakeup);
    inner_->TaskWakeup(msg, std::move(sched));
  }
  void TaskNew(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(table_, kTaskNew);
    inner_->TaskNew(msg, std::move(sched));
  }
  void TaskPreempt(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(table_, kTaskPreempt);
    inner_->TaskPreempt(msg, std::move(sched));
  }
  void TaskYield(const enoki::TaskMessage& msg, enoki::Schedulable sched) override {
    Span s(table_, kTaskYield);
    inner_->TaskYield(msg, std::move(sched));
  }
  std::optional<enoki::Schedulable> TaskDeparted(const enoki::TaskMessage& msg) override {
    Span s(table_, kTaskDeparted);
    return inner_->TaskDeparted(msg);
  }
  void TaskAffinityChanged(uint64_t pid, const enoki::CpuMask& mask) override {
    Span s(table_, kTaskAffinity);
    inner_->TaskAffinityChanged(pid, mask);
  }
  void TaskPrioChanged(uint64_t pid, int nice) override {
    Span s(table_, kTaskPrio);
    inner_->TaskPrioChanged(pid, nice);
  }
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    Span s(table_, kTaskTick);
    inner_->TaskTick(cpu, pid, runtime);
  }
  void TimerFired(int cpu) override {
    Span s(table_, kModTimerFired);
    inner_->TimerFired(cpu);
  }
  int SelectTaskRq(const enoki::TaskMessage& msg) override {
    Span s(table_, kSelectTaskRq);
    return inner_->SelectTaskRq(msg);
  }
  enoki::Schedulable MigrateTaskRq(const enoki::MigrateMessage& msg,
                                   enoki::Schedulable sched) override {
    Span s(table_, kMigrateTaskRq);
    return inner_->MigrateTaskRq(msg, std::move(sched));
  }
  std::optional<uint64_t> Balance(int cpu) override {
    Span s(table_, kModBalance);
    return inner_->Balance(cpu);
  }
  void BalanceErr(int cpu, uint64_t pid, std::optional<enoki::Schedulable> sched) override {
    Span s(table_, kBalanceErr);
    inner_->BalanceErr(cpu, pid, std::move(sched));
  }
  enoki::TransferState ReregisterPrepare() override {
    Span s(table_, kReregisterPrepare);
    return inner_->ReregisterPrepare();
  }
  void ReregisterInit(enoki::TransferState state) override {
    Span s(table_, kReregisterInit);
    inner_->ReregisterInit(std::move(state));
  }
  bool SaveCheckpoint(enoki::ByteWriter* out) const override {
    const size_t before = out->bytes().size();
    uint64_t ns = 0;
    bool ok = false;
    {
      Span s(table_, kSaveCheckpoint, &ns);
      ok = inner_->SaveCheckpoint(out);
    }
    table_->save_ns.push_back(ns);
    table_->save_bytes += out->bytes().size() - before;
    return ok;
  }
  uint32_t CheckpointVersion() const override { return inner_->CheckpointVersion(); }
  bool LoadCheckpoint(uint32_t version, enoki::ByteReader* in) override {
    Span s(table_, kLoadCheckpoint);
    return inner_->LoadCheckpoint(version, in);
  }
  enoki::ProbationConfig DefaultProbation() const override {
    return inner_->DefaultProbation();
  }
  uint64_t VersionFingerprint() const override { return inner_->VersionFingerprint(); }

  int RegisterQueue(int queue_id) override { return inner_->RegisterQueue(queue_id); }
  int RegisterReverseQueue(int queue_id) override {
    return inner_->RegisterReverseQueue(queue_id);
  }
  void EnterQueue(int queue_id) override { inner_->EnterQueue(queue_id); }
  void UnregisterQueue(int queue_id) override { inner_->UnregisterQueue(queue_id); }
  void UnregisterRevQueue(int queue_id) override { inner_->UnregisterRevQueue(queue_id); }
  void ParseHint(const enoki::HintBlob& hint) override {
    Span s(table_, kHint);
    inner_->ParseHint(hint);
  }

 private:
  std::unique_ptr<enoki::EnokiSched> inner_;
  CallTable* table_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_H_

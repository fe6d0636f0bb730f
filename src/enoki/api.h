// The Enoki scheduler API: the C++ rendering of the paper's EnokiScheduler
// trait (Table 1) and the Schedulable ownership token (section 3.1).
//
// A scheduler implements EnokiSched and nothing else: it never touches
// kernel state directly. The framework (enoki::EnokiRuntime) translates the
// kernel's scheduling-class callbacks into calls on this interface, passing
// plain-value "message" structs — no pointers cross the boundary — and
// move-only Schedulable tokens that prove a task may run on a given CPU.
//
// The paper expresses the token discipline with Rust's affine types; here it
// is expressed with C++ move semantics: Schedulable has no copy constructor,
// so a scheduler cannot retain a usable duplicate of a token it has returned.
// Returning a stale or wrong-CPU token is detected at runtime by the
// framework's generation check and routed back through PntErr, mirroring the
// paper's pick_next_task validation.

#ifndef SRC_ENOKI_API_H_
#define SRC_ENOKI_API_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <typeinfo>
#include <utility>

#include "src/base/cpumask.h"
#include "src/base/niceness.h"
#include "src/base/ring_buffer.h"
#include "src/base/time.h"
#include "src/enoki/checkpoint.h"
#include "src/fault/watchdog.h"

namespace enoki {

// Proof that a task may be scheduled on a CPU. Minted only by the framework;
// move-only so schedulers cannot clone validation they have given back.
class Schedulable {
 public:
  Schedulable(Schedulable&& other) noexcept { *this = std::move(other); }

  Schedulable& operator=(Schedulable&& other) noexcept {
    pid_ = other.pid_;
    cpu_ = other.cpu_;
    generation_ = other.generation_;
    other.pid_ = 0;  // moved-from tokens are visibly invalid
    return *this;
  }

  Schedulable(const Schedulable&) = delete;
  Schedulable& operator=(const Schedulable&) = delete;

  uint64_t pid() const { return pid_; }
  int cpu() const { return cpu_; }
  bool valid() const { return pid_ != 0; }

 private:
  friend class SchedulableMinter;
  Schedulable(uint64_t pid, int cpu, uint64_t generation)
      : pid_(pid), cpu_(cpu), generation_(generation) {}

  uint64_t pid_ = 0;
  int cpu_ = -1;
  uint64_t generation_ = 0;
};

// Only the framework (and the replay engine, which stands in for it) mints
// tokens. Scheduler modules cannot: the constructor is private and this
// factory lives behind framework internals.
class SchedulableMinter {
 public:
  static Schedulable Mint(uint64_t pid, int cpu, uint64_t generation) {
    return Schedulable(pid, cpu, generation);
  }
  static uint64_t Generation(const Schedulable& s) { return s.generation_; }
};

// Per-call message payloads. All values; no pointers into kernel state.
struct TaskMessage {
  uint64_t pid = 0;
  int cpu = -1;        // CPU the event concerns
  int prev_cpu = -1;   // task's previous CPU (select/wakeup)
  Duration runtime = 0;  // accumulated runtime, tracked by the framework
  int nice = 0;
  bool wake_sync = false;  // WF_SYNC: waker blocks imminently
  bool is_new = false;     // first placement of a newly created task
};

struct MigrateMessage {
  uint64_t pid = 0;
  int from_cpu = -1;
  int to_cpu = -1;
  Duration runtime = 0;
};

// Scheduler-defined hint payload (section 3.3). The framework moves opaque
// fixed-size blobs across the user/kernel boundary; schedulers define the
// interpretation (and typically wrap this in a typed view).
struct HintBlob {
  uint64_t w[4] = {0, 0, 0, 0};
};

using HintQueue = RingBuffer<HintBlob>;

// Type-erased state passed between scheduler versions across a live upgrade
// (section 3.2). The new version must name the exact type the old version
// exported; a mismatch yields nullptr from Take(), which the runtime treats
// as an upgrade error.
class TransferState {
 public:
  TransferState() = default;

  template <typename T>
  static TransferState Of(std::unique_ptr<T> value) {
    TransferState s;
    s.data_ = std::shared_ptr<void>(value.release(), [](void* p) { delete static_cast<T*>(p); });
    s.type_ = &typeid(T);
    return s;
  }

  template <typename T>
  std::unique_ptr<T> Take() {
    if (type_ == nullptr || *type_ != typeid(T) || data_ == nullptr) {
      return nullptr;
    }
    if (taken_ != nullptr) {
      *taken_ = true;
    }
    // The framework hands transfer state to exactly one recipient, so the
    // shared_ptr is unique here.
    T* raw = static_cast<T*>(data_.get());
    auto deleter_holder = data_;
    data_ = nullptr;
    type_ = nullptr;
    // Detach: keep the object alive past the shared_ptr by copying out.
    // To avoid requiring copyability, release via aliasing trick: we know
    // use_count()==1, so steal the pointer and neuter the deleter.
    return std::unique_ptr<T>(new T(std::move(*raw)));
  }

  bool empty() const { return data_ == nullptr; }
  const char* type_name() const { return type_ == nullptr ? "<empty>" : type_->name(); }

  // Consumption probe for the upgrade transaction: the runtime attaches one
  // before handing the state to the incoming module's ReregisterInit, and a
  // successful Take() sets it. A cross-policy upgrade (the types do not
  // match) leaves it false, telling the runtime the carried tokens died and
  // queued tasks must be re-injected as fresh wakeups.
  std::shared_ptr<bool> AttachConsumptionProbe() {
    taken_ = std::make_shared<bool>(false);
    return taken_;
  }

 private:
  std::shared_ptr<void> data_;
  const std::type_info* type_ = nullptr;
  std::shared_ptr<bool> taken_;
};

// Kernel services available to a scheduler module (locks and timers per
// section 3.1; reverse hint queues per section 3.3). Implemented by the
// runtime in the simulated kernel and by a stub in userspace replay.
class EnokiKernelEnv {
 public:
  virtual ~EnokiKernelEnv() = default;

  virtual Time Now() const = 0;
  virtual int NumCpus() const = 0;
  virtual int NodeOf(int cpu) const = 0;

  // The SMT sibling of `cpu`, or -1 when the machine topology has none.
  // Defaulted so pre-portfolio environments (and userspace replay) need no
  // change.
  virtual int SiblingOf(int cpu) const { return -1; }

  // Arms a one-shot per-CPU timer; TimerFired(cpu) is invoked on expiry.
  virtual void ArmTimer(int cpu, Duration delay) = 0;

  // Requests that `cpu` re-enter the scheduler (resched IPI).
  virtual void ReschedCpu(int cpu) = 0;

  // Declares that the module spent `d` of CPU time inside the current
  // callback (beyond the framework's fixed per-call overhead). The runtime
  // charges it through the cost model and counts it against the watchdog's
  // per-callback budget; the replay environment ignores it. This is how a
  // module's own computation — or a FaultInjector's pathological spin —
  // becomes visible to both the simulation clock and fault containment.
  virtual void BusyWait(int cpu, Duration d) {}

  // Pushes a kernel-to-user hint onto reverse queue `queue_id`.
  virtual void PushRevHint(int queue_id, const HintBlob& hint) = 0;
};

// The EnokiScheduler trait (paper Table 1). Method names follow the paper's
// functions one-for-one. A scheduler manages only its own state in response
// to these calls; the framework owns all kernel state.
class EnokiSched {
 public:
  virtual ~EnokiSched() = default;

  // Called once at load (and after upgrade) with the kernel services handle.
  virtual void Attach(EnokiKernelEnv* env) { env_ = env; }

  // get_policy: the policy number this scheduler serves.
  virtual int GetPolicy() const = 0;

  // pick_next_task: return the token of the task to run on `cpu`, or nullopt
  // to leave the CPU idle (ceding it to lower scheduling classes). `curr` is
  // unused by the runtime's requeue-first protocol and always nullopt in
  // kernel operation; it is kept for API fidelity and for replayed traces.
  virtual std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) = 0;

  // pnt_err: the returned token failed validation; ownership comes back.
  virtual void PntErr(int cpu, std::optional<Schedulable> sched) {}

  virtual void TaskDead(uint64_t pid) = 0;
  virtual void TaskBlocked(const TaskMessage& msg) = 0;
  virtual void TaskWakeup(const TaskMessage& msg, Schedulable sched) = 0;
  virtual void TaskNew(const TaskMessage& msg, Schedulable sched) = 0;
  virtual void TaskPreempt(const TaskMessage& msg, Schedulable sched) = 0;
  virtual void TaskYield(const TaskMessage& msg, Schedulable sched) = 0;

  // task_departed: the task is leaving this scheduler; return its token.
  virtual std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) = 0;

  virtual void TaskAffinityChanged(uint64_t pid, const CpuMask& mask) {}
  virtual void TaskPrioChanged(uint64_t pid, int nice) {}

  // task_tick: periodic timer while `pid` runs on `cpu`.
  virtual void TaskTick(int cpu, uint64_t pid, Duration runtime) {}

  // A timer armed via EnokiKernelEnv::ArmTimer fired on `cpu`.
  virtual void TimerFired(int cpu) {}

  // select_task_rq: choose the CPU for a waking or new task.
  virtual int SelectTaskRq(const TaskMessage& msg) = 0;

  // migrate_task_rq: the task moves CPUs; receive the new token, return the
  // old one.
  virtual Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) = 0;

  // balance: offer a task (by pid) to move onto `cpu`, or nullopt.
  virtual std::optional<uint64_t> Balance(int cpu) { return std::nullopt; }

  // balance_err: the offered task could not be moved.
  virtual void BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) {}

  // Live upgrade (section 3.2).
  virtual TransferState ReregisterPrepare() { return {}; }
  virtual void ReregisterInit(TransferState state) {}

  // ---- Checkpointing (recovery ladder; see src/enoki/checkpoint.h) ----
  // A policy checkpoints by returning a non-zero CheckpointVersion() and
  // naming its *accounting* fields (weights, virtual times, placement
  // cursors) in CheckpointFields(). Queue membership and Schedulable tokens
  // must NOT be named: the runtime's kernel-side bookkeeping is
  // authoritative for those, and after a restore it re-injects every queued
  // task as a wakeup carrying a freshly minted token. Without checkpointing
  // the runtime falls back to the non-transactional upgrade/quarantine
  // behavior.
  virtual void CheckpointFields(CheckpointArchive* ar) {}

  // The payload format version SaveCheckpoint writes; 0 = no checkpoints.
  virtual uint32_t CheckpointVersion() const { return 0; }

  // Serializes the field list into `out`; false without checkpoint support.
  virtual bool SaveCheckpoint(ByteWriter* out) const {
    return SaveCheckpointFields(this, CheckpointVersion(), out);
  }

  // Restores a payload saved by an instance whose CheckpointVersion() was
  // `version`. Called on a quiesced instance that holds no tasks. Returns
  // false when the version is unsupported or the payload is malformed; a
  // refused load changes nothing.
  virtual bool LoadCheckpoint(uint32_t version, ByteReader* in) {
    return LoadCheckpointFields(this, version, CheckpointVersion(), in);
  }

  // The probation budgets a freshly upgraded instance of this policy must
  // prove itself under: EnokiRuntime::Upgrade opens the incoming module's
  // probation window with them. Policies whose healthy shape would
  // false-positive the generic defaults — a central dispatcher funnels
  // every pick through one CPU, a work-stealing balancer loses benign races —
  // loosen exactly the budget their mechanism stresses and keep the rest.
  virtual ProbationConfig DefaultProbation() const { return ProbationConfig{}; }

  // Stable identity of this module build for flap damping and checkpoint
  // provenance: the runtime refuses upgrades to a fingerprint that keeps
  // failing probation, and the restore walk skips ring generations saved by
  // a different fingerprint. Folds the concrete type, the policy id, and the
  // checkpoint format version; deterministic within one binary (which is the
  // scope every determinism comparison runs in). Never returns 0 — 0 is the
  // "unknown saver" wildcard in Checkpoint.
  virtual uint64_t VersionFingerprint() const {
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ull;
    };
    for (const char* p = typeid(*this).name(); *p != '\0'; ++p) {
      mix(static_cast<uint8_t>(*p));
    }
    const uint64_t policy = static_cast<uint64_t>(static_cast<int64_t>(GetPolicy()));
    const uint64_t version = CheckpointVersion();
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<uint8_t>(policy >> (8 * i)));
    }
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<uint8_t>(version >> (8 * i)));
    }
    return h == 0 ? 1 : h;
  }

  // Hint queues (section 3.3). The runtime owns the ring buffers and drains
  // user hints into ParseHint synchronously before scheduling decisions
  // (enter_queue); these callbacks tell the scheduler which queue ids exist.
  virtual int RegisterQueue(int queue_id) { return queue_id; }
  virtual int RegisterReverseQueue(int queue_id) { return queue_id; }
  virtual void EnterQueue(int queue_id) {}
  virtual void UnregisterQueue(int queue_id) {}
  virtual void UnregisterRevQueue(int queue_id) {}
  virtual void ParseHint(const HintBlob& hint) {}

 protected:
  EnokiKernelEnv* env_ = nullptr;
};

}  // namespace enoki

#endif  // SRC_ENOKI_API_H_

// Fault containment: deterministic fault injection for Enoki modules.
//
// FaultInjector is an EnokiSched decorator: it wraps any real scheduler
// module and, driven by a seeded Rng, injects the misbehaviors the paper's
// safety story (section 3.1) and our Watchdog exist to contain:
//
//  - stale / wrong-CPU / double-returned Schedulable tokens from
//    pick_next_task (the runtime's validation must catch each one and route
//    ownership back through pnt_err);
//  - dropped enqueues (a wakeup or new-task event swallowed before the
//    inner module sees it — the classic lost-task bug that starves a task);
//  - exceptions escaping any of the main callbacks;
//  - pathological per-callback latency, charged through the cost model via
//    EnokiKernelEnv::BusyWait so the watchdog's budget can see it;
//  - reverse-hint-queue flooding.
//
// Because every fault decision is drawn from the seeded Rng in callback
// order and the simulator is deterministic, identical (seed, workload)
// pairs inject the identical fault sequence — which is what makes the
// 100-seed sweep in tests/fault_test.cc reproducible bit-for-bit.
//
// The injector is also honest about recovery: when a forged token bounces
// back through pnt_err, it re-injects the real (still valid) token into the
// inner module as a wakeup, so a single token fault is survivable and only
// *repeated* faults cross the watchdog's pick-error threshold.

#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/checkpoint.h"

namespace enoki {

// The exception type thrown by injected-throw faults.
struct InjectedFault : public std::runtime_error {
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault: " + site) {}
};

// Per-fault-kind injection rates (Bernoulli per opportunity). All zero by
// default: a default FaultPlan is a transparent pass-through.
struct FaultPlan {
  uint64_t seed = 1;

  double drop_enqueue_rate = 0.0;     // swallow task_new / task_wakeup
  double stale_token_rate = 0.0;      // return a stale-generation token
  double wrong_cpu_token_rate = 0.0;  // return a token minted for another CPU
  double double_return_rate = 0.0;    // return the same proof twice
  double throw_rate = 0.0;            // throw from a callback
  double busy_spin_rate = 0.0;        // burn busy_spin_ns inside a callback
  Duration busy_spin_ns = Milliseconds(20);
  double hint_flood_rate = 0.0;       // burst-write the reverse hint queue
  int hint_flood_burst = 128;

  // Upgrade-boundary faults (the recovery ladder's test surface).
  double prepare_throw_rate = 0.0;  // refuse to quiesce in ReregisterPrepare
  double init_throw_rate = 0.0;     // reject transferred state in ReregisterInit
  // After surviving init, throw from the first `probation_misbehave_count`
  // hot callbacks — misbehavior crafted to land inside a probation window.
  double probation_misbehave_rate = 0.0;
  int probation_misbehave_count = 3;
  // Crash inside SaveCheckpoint (crash-during-CheckpointNow): the save
  // yields no generation, the ring keeps its prior ones, and the runtime
  // escalates the crash to the watchdog. Drawn from a dedicated Rng stream
  // so arming it does not perturb the in-band fault sequence.
  double checkpoint_crash_rate = 0.0;

  // The full fault menu at modest rates: every fault kind is exercised, no
  // single kind dominates. Used by the seeded sweep test and the demo.
  static FaultPlan FullMenu(uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_enqueue_rate = 0.02;
    plan.stale_token_rate = 0.05;
    plan.wrong_cpu_token_rate = 0.05;
    plan.double_return_rate = 0.05;
    plan.throw_rate = 0.02;
    plan.busy_spin_rate = 0.01;
    plan.hint_flood_rate = 0.05;
    return plan;
  }

  // Faults concentrated at the upgrade boundary, for modules installed via
  // Upgrade() in the recovery-ladder sweeps. `checkpoint_faults` adds the
  // ring's own failure modes — crash-during-CheckpointNow here and ring-slot
  // bit-rot via CheckpointSaboteur's slot_rot_rate — for sweeps that drive a
  // periodic cadence; the default keeps the original menu byte-identical.
  static FaultPlan UpgradeMenu(uint64_t seed, bool checkpoint_faults = false) {
    FaultPlan plan;
    plan.seed = seed;
    plan.prepare_throw_rate = 0.2;
    plan.init_throw_rate = 0.3;
    plan.probation_misbehave_rate = 0.4;
    if (checkpoint_faults) {
      plan.checkpoint_crash_rate = 0.15;
    }
    return plan;
  }
};

// Simulated checkpoint-storage corruption: with probability `corrupt_rate`,
// flips one byte of an already *sealed* Checkpoint (bit-rot between save and
// restore), so the runtime's checksum validation must catch it before any
// deserialization happens. `slot_rot_rate` additionally rots an *arbitrary*
// generation already sitting in the ring — checked by the runtime at the
// start of each restore walk, modeling rot discovered at read time rather
// than write time. Both streams are seeded independently of the in-band
// fault stream so arming them does not perturb an injector's fault sequence.
class CheckpointSaboteur {
 public:
  CheckpointSaboteur(uint64_t seed, double corrupt_rate, double slot_rot_rate = 0.0)
      : rng_(seed ^ 0x9e3779b97f4a7c15ull),
        slot_rng_(seed ^ 0xda942042e4dd58b5ull),
        rate_(corrupt_rate),
        slot_rate_(slot_rot_rate) {}

  // Returns true if the checkpoint was corrupted.
  bool MaybeCorrupt(Checkpoint* ck) {
    if (ck->bytes.empty() || rate_ <= 0.0 || !rng_.NextBernoulli(rate_)) {
      return false;
    }
    const size_t idx = static_cast<size_t>(rng_.NextBelow(ck->bytes.size()));
    ck->bytes[idx] ^= 0xFF;
    ++corruptions_;
    return true;
  }

  // Ring-slot bit-rot: picks one stored generation uniformly (any slot, not
  // just the newest) and flips a payload byte — or the checksum itself when
  // the payload is empty. Returns true if a slot was corrupted.
  bool MaybeCorruptSlot(CheckpointStore* store) {
    if (store->empty() || slot_rate_ <= 0.0 || !slot_rng_.NextBernoulli(slot_rate_)) {
      return false;
    }
    Checkpoint* ck = store->MutableFromNewest(static_cast<size_t>(
        slot_rng_.NextBelow(static_cast<uint64_t>(store->size()))));
    if (ck->bytes.empty()) {
      ck->checksum ^= 0xFF;
    } else {
      const size_t idx = static_cast<size_t>(slot_rng_.NextBelow(ck->bytes.size()));
      ck->bytes[idx] ^= 0xFF;
    }
    ++slot_corruptions_;
    return true;
  }

  uint64_t corruptions() const { return corruptions_; }
  uint64_t slot_corruptions() const { return slot_corruptions_; }

 private:
  Rng rng_;
  Rng slot_rng_;
  const double rate_;
  const double slot_rate_;
  uint64_t corruptions_ = 0;
  uint64_t slot_corruptions_ = 0;
};

class FaultInjector : public EnokiSched {
 public:
  struct Counts {
    uint64_t dropped_enqueues = 0;
    uint64_t stale_tokens = 0;
    uint64_t wrong_cpu_tokens = 0;
    uint64_t double_returns = 0;
    uint64_t throws = 0;
    uint64_t busy_spins = 0;
    uint64_t hint_floods = 0;
    uint64_t reinjected = 0;  // real tokens recovered via pnt_err
    uint64_t prepare_throws = 0;
    uint64_t init_throws = 0;
    uint64_t probation_misbehaviors = 0;
    uint64_t checkpoint_crashes = 0;

    uint64_t total() const {
      return dropped_enqueues + stale_tokens + wrong_cpu_tokens + double_returns + throws +
             busy_spins + hint_floods + prepare_throws + init_throws + probation_misbehaviors +
             checkpoint_crashes;
    }
  };

  FaultInjector(std::unique_ptr<EnokiSched> inner, FaultPlan plan);

  EnokiSched* inner() const { return inner_.get(); }
  const Counts& counts() const { return counts_; }

  // ---- EnokiSched (decorated) ----
  void Attach(EnokiKernelEnv* env) override;
  int GetPolicy() const override;

  int SelectTaskRq(const TaskMessage& msg) override;
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  void PntErr(int cpu, std::optional<Schedulable> sched) override;

  void TaskDead(uint64_t pid) override;
  void TaskBlocked(const TaskMessage& msg) override;
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override;
  void TaskNew(const TaskMessage& msg, Schedulable sched) override;
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override;
  void TaskYield(const TaskMessage& msg, Schedulable sched) override;
  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override;
  void TaskAffinityChanged(uint64_t pid, const CpuMask& mask) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;
  void TimerFired(int cpu) override;

  int RegisterQueue(int queue_id) override;
  int RegisterReverseQueue(int queue_id) override;
  void ParseHint(const HintBlob& hint) override;

  std::optional<uint64_t> Balance(int cpu) override;
  void BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) override;
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpointing passes straight through to the inner module: the injector
  // holds no accounting state of its own worth snapshotting, and recovery
  // must be able to restore the real scheduler behind any decorator. The
  // save path is also where crash-during-CheckpointNow is injected.
  bool SaveCheckpoint(ByteWriter* out) const override {
    if (plan_.checkpoint_crash_rate > 0.0 &&
        save_rng_.NextBernoulli(plan_.checkpoint_crash_rate)) {
      ++counts_.checkpoint_crashes;
      throw InjectedFault("save_checkpoint");
    }
    return inner_->SaveCheckpoint(out);
  }
  uint32_t CheckpointVersion() const override { return inner_->CheckpointVersion(); }
  bool LoadCheckpoint(uint32_t version, ByteReader* in) override {
    return inner_->LoadCheckpoint(version, in);
  }

  // Probation budgets and flap-damping identity belong to the real module:
  // the decorator is transparent, so fingerprint refusal of a flapping build
  // keeps working when the sweep wraps every candidate in an injector.
  ProbationConfig DefaultProbation() const override { return inner_->DefaultProbation(); }
  uint64_t VersionFingerprint() const override { return inner_->VersionFingerprint(); }

 private:
  bool Chance(double rate) { return rate > 0.0 && rng_.NextBernoulli(rate); }
  void MaybeThrow(const char* site);
  void MaybeBusySpin(int cpu);
  void MaybeHintFlood();
  // Probation-window misbehavior armed by a surviving ReregisterInit: the
  // next few hot callbacks throw.
  void MaybeMisbehave(const char* site);
  // A wakeup message reconstructed from a stashed token, used to hand the
  // real proof back to the inner module after a forged one bounced.
  void ReinjectStashed(uint64_t pid);

  std::unique_ptr<EnokiSched> inner_;
  const FaultPlan plan_;
  Rng rng_;
  // Dedicated stream for checkpoint-save crashes; mutable because
  // SaveCheckpoint is const on the EnokiSched interface. Seeded off the main
  // seed so arming checkpoint faults leaves the in-band sequence untouched.
  mutable Rng save_rng_{1};
  mutable Counts counts_;

  // Real tokens held back while a forged twin is in flight, keyed by pid.
  std::unordered_map<uint64_t, Schedulable> stashed_;
  // Cloned proofs waiting to be returned a second time (double-return).
  std::vector<std::pair<uint64_t, Schedulable>> replay_tokens_;
  int rev_queue_ = -1;
  // Hot callbacks left to sabotage after an armed ReregisterInit.
  int misbehave_left_ = 0;
};

}  // namespace enoki

#endif  // SRC_FAULT_INJECTOR_H_

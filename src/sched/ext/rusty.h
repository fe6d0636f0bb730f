// NUMA-domain load-balancing scheduler, modeled on sched_ext's scx_rusty.
//
// CPUs are grouped into load-balancing domains, one per NUMA node
// (EnokiKernelEnv::NodeOf). Each domain tracks its runnable weight as a
// half-life decayed running average (ravg.h, like scx_rusty's load tracking)
// rather than an instantaneous count, so placement decisions see sustained
// load, not momentary spikes. Placement is domain-sticky: new tasks go to
// the least-loaded domain, waking tasks stay in theirs. Idle CPUs steal
// within their own domain freely; a cross-domain ("greedy") steal is allowed
// only when the busiest domain's decayed load exceeds the idle CPU's
// domain's by a configurable ratio — the NUMA penalty guard.
//
// An offered steal the kernel rejects (affinity, kick races) puts the task
// on a short steal-ban via BalanceErr, so a pinned task cannot generate a
// storm of failed offers.

#ifndef SRC_SCHED_EXT_RUSTY_H_
#define SRC_SCHED_EXT_RUSTY_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"
#include "src/sched/ext/ravg.h"
#include "src/sched/nice_weights.h"

namespace enoki {

class RustySched : public EnokiSched {
 public:
  struct Ent {
    int domain = 0;
    uint64_t weight = kNice0Weight;
    uint64_t seq = 0;
    Duration last_runtime = 0;
    Duration slice_start_runtime = 0;
    Time steal_ban_until = 0;
    int cpu = 0;
    bool loaded = false;  // currently counted in its domain's weight sum
    bool queued = false;
    bool running = false;
    bool live = false;
  };

  struct Transfer {
    std::vector<Ent> ents;
    std::vector<std::optional<Schedulable>> tokens;
    std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // seq -> pid
    std::vector<RunningAvg> ravgs;
    std::vector<uint64_t> dom_weight;
    uint64_t next_seq = 1;
  };

  static constexpr Duration kDefaultSliceNs = Milliseconds(2);
  static constexpr Duration kDefaultHalfLifeNs = Milliseconds(5);
  static constexpr Duration kStealBanNs = Milliseconds(5);

  // greedy_ratio_pct: a cross-domain steal needs the busiest domain's load
  // to be at least this percentage of ours (200 = 2x). Very large values
  // disable greedy stealing entirely.
  explicit RustySched(int policy_id, uint64_t greedy_ratio_pct = 200,
                      Duration half_life = kDefaultHalfLifeNs)
      : policy_id_(policy_id), greedy_ratio_pct_(greedy_ratio_pct), half_life_(half_life) {}

  void Attach(EnokiKernelEnv* env) override;

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;

  void TaskNew(const TaskMessage& msg, Schedulable sched) override;
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override;
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override;
  void TaskYield(const TaskMessage& msg, Schedulable sched) override;
  void TaskBlocked(const TaskMessage& msg) override;
  void TaskDead(uint64_t pid) override;
  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) override;
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v1: the arrival sequence cursor plus each domain's
  // running-average state, so load history survives a restart instead of
  // every domain looking idle. Instantaneous weight sums are rebuilt as the
  // runtime re-injects tasks.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Per-policy probation budget: rusty's greedy stealing probes queues on
  // other domains, so benign balance misses are routine right after a restore
  // (running averages decayed, steal bans reset). Loosen the balance budget;
  // window length and call count stay at the ladder defaults.
  ProbationConfig DefaultProbation() const override {
    ProbationConfig p;
    p.max_balance_errors = 64;
    return p;
  }

  // Introspection for tests.
  int DomainOf(uint64_t pid);
  uint64_t DomainLoad(int domain);  // decayed average as of now
  int ndomains();
  uint64_t cross_steals();
  uint64_t local_steals();
  size_t QueueDepth(int cpu);

 private:
  void RequeueRunnable(const TaskMessage& msg, Schedulable sched);
  // Builds domain structures from the environment's topology. Caller holds
  // lock_ (or is in Attach, before concurrency starts).
  void EnsureTopologyLocked();
  void AddLoadLocked(Ent& e);
  void SubLoadLocked(Ent& e);

  Ent* FindEnt(uint64_t pid) {
    if (pid >= ents_.size() || !ents_[pid].live) {
      return nullptr;
    }
    return &ents_[pid];
  }
  Ent& EntSlot(uint64_t pid) {
    if (pid >= ents_.size()) {
      ents_.resize(pid + 1);
    }
    return ents_[pid];
  }
  std::optional<Schedulable>& TokSlot(uint64_t pid) {
    if (pid >= tokens_.size()) {
      tokens_.resize(pid + 1);
    }
    return tokens_[pid];
  }

  const int policy_id_;
  const uint64_t greedy_ratio_pct_;
  const Duration half_life_;
  SpinLock lock_;
  std::vector<Ent> ents_;                           // indexed by pid
  std::vector<std::optional<Schedulable>> tokens_;  // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;
  std::vector<int> dom_of_cpu_;
  std::vector<std::vector<int>> dom_cpus_;
  std::vector<RunningAvg> ravgs_;       // per-domain decayed runnable weight
  std::vector<uint64_t> dom_weight_;    // per-domain instantaneous sum
  uint64_t next_seq_ = 1;
  uint64_t cross_steals_ = 0;
  uint64_t local_steals_ = 0;
};

}  // namespace enoki

#endif  // SRC_SCHED_EXT_RUSTY_H_

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

#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"
#include "src/sched/ext/ravg.h"
#include "src/sched/nice_weights.h"

namespace enoki {

struct RustyEnt : QueueEnt {  // key: global arrival sequence
  int domain = 0;
  uint64_t weight = kNice0Weight;
  Duration slice_start_runtime = 0;
  Time steal_ban_until = 0;
  bool loaded = false;  // currently counted in its domain's weight sum
};

class RustySched : public TokenQueueSched<RustySched, RustyEnt> {
 public:
  struct Transfer {
    TokenQueueTable<RustyEnt> table;
    std::vector<RunningAvg> ravgs;
    std::vector<uint64_t> dom_weight;
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

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

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
  uint64_t DomainLoad(int domain);  // decayed average as of now
  int ndomains();
  uint64_t cross_steals();
  uint64_t local_steals();

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  void Adopt(const TaskMessage& msg, RustyEnt& e) { e.weight = NiceToWeight(msg.nice); }
  // Moves the task's load into the domain of `cpu`, then takes the next
  // arrival sequence.
  void Place(const TaskMessage& msg, RustyEnt& e, int cpu, Arrival why);
  void Leave(uint64_t pid, RustyEnt& e) { SubLoadLocked(e); }
  void Migrate(const MigrateMessage& msg, RustyEnt& e);
  // Builds domain structures from the environment's topology.
  void AttachCpus(int ncpus);
  void SaveTransfer(Transfer& t) {
    t.ravgs = std::move(ravgs_);
    t.dom_weight = std::move(dom_weight_);
    ravgs_.clear();
    dom_weight_.clear();
  }
  void LoadTransfer(Transfer& t) {
    ravgs_ = std::move(t.ravgs);
    dom_weight_ = std::move(t.dom_weight);
  }

  void AddLoadLocked(RustyEnt& e);
  void SubLoadLocked(RustyEnt& e);
  // Oldest queued task on any of `cpus` except `self` that is not
  // steal-banned at `now`.
  std::optional<uint64_t> OldestStealable(const std::vector<int>& cpus, int self, Time now);

  const int policy_id_;
  const uint64_t greedy_ratio_pct_;
  const Duration half_life_;
  std::vector<int> dom_of_cpu_;
  std::vector<std::vector<int>> dom_cpus_;
  std::vector<RunningAvg> ravgs_;     // per-domain decayed runnable weight
  std::vector<uint64_t> dom_weight_;  // per-domain instantaneous sum
  uint64_t cross_steals_ = 0;
  uint64_t local_steals_ = 0;
};

// Instantiated once, in rusty.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<RustySched, RustyEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_EXT_RUSTY_H_

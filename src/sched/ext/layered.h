// Layered CPU-allocation scheduler, modeled on sched_ext's scx_layered.
//
// Tasks are matched into layers by nice value (the simulator's stand-in for
// scx_layered's cgroup/comm matchers). Each layer declares a number of
// guaranteed CPUs — carved out contiguously in layer order and owned by that
// layer — a weight, and whether it is "open" (may overflow onto CPUs it does
// not own). CPUs left over after carving are shared by everyone.
//
// Pick order on a CPU: the owner layer's tasks run first (that is the
// guarantee); otherwise the queued layers arbitrate by weighted virtual
// time, CFS-style — each pick advances the winning layer's vtime by
// quantum * kNice0Weight / weight, so a layer's long-run share of the shared
// CPUs is proportional to its weight.

#ifndef SRC_SCHED_EXT_LAYERED_H_
#define SRC_SCHED_EXT_LAYERED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/flat_multimap.h"
#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"
#include "src/sched/nice_weights.h"

namespace enoki {

struct LayerSpec {
  std::string name;
  uint64_t weight = 100;    // weighted arbitration on non-owned CPUs
  int guaranteed_cpus = 0;  // CPUs owned exclusively-first by this layer
  bool open = true;         // may run on CPUs owned by other layers
  int nice_min = -20;       // matching rule: first layer containing the
  int nice_max = 19;        // task's nice value wins; last layer is fallback
};

class LayeredSched : public EnokiSched {
 public:
  struct Ent {
    int layer = 0;
    uint64_t seq = 0;
    Duration last_runtime = 0;
    Duration slice_start_runtime = 0;
    int cpu = 0;
    bool queued = false;
    bool running = false;
    bool live = false;
  };

  struct Transfer {
    std::vector<Ent> ents;
    std::vector<std::optional<Schedulable>> tokens;
    std::vector<FlatMultimap<uint64_t, uint64_t>> queues;  // seq -> pid
    std::vector<uint64_t> layer_vtime;
    uint64_t next_seq = 1;
  };

  static constexpr Duration kDefaultSliceNs = Milliseconds(1) + 500'000;  // 1.5 ms
  static constexpr uint64_t kVtimeQuantum = 1'000'000;

  // A three-tier default: a closed latency layer with guaranteed CPUs, an
  // open normal layer, and a low-weight open batch layer.
  static std::vector<LayerSpec> DefaultThreeTier(int ncpus);

  LayeredSched(int policy_id, std::vector<LayerSpec> layers);

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
  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  TransferState ReregisterPrepare() override;
  void ReregisterInit(TransferState state) override;

  // Checkpoint format v1: per-layer virtual times plus the arrival sequence
  // cursor. Layer membership is re-derived from each task's nice value when
  // the runtime re-injects it, so it is not serialized. A checkpoint from a
  // differently-configured instance (layer count mismatch) is rejected.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Introspection for tests.
  int LayerOf(uint64_t pid);
  uint64_t VtimeOf(int layer);
  uint64_t PicksIn(int layer);
  int OwnerOfCpu(int cpu);
  size_t QueueDepth(int cpu);
  int nlayers() const { return static_cast<int>(layers_.size()); }

 private:
  void RequeueRunnable(const TaskMessage& msg, Schedulable sched);
  int MatchLayerLocked(int nice) const;
  // May layer's tasks run on cpu? Owner layer yes, shared CPUs yes, open
  // layers everywhere.
  bool AllowedLocked(int layer, int cpu) const {
    const int owner = owner_of_cpu_[cpu];
    return owner == layer || owner == -1 || layers_[layer].open;
  }

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
  const std::vector<LayerSpec> layers_;
  SpinLock lock_;
  std::vector<Ent> ents_;                           // indexed by pid
  std::vector<std::optional<Schedulable>> tokens_;  // indexed by pid
  std::vector<FlatMultimap<uint64_t, uint64_t>> queues_;
  std::vector<int> owner_of_cpu_;  // layer index, -1 = shared
  std::vector<uint64_t> layer_vtime_;
  std::vector<uint64_t> layer_picks_;
  uint64_t next_seq_ = 1;
};

}  // namespace enoki

#endif  // SRC_SCHED_EXT_LAYERED_H_

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

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"
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

struct LayeredEnt : QueueEnt {  // key: global arrival sequence
  int layer = 0;
  Duration slice_start_runtime = 0;
};

class LayeredSched : public TokenQueueSched<LayeredSched, LayeredEnt> {
 public:
  struct Transfer {
    TokenQueueTable<LayeredEnt> table;
    std::vector<uint64_t> layer_vtime;
  };

  static constexpr Duration kDefaultSliceNs = Milliseconds(1) + 500'000;  // 1.5 ms
  static constexpr uint64_t kVtimeQuantum = 1'000'000;

  // A three-tier default: a closed latency layer with guaranteed CPUs, an
  // open normal layer, and a low-weight open batch layer.
  static std::vector<LayerSpec> DefaultThreeTier(int ncpus);

  LayeredSched(int policy_id, std::vector<LayerSpec> layers);

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;
  void TaskPrioChanged(uint64_t pid, int nice) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;

  // Checkpoint format v1: per-layer virtual times plus the arrival sequence
  // cursor. Layer membership is re-derived from each task's nice value when
  // the runtime re-injects it, so it is not serialized. A checkpoint from a
  // differently-configured instance (layer count mismatch) is rejected.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Introspection for tests.
  uint64_t VtimeOf(int layer);
  uint64_t PicksIn(int layer);
  int nlayers() const { return static_cast<int>(layers_.size()); }

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  void Adopt(const TaskMessage& msg, LayeredEnt& e) { e.layer = MatchLayerLocked(msg.nice); }
  // Carves guaranteed CPUs contiguously in layer order; the rest are
  // shared. Over-subscription just truncates the later layers' carve.
  void AttachCpus(int ncpus);
  void SaveTransfer(Transfer& t) {
    t.layer_vtime = std::move(layer_vtime_);
    layer_vtime_.assign(layers_.size(), 0);
  }
  void LoadTransfer(Transfer& t) {
    if (t.layer_vtime.size() == layers_.size()) {
      layer_vtime_ = std::move(t.layer_vtime);
    }
  }

  int MatchLayerLocked(int nice) const;
  // May layer's tasks run on cpu? Owner layer yes, shared CPUs yes, open
  // layers everywhere.
  bool AllowedLocked(int layer, int cpu) const {
    const int owner = owner_of_cpu_[cpu];
    return owner == layer || owner == -1 || layers_[layer].open;
  }

  const int policy_id_;
  const std::vector<LayerSpec> layers_;
  std::vector<int> owner_of_cpu_;  // layer index, -1 = shared
  std::vector<uint64_t> layer_vtime_;
  std::vector<uint64_t> layer_picks_;
};

// Instantiated once, in layered.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<LayeredSched, LayeredEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_EXT_LAYERED_H_

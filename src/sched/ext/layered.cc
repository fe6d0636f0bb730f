#include "src/sched/ext/layered.h"

#include <algorithm>

namespace enoki {

template class TokenQueueSched<LayeredSched, LayeredEnt>;

std::vector<LayerSpec> LayeredSched::DefaultThreeTier(int ncpus) {
  const int quarter = std::max(1, ncpus / 4);
  return {
      {"latency", /*weight=*/400, /*guaranteed_cpus=*/quarter, /*open=*/false,
       /*nice_min=*/-20, /*nice_max=*/-5},
      {"normal", /*weight=*/100, /*guaranteed_cpus=*/quarter, /*open=*/true,
       /*nice_min=*/-4, /*nice_max=*/4},
      {"batch", /*weight=*/25, /*guaranteed_cpus=*/0, /*open=*/true,
       /*nice_min=*/5, /*nice_max=*/19},
  };
}

LayeredSched::LayeredSched(int policy_id, std::vector<LayerSpec> layers)
    : policy_id_(policy_id), layers_(std::move(layers)) {
  ENOKI_CHECK(!layers_.empty() && layers_.size() <= 64);
  for (const LayerSpec& l : layers_) {
    ENOKI_CHECK(l.weight > 0);
  }
  layer_vtime_.assign(layers_.size(), 0);
  layer_picks_.assign(layers_.size(), 0);
}

void LayeredSched::AttachCpus(int ncpus) {
  owner_of_cpu_.assign(static_cast<size_t>(ncpus), -1);
  int next = 0;
  for (size_t li = 0; li < layers_.size(); ++li) {
    for (int k = 0; k < layers_[li].guaranteed_cpus && next < ncpus; ++k) {
      owner_of_cpu_[next++] = static_cast<int>(li);
    }
  }
}

int LayeredSched::MatchLayerLocked(int nice) const {
  for (size_t li = 0; li < layers_.size(); ++li) {
    if (nice >= layers_[li].nice_min && nice <= layers_[li].nice_max) {
      return static_cast<int>(li);
    }
  }
  return static_cast<int>(layers_.size()) - 1;
}

int LayeredSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  const LayeredEnt* e = table_.Find(msg.pid);
  const int layer = e != nullptr ? e->layer : MatchLayerLocked(msg.nice);
  // Least-loaded allowed CPU; ties prefer owned over shared over foreign.
  int best = -1;
  size_t best_len = ~size_t{0};
  int best_tier = 3;
  for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
    if (!AllowedLocked(layer, cpu)) {
      continue;
    }
    const int owner = owner_of_cpu_[cpu];
    const int tier = owner == layer ? 0 : owner == -1 ? 1 : 2;
    const size_t len = table_.Load(cpu);
    if (len < best_len || (len == best_len && tier < best_tier)) {
      best = cpu;
      best_len = len;
      best_tier = tier;
    }
  }
  if (best >= 0) {
    return best;
  }
  // A closed layer with no owned or shared CPUs (degenerate config): fall
  // back to the globally shortest queue rather than strand the task.
  int fallback = 0;
  size_t fallback_len = ~size_t{0};
  for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
    if (table_.queues[cpu].size() < fallback_len) {
      fallback = cpu;
      fallback_len = table_.queues[cpu].size();
    }
  }
  return fallback;
}

void LayeredSched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  if (LayeredEnt* e = table_.Find(pid)) {
    e->layer = MatchLayerLocked(nice);
  }
}

std::optional<Schedulable> LayeredSched::PickNextTask(int cpu,
                                                       std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  const auto& q = table_.queues[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const int owner = owner_of_cpu_[cpu];
  size_t idx = q.size();
  if (owner >= 0) {
    // The guarantee: the owner layer's oldest task runs first.
    for (size_t i = 0; i < q.size(); ++i) {
      if (table_.ents[q[i].second].layer == owner) {
        idx = i;
        break;
      }
    }
  }
  if (idx == q.size()) {
    // Weighted arbitration: of the layers with queued work here, the one
    // with the lowest virtual time wins; within a layer, FIFO by seq.
    int best_layer = -1;
    size_t best_i = 0;
    uint64_t seen = 0;  // bitmask of layers already considered (oldest wins)
    for (size_t i = 0; i < q.size(); ++i) {
      const int L = table_.ents[q[i].second].layer;
      if (seen & (1ull << L)) {
        continue;
      }
      seen |= 1ull << L;
      if (!AllowedLocked(L, cpu)) {
        continue;
      }
      if (best_layer < 0 || layer_vtime_[L] < layer_vtime_[best_layer]) {
        best_layer = L;
        best_i = i;
      }
    }
    // Only disallowed entries queued here (runtime-forced placements):
    // run the oldest anyway rather than strand it.
    idx = best_layer >= 0 ? best_i : 0;
  }
  return table_.Pick(cpu, idx, [&](uint64_t, LayeredEnt& e) {
    e.slice_start_runtime = e.last_runtime;
    layer_vtime_[e.layer] += kVtimeQuantum * kNice0Weight / layers_[e.layer].weight;
    ++layer_picks_[e.layer];
  });
}

std::optional<uint64_t> LayeredSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  const int owner = owner_of_cpu_[cpu];
  // First preference: reclaim the owner layer's oldest task from anywhere
  // (the guarantee extends across queues). Otherwise: the oldest waiting
  // task allowed to run here.
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t best_seq = ~0ull;
    std::optional<uint64_t> best;
    for (int c = 0; c < static_cast<int>(table_.queues.size()); ++c) {
      if (c == cpu) {
        continue;
      }
      const auto& q = table_.queues[c];
      for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].first >= best_seq) {
          break;
        }
        const int L = table_.ents[q[i].second].layer;
        const bool want = pass == 0 ? (owner >= 0 && L == owner) : AllowedLocked(L, cpu);
        if (want) {
          best_seq = q[i].first;
          best = q[i].second;
          break;
        }
      }
    }
    if (best.has_value()) {
      return best;
    }
    if (owner < 0) {
      break;  // pass 0 is meaningless on shared CPUs
    }
  }
  return std::nullopt;
}

void LayeredSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  LayeredEnt* found = table_.Find(pid);
  if (found == nullptr) {
    return;
  }
  LayeredEnt& e = *found;
  Charge(e, runtime);
  const auto& q = table_.queues[cpu];
  if (q.empty()) {
    return;
  }
  const int owner = owner_of_cpu_[cpu];
  if (owner >= 0 && e.layer != owner) {
    // An owner-layer task is waiting behind a guest: evict immediately.
    for (size_t i = 0; i < q.size(); ++i) {
      if (table_.ents[q[i].second].layer == owner) {
        env_->ReschedCpu(cpu);
        return;
      }
    }
  }
  if (e.last_runtime - e.slice_start_runtime >= kDefaultSliceNs) {
    env_->ReschedCpu(cpu);
  }
}

void LayeredSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  // Layer config is constructor state: a vtime vector of another length
  // cannot be mapped onto these layers.
  ar->Array(&layer_vtime_, CheckpointArchive::Fold::kExact);
  ar->NonZero(&table_.next_seq);
}

uint64_t LayeredSched::VtimeOf(int layer) {
  SpinLockGuard g(lock_);
  return layer_vtime_[layer];
}

uint64_t LayeredSched::PicksIn(int layer) {
  SpinLockGuard g(lock_);
  return layer_picks_[layer];
}

}  // namespace enoki

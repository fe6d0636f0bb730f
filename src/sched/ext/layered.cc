#include "src/sched/ext/layered.h"

#include <algorithm>

namespace enoki {

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

void LayeredSched::Attach(EnokiKernelEnv* env) {
  EnokiSched::Attach(env);
  const int ncpus = env->NumCpus();
  if (owner_of_cpu_.empty()) {
    // Carve guaranteed CPUs contiguously in layer order; the rest are
    // shared. Over-subscription just truncates the later layers' carve.
    owner_of_cpu_.assign(static_cast<size_t>(ncpus), -1);
    int next = 0;
    for (size_t li = 0; li < layers_.size(); ++li) {
      for (int k = 0; k < layers_[li].guaranteed_cpus && next < ncpus; ++k) {
        owner_of_cpu_[next++] = static_cast<int>(li);
      }
    }
  }
  if (queues_.empty()) {
    queues_.resize(static_cast<size_t>(ncpus));
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
  Ent* e = FindEnt(msg.pid);
  const int layer = e != nullptr ? e->layer : MatchLayerLocked(msg.nice);
  // Least-loaded allowed CPU; ties prefer owned over shared over foreign.
  int best = -1;
  size_t best_len = ~size_t{0};
  int best_tier = 3;
  for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
    if (!AllowedLocked(layer, cpu)) {
      continue;
    }
    const int owner = owner_of_cpu_[cpu];
    const int tier = owner == layer ? 0 : owner == -1 ? 1 : 2;
    size_t len = queues_[cpu].size();
    for (const Ent& o : ents_) {
      if (o.live && o.running && o.cpu == cpu) {
        ++len;
        break;
      }
    }
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
  for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
    if (queues_[cpu].size() < fallback_len) {
      fallback = cpu;
      fallback_len = queues_[cpu].size();
    }
  }
  return fallback;
}

void LayeredSched::TaskNew(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  const int cpu = sched.cpu();
  Ent& e = EntSlot(msg.pid);
  e = Ent{};
  e.live = true;
  e.layer = MatchLayerLocked(msg.nice);
  e.last_runtime = msg.runtime;
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
}

void LayeredSched::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void LayeredSched::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void LayeredSched::TaskYield(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void LayeredSched::RequeueRunnable(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  if (found == nullptr) {
    Ent& slot = EntSlot(msg.pid);
    slot = Ent{};
    slot.live = true;
    slot.layer = MatchLayerLocked(msg.nice);
    slot.last_runtime = msg.runtime;
    found = &slot;
  }
  Ent& e = *found;
  if (msg.runtime > e.last_runtime) {
    e.last_runtime = msg.runtime;
  }
  e.running = false;
  if (e.queued) {
    queues_[e.cpu].erase_one(e.seq, msg.pid);
  }
  const int cpu = sched.cpu();
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
}

void LayeredSched::TaskBlocked(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e == nullptr) {
    return;
  }
  if (msg.runtime > e->last_runtime) {
    e->last_runtime = msg.runtime;
  }
  if (e->queued) {
    queues_[e->cpu].erase_one(e->seq, msg.pid);
    e->queued = false;
  }
  e->running = false;
  if (msg.pid < tokens_.size()) {
    tokens_[msg.pid].reset();
  }
}

void LayeredSched::TaskDead(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, pid);
    }
    *e = Ent{};
  }
  if (pid < tokens_.size()) {
    tokens_[pid].reset();
  }
}

std::optional<Schedulable> LayeredSched::TaskDeparted(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, msg.pid);
    }
    *e = Ent{};
  }
  if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid].reset();
  return s;
}

void LayeredSched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  if (Ent* e = FindEnt(pid)) {
    e->layer = MatchLayerLocked(nice);
  }
}

std::optional<Schedulable> LayeredSched::PickNextTask(int cpu,
                                                       std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  auto& q = queues_[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const int owner = owner_of_cpu_[cpu];
  size_t idx = q.size();
  if (owner >= 0) {
    // The guarantee: the owner layer's oldest task runs first.
    for (size_t i = 0; i < q.size(); ++i) {
      if (ents_[q[i].second].layer == owner) {
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
      const int L = ents_[q[i].second].layer;
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
  const uint64_t pid = q[idx].second;
  q.erase_at(idx);
  Ent* e = FindEnt(pid);
  ENOKI_CHECK(e != nullptr);
  e->queued = false;
  e->running = true;
  e->slice_start_runtime = e->last_runtime;
  layer_vtime_[e->layer] += kVtimeQuantum * kNice0Weight / layers_[e->layer].weight;
  ++layer_picks_[e->layer];
  if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[pid]);
  tokens_[pid].reset();
  return s;
}

std::optional<uint64_t> LayeredSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!queues_[cpu].empty()) {
    return std::nullopt;
  }
  const int owner = owner_of_cpu_[cpu];
  // First preference: reclaim the owner layer's oldest task from anywhere
  // (the guarantee extends across queues). Otherwise: the oldest waiting
  // task allowed to run here.
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t best_seq = ~0ull;
    std::optional<uint64_t> best;
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (c == cpu) {
        continue;
      }
      const auto& q = queues_[c];
      for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].first >= best_seq) {
          break;
        }
        const int L = ents_[q[i].second].layer;
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

Schedulable LayeredSched::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  ENOKI_CHECK(found != nullptr);
  Ent& e = *found;
  if (msg.runtime > e.last_runtime) {
    e.last_runtime = msg.runtime;
  }
  if (e.queued) {
    queues_[e.cpu].erase_one(e.seq, msg.pid);
  }
  e.cpu = msg.to_cpu;
  e.queued = true;
  queues_[msg.to_cpu].emplace(e.seq, msg.pid);
  ENOKI_CHECK(msg.pid < tokens_.size() && tokens_[msg.pid].has_value());
  Schedulable old = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid] = std::move(sched);
  return old;
}

void LayeredSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(pid);
  if (found == nullptr) {
    return;
  }
  Ent& e = *found;
  if (runtime > e.last_runtime) {
    e.last_runtime = runtime;
  }
  const auto& q = queues_[cpu];
  if (q.empty()) {
    return;
  }
  const int owner = owner_of_cpu_[cpu];
  if (owner >= 0 && e.layer != owner) {
    // An owner-layer task is waiting behind a guest: evict immediately.
    for (size_t i = 0; i < q.size(); ++i) {
      if (ents_[q[i].second].layer == owner) {
        env_->ReschedCpu(cpu);
        return;
      }
    }
  }
  if (e.last_runtime - e.slice_start_runtime >= kDefaultSliceNs) {
    env_->ReschedCpu(cpu);
  }
}

TransferState LayeredSched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->ents = std::move(ents_);
  t->tokens = std::move(tokens_);
  t->queues = std::move(queues_);
  t->layer_vtime = std::move(layer_vtime_);
  t->next_seq = next_seq_;
  ents_.clear();
  tokens_.clear();
  queues_.clear();
  layer_vtime_.assign(layers_.size(), 0);
  next_seq_ = 1;
  return TransferState::Of(std::move(t));
}

void LayeredSched::ReregisterInit(TransferState state) {
  if (state.empty()) {
    return;
  }
  auto t = state.Take<Transfer>();
  if (t == nullptr) {
    return;
  }
  SpinLockGuard g(lock_);
  ents_ = std::move(t->ents);
  tokens_ = std::move(t->tokens);
  queues_ = std::move(t->queues);
  if (t->layer_vtime.size() == layers_.size()) {
    layer_vtime_ = std::move(t->layer_vtime);
  }
  next_seq_ = t->next_seq;
}

void LayeredSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  // Layer config is constructor state: a vtime vector of another length
  // cannot be mapped onto these layers.
  ar->Array(&layer_vtime_, CheckpointArchive::Fold::kExact);
  ar->NonZero(&next_seq_);
}

int LayeredSched::LayerOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  return e == nullptr ? -1 : e->layer;
}

uint64_t LayeredSched::VtimeOf(int layer) {
  SpinLockGuard g(lock_);
  return layer_vtime_[layer];
}

uint64_t LayeredSched::PicksIn(int layer) {
  SpinLockGuard g(lock_);
  return layer_picks_[layer];
}

int LayeredSched::OwnerOfCpu(int cpu) {
  SpinLockGuard g(lock_);
  return owner_of_cpu_[cpu];
}

size_t LayeredSched::QueueDepth(int cpu) {
  SpinLockGuard g(lock_);
  return queues_[cpu].size();
}

}  // namespace enoki

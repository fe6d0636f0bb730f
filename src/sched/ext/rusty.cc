#include "src/sched/ext/rusty.h"

#include <algorithm>

namespace enoki {

void RustySched::Attach(EnokiKernelEnv* env) {
  EnokiSched::Attach(env);
  EnsureTopologyLocked();
}

void RustySched::EnsureTopologyLocked() {
  if (!queues_.empty() || env_ == nullptr) {
    return;
  }
  const int ncpus = env_->NumCpus();
  queues_.resize(static_cast<size_t>(ncpus));
  dom_of_cpu_.resize(static_cast<size_t>(ncpus));
  int ndoms = 0;
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    dom_of_cpu_[cpu] = env_->NodeOf(cpu);
    ndoms = std::max(ndoms, dom_of_cpu_[cpu] + 1);
  }
  dom_cpus_.assign(static_cast<size_t>(ndoms), {});
  for (int cpu = 0; cpu < ncpus; ++cpu) {
    dom_cpus_[dom_of_cpu_[cpu]].push_back(cpu);
  }
  ravgs_.assign(static_cast<size_t>(ndoms), RunningAvg(half_life_));
  dom_weight_.assign(static_cast<size_t>(ndoms), 0);
}

void RustySched::AddLoadLocked(Ent& e) {
  if (e.loaded) {
    return;
  }
  e.loaded = true;
  dom_weight_[e.domain] += e.weight;
  ravgs_[e.domain].Set(env_->Now(), dom_weight_[e.domain]);
}

void RustySched::SubLoadLocked(Ent& e) {
  if (!e.loaded) {
    return;
  }
  e.loaded = false;
  dom_weight_[e.domain] -= std::min(dom_weight_[e.domain], e.weight);
  ravgs_[e.domain].Set(env_->Now(), dom_weight_[e.domain]);
}

int RustySched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  int domain;
  if (e != nullptr) {
    // Domain-sticky: waking tasks stay where their cache footprint is.
    domain = e->domain;
  } else {
    // New (or first-sighted) tasks go to the domain with the least decayed
    // load; ties prefer the lower index.
    const Time now = env_->Now();
    domain = 0;
    uint64_t best_load = ~0ull;
    for (int d = 0; d < static_cast<int>(ravgs_.size()); ++d) {
      const uint64_t load = ravgs_[d].Read(now);
      if (load < best_load) {
        best_load = load;
        domain = d;
      }
    }
  }
  // Shortest queue within the domain, counting the running task as load.
  int best = dom_cpus_[domain].empty() ? 0 : dom_cpus_[domain].front();
  size_t best_len = ~size_t{0};
  for (int cpu : dom_cpus_[domain]) {
    size_t len = queues_[cpu].size();
    for (const Ent& o : ents_) {
      if (o.live && o.running && o.cpu == cpu) {
        ++len;
        break;
      }
    }
    if (len < best_len) {
      best_len = len;
      best = cpu;
    }
  }
  return best;
}

void RustySched::TaskNew(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  const int cpu = sched.cpu();
  Ent& e = EntSlot(msg.pid);
  e = Ent{};
  e.live = true;
  e.weight = NiceToWeight(msg.nice);
  e.last_runtime = msg.runtime;
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.domain = dom_of_cpu_[cpu];
  e.queued = true;
  AddLoadLocked(e);
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
}

void RustySched::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void RustySched::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void RustySched::TaskYield(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void RustySched::RequeueRunnable(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  if (found == nullptr) {
    Ent& slot = EntSlot(msg.pid);
    slot = Ent{};
    slot.live = true;
    slot.weight = NiceToWeight(msg.nice);
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
  const int domain = dom_of_cpu_[cpu];
  if (e.loaded && domain != e.domain) {
    SubLoadLocked(e);
  }
  e.domain = domain;
  AddLoadLocked(e);
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
}

void RustySched::TaskBlocked(const TaskMessage& msg) {
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
  SubLoadLocked(*e);
  if (msg.pid < tokens_.size()) {
    tokens_[msg.pid].reset();
  }
}

void RustySched::TaskDead(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, pid);
    }
    SubLoadLocked(*e);
    *e = Ent{};
  }
  if (pid < tokens_.size()) {
    tokens_[pid].reset();
  }
}

std::optional<Schedulable> RustySched::TaskDeparted(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, msg.pid);
    }
    SubLoadLocked(*e);
    *e = Ent{};
  }
  if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid].reset();
  return s;
}

void RustySched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e == nullptr) {
    return;
  }
  // Swap the old weight out of the domain sum for the new one.
  const bool was_loaded = e->loaded;
  if (was_loaded) {
    SubLoadLocked(*e);
  }
  e->weight = NiceToWeight(nice);
  if (was_loaded) {
    AddLoadLocked(*e);
  }
}

std::optional<Schedulable> RustySched::PickNextTask(int cpu,
                                                    std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  auto& q = queues_[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const uint64_t pid = q.front().second;
  q.pop_front();
  Ent* e = FindEnt(pid);
  ENOKI_CHECK(e != nullptr);
  e->queued = false;
  e->running = true;
  e->slice_start_runtime = e->last_runtime;
  if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[pid]);
  tokens_[pid].reset();
  return s;
}

std::optional<uint64_t> RustySched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!queues_[cpu].empty()) {
    return std::nullopt;
  }
  const Time now = env_->Now();
  const int dom = dom_of_cpu_[cpu];
  // Pass 1: free stealing inside our own domain (oldest first).
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c : dom_cpus_[dom]) {
    if (c == cpu) {
      continue;
    }
    const auto& q = queues_[c];
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].first >= best_seq) {
        break;
      }
      if (ents_[q[i].second].steal_ban_until <= now) {
        best_seq = q[i].first;
        best = q[i].second;
        break;
      }
    }
  }
  if (best.has_value()) {
    return best;
  }
  // Pass 2: greedy cross-domain steal, gated on the load ratio.
  const uint64_t my_load = ravgs_[dom].Read(now);
  int busiest = -1;
  uint64_t busiest_load = 0;
  for (int d = 0; d < static_cast<int>(ravgs_.size()); ++d) {
    if (d == dom) {
      continue;
    }
    const uint64_t load = ravgs_[d].Read(now);
    if (load > busiest_load) {
      busiest_load = load;
      busiest = d;
    }
  }
  if (busiest < 0 || busiest_load * 100 < std::max<uint64_t>(my_load, 1) * greedy_ratio_pct_) {
    return std::nullopt;
  }
  best_seq = ~0ull;
  for (int c : dom_cpus_[busiest]) {
    const auto& q = queues_[c];
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].first >= best_seq) {
        break;
      }
      if (ents_[q[i].second].steal_ban_until <= now) {
        best_seq = q[i].first;
        best = q[i].second;
        break;
      }
    }
  }
  return best;
}

void RustySched::BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) {
  SpinLockGuard g(lock_);
  // The kernel refused the move (affinity, kick race): back this task off
  // the steal candidate list briefly so we don't spin on failed offers.
  if (Ent* e = FindEnt(pid)) {
    e->steal_ban_until = env_->Now() + kStealBanNs;
  }
}

Schedulable RustySched::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
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
  const int to_dom = dom_of_cpu_[msg.to_cpu];
  if (to_dom != e.domain) {
    ++cross_steals_;
    SubLoadLocked(e);
    e.domain = to_dom;
    AddLoadLocked(e);
  } else {
    ++local_steals_;
  }
  e.cpu = msg.to_cpu;
  e.queued = true;
  queues_[msg.to_cpu].emplace(e.seq, msg.pid);
  ENOKI_CHECK(msg.pid < tokens_.size() && tokens_[msg.pid].has_value());
  Schedulable old = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid] = std::move(sched);
  return old;
}

void RustySched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(pid);
  if (found == nullptr) {
    return;
  }
  Ent& e = *found;
  if (runtime > e.last_runtime) {
    e.last_runtime = runtime;
  }
  if (!queues_[cpu].empty() && e.last_runtime - e.slice_start_runtime >= kDefaultSliceNs) {
    env_->ReschedCpu(cpu);
  }
}

TransferState RustySched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->ents = std::move(ents_);
  t->tokens = std::move(tokens_);
  t->queues = std::move(queues_);
  t->ravgs = std::move(ravgs_);
  t->dom_weight = std::move(dom_weight_);
  t->next_seq = next_seq_;
  ents_.clear();
  tokens_.clear();
  queues_.clear();
  ravgs_.clear();
  dom_weight_.clear();
  next_seq_ = 1;
  return TransferState::Of(std::move(t));
}

void RustySched::ReregisterInit(TransferState state) {
  if (state.empty()) {
    EnsureTopologyLocked();
    return;
  }
  auto t = state.Take<Transfer>();
  if (t == nullptr) {
    EnsureTopologyLocked();
    return;
  }
  SpinLockGuard g(lock_);
  ents_ = std::move(t->ents);
  tokens_ = std::move(t->tokens);
  queues_ = std::move(t->queues);
  ravgs_ = std::move(t->ravgs);
  dom_weight_ = std::move(t->dom_weight);
  next_seq_ = t->next_seq;
}

void RustySched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&next_seq_);
  // Domains beyond this machine's count are dropped; missing ones keep a
  // fresh history.
  ar->Elements(&ravgs_, /*max_len=*/64, [&](RunningAvg* r) { r->CheckpointFields(ar); });
}

int RustySched::DomainOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  return e == nullptr ? -1 : e->domain;
}

uint64_t RustySched::DomainLoad(int domain) {
  SpinLockGuard g(lock_);
  return ravgs_[domain].Read(env_->Now());
}

int RustySched::ndomains() {
  SpinLockGuard g(lock_);
  return static_cast<int>(dom_cpus_.size());
}

uint64_t RustySched::cross_steals() {
  SpinLockGuard g(lock_);
  return cross_steals_;
}

uint64_t RustySched::local_steals() {
  SpinLockGuard g(lock_);
  return local_steals_;
}

size_t RustySched::QueueDepth(int cpu) {
  SpinLockGuard g(lock_);
  return queues_[cpu].size();
}

}  // namespace enoki

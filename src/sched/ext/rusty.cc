#include "src/sched/ext/rusty.h"

#include <algorithm>

namespace enoki {

template class TokenQueueSched<RustySched, RustyEnt>;

void RustySched::AttachCpus(int ncpus) {
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

void RustySched::AddLoadLocked(RustyEnt& e) {
  if (e.loaded) {
    return;
  }
  e.loaded = true;
  dom_weight_[e.domain] += e.weight;
  ravgs_[e.domain].Set(env_->Now(), dom_weight_[e.domain]);
}

void RustySched::SubLoadLocked(RustyEnt& e) {
  if (!e.loaded) {
    return;
  }
  e.loaded = false;
  dom_weight_[e.domain] -= std::min(dom_weight_[e.domain], e.weight);
  ravgs_[e.domain].Set(env_->Now(), dom_weight_[e.domain]);
}

int RustySched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  const RustyEnt* e = table_.Find(msg.pid);
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
    const size_t len = table_.Load(cpu);
    if (len < best_len) {
      best_len = len;
      best = cpu;
    }
  }
  return best;
}

void RustySched::Place(const TaskMessage& msg, RustyEnt& e, int cpu, Arrival why) {
  const int domain = dom_of_cpu_[cpu];
  if (e.loaded && domain != e.domain) {
    SubLoadLocked(e);
  }
  e.domain = domain;
  AddLoadLocked(e);
  e.key = table_.next_seq++;
}

void RustySched::Migrate(const MigrateMessage& msg, RustyEnt& e) {
  const int to_dom = dom_of_cpu_[msg.to_cpu];
  if (to_dom != e.domain) {
    ++cross_steals_;
    SubLoadLocked(e);
    e.domain = to_dom;
    AddLoadLocked(e);
  } else {
    ++local_steals_;
  }
}

void RustySched::TaskPrioChanged(uint64_t pid, int nice) {
  SpinLockGuard g(lock_);
  RustyEnt* e = table_.Find(pid);
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
  if (table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  return table_.Pick(cpu, 0, [](uint64_t, RustyEnt& e) {
    e.slice_start_runtime = e.last_runtime;
  });
}

std::optional<uint64_t> RustySched::OldestStealable(const std::vector<int>& cpus, int self,
                                                    Time now) {
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c : cpus) {
    if (c == self) {
      continue;
    }
    const auto& q = table_.queues[c];
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].first >= best_seq) {
        break;
      }
      if (table_.ents[q[i].second].steal_ban_until <= now) {
        best_seq = q[i].first;
        best = q[i].second;
        break;
      }
    }
  }
  return best;
}

std::optional<uint64_t> RustySched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  const Time now = env_->Now();
  const int dom = dom_of_cpu_[cpu];
  // Pass 1: free stealing inside our own domain (oldest first).
  if (std::optional<uint64_t> best = OldestStealable(dom_cpus_[dom], cpu, now)) {
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
  return OldestStealable(dom_cpus_[busiest], cpu, now);
}

void RustySched::BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) {
  SpinLockGuard g(lock_);
  // The kernel refused the move (affinity, kick race): back this task off
  // the steal candidate list briefly so we don't spin on failed offers.
  if (RustyEnt* e = table_.Find(pid)) {
    e->steal_ban_until = env_->Now() + kStealBanNs;
  }
}

void RustySched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  RustyEnt* found = table_.Find(pid);
  if (found == nullptr) {
    return;
  }
  RustyEnt& e = *found;
  Charge(e, runtime);
  if (!table_.queues[cpu].empty() && e.last_runtime - e.slice_start_runtime >= kDefaultSliceNs) {
    env_->ReschedCpu(cpu);
  }
}

void RustySched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&table_.next_seq);
  // Domains beyond this machine's count are dropped; missing ones keep a
  // fresh history.
  ar->Elements(&ravgs_, /*max_len=*/64, [&](RunningAvg* r) { r->CheckpointFields(ar); });
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

}  // namespace enoki

// A Nest-style warm-core Enoki scheduler.
//
// The paper's motivation (section 2) cites Nest (Lawall et al., EuroSys'22):
// for jobs with fewer active tasks than cores, energy efficiency and wakeup
// latency improve when tasks are repeatedly placed on a small set of *warm*
// cores — cores that ran recently and have not fallen into a deep C-state —
// instead of being spread across many cold cores. The paper argues Enoki is
// exactly the vehicle for building such small special-purpose schedulers;
// this module demonstrates it: a compact scheduler whose entire novelty is
// its placement function.
//
// Policy: keep a "nest" of primary cores. A waking task is placed on the
// most-recently-used primary core whose queue is shallow; the nest grows
// when every primary core is saturated and shrinks (cores age out) when
// unused. Everything else (per-core FIFO with tick round-robin and idle
// stealing) is deliberately boring.

#ifndef SRC_SCHED_NEST_H_
#define SRC_SCHED_NEST_H_

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class NestSched : public EnokiSched {
 public:
  // A primary core ages out of the nest after this long without being used.
  static constexpr Duration kNestDecayNs = Milliseconds(2);
  // Queue depth at which a primary core counts as saturated.
  static constexpr size_t kSaturationDepth = 2;

  explicit NestSched(int policy_id) : policy_id_(policy_id) {}

  void Attach(EnokiKernelEnv* env) override {
    EnokiSched::Attach(env);
    if (queues_.empty()) {
      const size_t n = static_cast<size_t>(env->NumCpus());
      queues_.resize(n);
      last_used_.assign(n, 0);
      running_.assign(n, 0);
    }
  }

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    const Time now = env_->Now();
    // Warmest eligible core: used most recently, not saturated.
    int best = -1;
    Time best_used = 0;
    for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
      const size_t depth = queues_[cpu].size() + (running_[cpu] != 0 ? 1 : 0);
      if (depth >= kSaturationDepth) {
        continue;
      }
      const bool warm = now - last_used_[cpu] <= kNestDecayNs;
      // Prefer warm cores; among them, the most recently used one.
      if (warm && (best < 0 || last_used_[cpu] > best_used)) {
        best = cpu;
        best_used = last_used_[cpu];
      }
    }
    if (best >= 0) {
      return best;
    }
    // No warm unsaturated core: expand the nest onto the least-loaded core.
    int fallback = 0;
    size_t min_depth = ~size_t{0};
    for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
      const size_t depth = queues_[cpu].size() + (running_[cpu] != 0 ? 1 : 0);
      if (depth < min_depth) {
        min_depth = depth;
        fallback = cpu;
      }
    }
    return fallback;
  }

  void TaskNew(const TaskMessage& msg, Schedulable sched) override { Enqueue(msg.pid, std::move(sched)); }
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }

  void TaskBlocked(const TaskMessage& msg) override { Remove(msg.pid); }
  void TaskDead(uint64_t pid) override { Remove(pid); }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    auto it = tokens_.find(msg.pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    return s;
  }

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    SpinLockGuard g(lock_);
    running_[cpu] = 0;
    auto& q = queues_[cpu];
    if (q.empty()) {
      return std::nullopt;
    }
    const uint64_t pid = q.front();
    q.pop_front();
    auto it = tokens_.find(pid);
    if (it == tokens_.end()) {
      return std::nullopt;
    }
    Schedulable s = std::move(it->second);
    tokens_.erase(it);
    running_[cpu] = pid;
    last_used_[cpu] = env_->Now();
    return s;
  }

  std::optional<uint64_t> Balance(int cpu) override {
    SpinLockGuard g(lock_);
    if (!queues_[cpu].empty()) {
      return std::nullopt;
    }
    // Nest keeps work compact: steal only from a *saturated* core, so a
    // momentarily idle cold core does not scatter the nest.
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (c != cpu && queues_[c].size() >= kSaturationDepth) {
        return queues_[c].front();
      }
    }
    return std::nullopt;
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    RemoveLocked(msg.pid);
    queues_[msg.to_cpu].push_back(msg.pid);
    auto it = tokens_.find(msg.pid);
    ENOKI_CHECK(it != tokens_.end());
    Schedulable old = std::move(it->second);
    it->second = std::move(sched);
    return old;
  }

  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    SpinLockGuard g(lock_);
    last_used_[cpu] = env_->Now();
    if (!queues_[cpu].empty()) {
      env_->ReschedCpu(cpu);
    }
  }

  // Quiesce: queue membership and tokens go back to the runtime, which
  // re-injects them into whichever instance takes the slot.
  TransferState ReregisterPrepare() override {
    SpinLockGuard g(lock_);
    for (auto& q : queues_) {
      q.clear();
    }
    tokens_.clear();
    std::fill(running_.begin(), running_.end(), 0);
    return {};
  }

  // ---- Checkpointing (recovery ladder) ----
  // v1: the warm-core accounting only — per-CPU last-used timestamps, which
  // are what make a restored nest place wakeups onto the cores that were
  // warm before the crash instead of scattering them cold. On a smaller
  // machine a folded core keeps its *most recent* use (it is warm if any of
  // its sources were); a larger machine's extra cores start cold.
  uint32_t CheckpointVersion() const override { return 1; }
  void CheckpointFields(CheckpointArchive* ar) override {
    SpinLockGuard g(lock_);
    ar->Array(&last_used_, CheckpointArchive::Fold::kMax);
  }

  // Introspection: how many cores are currently warm.
  size_t WarmCoreCount() {
    SpinLockGuard g(lock_);
    size_t warm = 0;
    const Time now = env_->Now();
    for (Time used : last_used_) {
      if (now - used <= kNestDecayNs) {
        ++warm;
      }
    }
    return warm;
  }

 private:
  void Enqueue(uint64_t pid, Schedulable sched) {
    SpinLockGuard g(lock_);
    const int cpu = sched.cpu();
    queues_[cpu].push_back(pid);
    tokens_.insert_or_assign(pid, std::move(sched));
    last_used_[cpu] = env_->Now();
  }

  void Remove(uint64_t pid) {
    SpinLockGuard g(lock_);
    RemoveLocked(pid);
    tokens_.erase(pid);
  }

  void RemoveLocked(uint64_t pid) {
    for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
      if (running_[c] == pid) {
        running_[c] = 0;
      }
      auto& q = queues_[c];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (*it == pid) {
          q.erase(it);
          return;
        }
      }
    }
  }

  const int policy_id_;
  SpinLock lock_;
  std::vector<std::deque<uint64_t>> queues_;
  std::unordered_map<uint64_t, Schedulable> tokens_;
  std::vector<Time> last_used_;
  std::vector<uint64_t> running_;
};

}  // namespace enoki

#endif  // SRC_SCHED_NEST_H_

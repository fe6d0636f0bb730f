// The Arachne core arbiter as an Enoki scheduler (section 4.2.4).
//
// Two-level scheduling: the application's user-level runtime requests cores
// through the user-to-kernel hint queue; the arbiter grants whole cores to
// scheduler activations (kernel threads that each exclusively occupy one
// granted core and run the application's user-level thread scheduler).
// Reclamation requests flow back through the kernel-to-user queue, and the
// runtime releases a core by parking (blocking) its activation.
//
// Hint protocol (user -> kernel), w[0] = op:
//   op 1 kReqCores:       w[1] = app id, w[2] = desired core count
//   op 2 kBindActivation: w[1] = app id, w[2] = activation pid
// Reverse hints (kernel -> user), w[0] = op:
//   op 1 kGrantCore:   w[1] = app id, w[2] = core, w[3] = activation pid
//   op 2 kReclaimCore: w[1] = app id, w[2] = core, w[3] = activation pid

#ifndef SRC_SCHED_ARBITER_H_
#define SRC_SCHED_ARBITER_H_

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/enoki/api.h"
#include "src/enoki/lock.h"

namespace enoki {

class ArbiterSched : public EnokiSched {
 public:
  static constexpr uint64_t kReqCores = 1;
  static constexpr uint64_t kBindActivation = 2;
  static constexpr uint64_t kGrantCore = 1;
  static constexpr uint64_t kReclaimCore = 2;

  // `first_core`/`last_core` bound the pool of arbitrated cores (the bench
  // reserves core 0 for background work, like the paper's setup).
  ArbiterSched(int policy_id, int first_core, int last_core)
      : policy_id_(policy_id), first_core_(first_core), last_core_(last_core) {
    for (int c = first_core; c <= last_core; ++c) {
      free_cores_.insert(c);
    }
  }

  int GetPolicy() const override { return policy_id_; }

  int RegisterReverseQueue(int queue_id) override {
    rev_queue_id_ = queue_id;
    return queue_id;
  }

  void ParseHint(const HintBlob& hint) override {
    SpinLockGuard g(lock_);
    switch (hint.w[0]) {
      case kReqCores: {
        apps_[hint.w[1]].requested = hint.w[2];
        RecomputeLocked();
        break;
      }
      case kBindActivation: {
        apps_[hint.w[1]].parked.insert(hint.w[2]);
        app_of_[hint.w[2]] = hint.w[1];
        RecomputeLocked();
        break;
      }
      default:
        break;
    }
  }

  int SelectTaskRq(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    auto it = core_of_.find(msg.pid);
    if (it != core_of_.end()) {
      return it->second;
    }
    return first_core_;  // unassigned activations wait, unpicked
  }

  void TaskNew(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskWakeup(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskPreempt(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }
  void TaskYield(const TaskMessage& msg, Schedulable sched) override {
    Enqueue(msg.pid, std::move(sched));
  }

  void TaskBlocked(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    queued_.erase(msg.pid);
    tokens_.erase(msg.pid);
    // A blocking activation on a reclaimed core releases it.
    auto it = core_of_.find(msg.pid);
    if (it != core_of_.end() && pending_reclaim_.count(it->second) > 0) {
      ReleaseCoreLocked(msg.pid, it->second);
      RecomputeLocked();
    }
  }

  void TaskDead(uint64_t pid) override {
    SpinLockGuard g(lock_);
    ForgetLocked(pid);
    tokens_.erase(pid);
  }

  std::optional<Schedulable> TaskDeparted(const TaskMessage& msg) override {
    SpinLockGuard g(lock_);
    ForgetLocked(msg.pid);
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
    auto owner = owner_of_core_.find(cpu);
    if (owner == owner_of_core_.end()) {
      return std::nullopt;
    }
    const uint64_t pid = owner->second;
    if (queued_.count(pid) == 0) {
      return std::nullopt;
    }
    auto tok = tokens_.find(pid);
    if (tok == tokens_.end() || tok->second.cpu() != cpu) {
      return std::nullopt;
    }
    queued_.erase(pid);
    Schedulable s = std::move(tok->second);
    tokens_.erase(tok);
    return s;
  }

  // When an activation is queued on the wrong CPU (e.g. it was created
  // before its core grant), offer it to its granted core so the kernel
  // migrates it — "standard kernel scheduling mechanisms for moving
  // activations" (section 4.2.4).
  std::optional<uint64_t> Balance(int cpu) override {
    SpinLockGuard g(lock_);
    auto owner = owner_of_core_.find(cpu);
    if (owner == owner_of_core_.end()) {
      return std::nullopt;
    }
    const uint64_t pid = owner->second;
    auto tok = tokens_.find(pid);
    if (queued_.count(pid) > 0 && tok != tokens_.end() && tok->second.cpu() != cpu) {
      return pid;
    }
    return std::nullopt;
  }

  Schedulable MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) override {
    SpinLockGuard g(lock_);
    auto it = tokens_.find(msg.pid);
    ENOKI_CHECK(it != tokens_.end());
    Schedulable old = std::move(it->second);
    it->second = std::move(sched);
    return old;
  }

  // The kernel could not move the activation this time (e.g. its current
  // CPU was mid-dispatch); kick the granted core again so the pull retries.
  void BalanceErr(int cpu, uint64_t pid, std::optional<Schedulable> sched) override {
    env_->ReschedCpu(cpu);
  }

  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {}

  // Introspection for tests and the bench harness.
  size_t granted_cores(uint64_t app_id) {
    SpinLockGuard g(lock_);
    auto it = apps_.find(app_id);
    return it == apps_.end() ? 0 : it->second.granted.size();
  }
  size_t free_cores() {
    SpinLockGuard g(lock_);
    return free_cores_.size();
  }

 private:
  struct App {
    uint64_t requested = 0;
    std::unordered_set<uint64_t> parked;          // registered, unassigned pids
    std::unordered_map<int, uint64_t> granted;    // core -> activation pid
  };

  void Enqueue(uint64_t pid, Schedulable sched) {
    SpinLockGuard g(lock_);
    queued_.insert(pid);
    tokens_.insert_or_assign(pid, std::move(sched));
  }

  // The activation left the arbiter (it died or departed): its core goes
  // back to the pool and no later request can grant it one.
  void ForgetLocked(uint64_t pid) {
    queued_.erase(pid);
    auto it = core_of_.find(pid);
    if (it != core_of_.end()) {
      ReleaseCoreLocked(pid, it->second);
    }
    auto app = app_of_.find(pid);
    if (app != app_of_.end()) {
      apps_[app->second].parked.erase(pid);
      app_of_.erase(app);
    }
    RecomputeLocked();
  }

  void ReleaseCoreLocked(uint64_t pid, int core) {
    core_of_.erase(pid);
    owner_of_core_.erase(core);
    pending_reclaim_.erase(core);
    free_cores_.insert(core);
    auto app = app_of_.find(pid);
    if (app != app_of_.end()) {
      apps_[app->second].granted.erase(core);
      apps_[app->second].parked.insert(pid);
    }
  }

  void RecomputeLocked() {
    for (auto& [app_id, app] : apps_) {
      // Grant while under target and resources exist.
      while (app.granted.size() < app.requested && !free_cores_.empty() &&
             !app.parked.empty()) {
        const int core = *free_cores_.begin();
        free_cores_.erase(free_cores_.begin());
        const uint64_t pid = *app.parked.begin();
        app.parked.erase(app.parked.begin());
        app.granted[core] = pid;
        core_of_[pid] = core;
        owner_of_core_[core] = pid;
        HintBlob grant;
        grant.w[0] = kGrantCore;
        grant.w[1] = app_id;
        grant.w[2] = static_cast<uint64_t>(core);
        grant.w[3] = pid;
        if (rev_queue_id_ >= 0) {
          env_->PushRevHint(rev_queue_id_, grant);
        }
        // Kick the granted core so it picks (and if needed migrates) the
        // activation.
        env_->ReschedCpu(core);
      }
      // Reclaim while over target.
      while (app.granted.size() >
             app.requested + CountPendingReclaims(app)) {
        int victim = -1;
        for (const auto& [core, pid] : app.granted) {
          if (pending_reclaim_.count(core) == 0) {
            victim = core;
            break;
          }
        }
        if (victim < 0) {
          break;
        }
        pending_reclaim_.insert(victim);
        HintBlob reclaim;
        reclaim.w[0] = kReclaimCore;
        reclaim.w[1] = app_id;
        reclaim.w[2] = static_cast<uint64_t>(victim);
        reclaim.w[3] = app.granted[victim];
        if (rev_queue_id_ >= 0) {
          env_->PushRevHint(rev_queue_id_, reclaim);
        }
      }
    }
  }

  size_t CountPendingReclaims(const App& app) const {
    size_t n = 0;
    for (const auto& [core, pid] : app.granted) {
      if (pending_reclaim_.count(core) > 0) {
        ++n;
      }
    }
    return n;
  }

  const int policy_id_;
  const int first_core_;
  const int last_core_;
  int rev_queue_id_ = -1;
  SpinLock lock_;
  std::set<int> free_cores_;
  std::unordered_map<uint64_t, App> apps_;
  std::unordered_map<uint64_t, uint64_t> app_of_;      // pid -> app
  std::unordered_map<uint64_t, int> core_of_;          // pid -> granted core
  std::unordered_map<int, uint64_t> owner_of_core_;    // core -> pid
  std::unordered_set<int> pending_reclaim_;
  std::unordered_set<uint64_t> queued_;
  std::unordered_map<uint64_t, Schedulable> tokens_;
};

}  // namespace enoki

#endif  // SRC_SCHED_ARBITER_H_

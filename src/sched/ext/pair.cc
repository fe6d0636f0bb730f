#include "src/sched/ext/pair.h"

namespace enoki {

void PairSched::ParseHint(const HintBlob& hint) {
  SpinLockGuard g(lock_);
  const uint64_t pid = hint.w[0];
  if (pid == 0 || pid > (1u << 24)) {
    return;
  }
  if (pid >= cookie_of_.size()) {
    cookie_of_.resize(pid + 1, 0);
  }
  cookie_of_[pid] = hint.w[1];
}

void PairSched::ClearRunningLocked(uint64_t pid, Ent& e) {
  e.running = false;
  const int cpu = e.cpu;
  if (cpu < 0 || cpu >= static_cast<int>(running_pid_.size()) ||
      running_pid_[cpu] != pid) {
    return;
  }
  running_pid_[cpu] = 0;
  // Our cookie constraint is gone; a sibling that stalled against it can
  // make progress now.
  const int sib = SiblingLocked(cpu);
  if (sib >= 0 && running_pid_[sib] == 0 && !queues_[sib].empty()) {
    ++sibling_kicks_;
    env_->ReschedCpu(sib);
  }
}

int PairSched::SelectTaskRq(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  const uint64_t cookie = CookieOfLocked(msg.pid);
  // Prefer a CPU whose sibling is idle or already running our cookie; among
  // those, the shortest queue. A conflicted CPU is still usable (the pick
  // constraint sorts it out), just last choice.
  int best = 0;
  bool best_conflict = true;
  size_t best_len = ~size_t{0};
  for (int cpu = 0; cpu < static_cast<int>(queues_.size()); ++cpu) {
    const int sib = SiblingLocked(cpu);
    const bool conflict =
        sib >= 0 && running_pid_[sib] != 0 && running_cookie_[sib] != cookie;
    const size_t len = queues_[cpu].size() + (running_pid_[cpu] != 0 ? 1 : 0);
    if ((!conflict && best_conflict) ||
        (conflict == best_conflict && len < best_len)) {
      best = cpu;
      best_conflict = conflict;
      best_len = len;
    }
  }
  return best;
}

void PairSched::TaskNew(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  const int cpu = sched.cpu();
  Ent& e = EntSlot(msg.pid);
  e = Ent{};
  e.live = true;
  e.last_runtime = msg.runtime;
  e.seq = next_seq_++;
  e.cpu = cpu;
  e.queued = true;
  queues_[cpu].emplace(e.seq, msg.pid);
  TokSlot(msg.pid) = std::move(sched);
}

void PairSched::TaskWakeup(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void PairSched::TaskPreempt(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void PairSched::TaskYield(const TaskMessage& msg, Schedulable sched) {
  RequeueRunnable(msg, std::move(sched));
}

void PairSched::RequeueRunnable(const TaskMessage& msg, Schedulable sched) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(msg.pid);
  if (found == nullptr) {
    Ent& slot = EntSlot(msg.pid);
    slot = Ent{};
    slot.live = true;
    slot.last_runtime = msg.runtime;
    found = &slot;
  }
  Ent& e = *found;
  if (msg.runtime > e.last_runtime) {
    e.last_runtime = msg.runtime;
  }
  ClearRunningLocked(msg.pid, e);
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

void PairSched::TaskBlocked(const TaskMessage& msg) {
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
  ClearRunningLocked(msg.pid, *e);
  if (msg.pid < tokens_.size()) {
    tokens_[msg.pid].reset();
  }
}

void PairSched::TaskDead(uint64_t pid) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, pid);
    }
    ClearRunningLocked(pid, *e);
    *e = Ent{};
  }
  if (pid < tokens_.size()) {
    tokens_[pid].reset();
  }
}

std::optional<Schedulable> PairSched::TaskDeparted(const TaskMessage& msg) {
  SpinLockGuard g(lock_);
  Ent* e = FindEnt(msg.pid);
  if (e != nullptr) {
    if (e->queued) {
      queues_[e->cpu].erase_one(e->seq, msg.pid);
    }
    ClearRunningLocked(msg.pid, *e);
    *e = Ent{};
  }
  if (msg.pid >= tokens_.size() || !tokens_[msg.pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[msg.pid]);
  tokens_[msg.pid].reset();
  return s;
}

std::optional<Schedulable> PairSched::PickNextTask(int cpu,
                                                   std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  auto& q = queues_[cpu];
  if (q.empty()) {
    return std::nullopt;
  }
  const int sib = SiblingLocked(cpu);
  const bool constrained = sib >= 0 && running_pid_[sib] != 0;
  const uint64_t need = constrained ? running_cookie_[sib] : 0;
  size_t idx = q.size();
  for (size_t i = 0; i < q.size(); ++i) {
    if (!constrained || CookieOfLocked(q[i].second) == need) {
      idx = i;
      break;
    }
  }
  if (idx == q.size()) {
    // Nothing compatible with the sibling's cookie: stall idle rather than
    // co-run across the security boundary.
    ++compat_stalls_;
    return std::nullopt;
  }
  const uint64_t pid = q[idx].second;
  q.erase_at(idx);
  Ent* e = FindEnt(pid);
  ENOKI_CHECK(e != nullptr);
  e->queued = false;
  e->running = true;
  e->slice_start_runtime = e->last_runtime;
  running_pid_[cpu] = pid;
  running_cookie_[cpu] = CookieOfLocked(pid);
  if (pid >= tokens_.size() || !tokens_[pid].has_value()) {
    return std::nullopt;
  }
  Schedulable s = std::move(*tokens_[pid]);
  tokens_[pid].reset();
  return s;
}

std::optional<uint64_t> PairSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!queues_[cpu].empty()) {
    return std::nullopt;
  }
  const int sib = SiblingLocked(cpu);
  const bool constrained = sib >= 0 && running_pid_[sib] != 0;
  const uint64_t need = constrained ? running_cookie_[sib] : 0;
  // Steal the oldest waiting task we could legally run right now.
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c = 0; c < static_cast<int>(queues_.size()); ++c) {
    if (c == cpu) {
      continue;
    }
    const auto& q = queues_[c];
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].first >= best_seq) {
        break;  // sorted by seq: nothing older further in
      }
      if (!constrained || CookieOfLocked(q[i].second) == need) {
        best_seq = q[i].first;
        best = q[i].second;
        break;
      }
    }
  }
  return best;
}

Schedulable PairSched::MigrateTaskRq(const MigrateMessage& msg, Schedulable sched) {
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

void PairSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  Ent* found = FindEnt(pid);
  if (found == nullptr) {
    return;
  }
  Ent& e = *found;
  if (runtime > e.last_runtime) {
    e.last_runtime = runtime;
  }
  const Duration ran = e.last_runtime - e.slice_start_runtime;
  if (ran < slice_) {
    return;
  }
  // Round-robin on slice expiry. Also yield when the sibling is stalled
  // against our cookie with work waiting: briefly vacating the core lets a
  // different cookie win the pair and the stalled side drain.
  const int sib = SiblingLocked(cpu);
  const bool sib_starved =
      sib >= 0 && running_pid_[sib] == 0 && !queues_[sib].empty();
  if (!queues_[cpu].empty() || sib_starved) {
    env_->ReschedCpu(cpu);
  }
}

TransferState PairSched::ReregisterPrepare() {
  SpinLockGuard g(lock_);
  auto t = std::make_unique<Transfer>();
  t->ents = std::move(ents_);
  t->tokens = std::move(tokens_);
  t->queues = std::move(queues_);
  t->running_pid = std::move(running_pid_);
  t->running_cookie = std::move(running_cookie_);
  t->cookie_of = std::move(cookie_of_);
  t->next_seq = next_seq_;
  ents_.clear();
  tokens_.clear();
  queues_.clear();
  running_pid_.clear();
  running_cookie_.clear();
  cookie_of_.clear();
  next_seq_ = 1;
  return TransferState::Of(std::move(t));
}

void PairSched::ReregisterInit(TransferState state) {
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
  running_pid_ = std::move(t->running_pid);
  running_cookie_ = std::move(t->running_cookie);
  cookie_of_ = std::move(t->cookie_of);
  next_seq_ = t->next_seq;
}

void PairSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&next_seq_);
  ar->PidTable(&cookie_of_, [](uint64_t cookie) { return cookie != 0; }, uint64_t{0},
               [&](uint64_t* cookie) { ar->Word(cookie); });
}

uint64_t PairSched::CookieOf(uint64_t pid) {
  SpinLockGuard g(lock_);
  return CookieOfLocked(pid);
}

uint64_t PairSched::compat_stalls() {
  SpinLockGuard g(lock_);
  return compat_stalls_;
}

uint64_t PairSched::sibling_kicks() {
  SpinLockGuard g(lock_);
  return sibling_kicks_;
}

size_t PairSched::QueueDepth(int cpu) {
  SpinLockGuard g(lock_);
  return queues_[cpu].size();
}

}  // namespace enoki

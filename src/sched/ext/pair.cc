#include "src/sched/ext/pair.h"

namespace enoki {

template class TokenQueueSched<PairSched, PairEnt>;

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

void PairSched::StopRunning(uint64_t pid, PairEnt& e) {
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
  if (sib >= 0 && running_pid_[sib] == 0 && !table_.queues[sib].empty()) {
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
  for (int cpu = 0; cpu < static_cast<int>(table_.queues.size()); ++cpu) {
    const int sib = SiblingLocked(cpu);
    const bool conflict =
        sib >= 0 && running_pid_[sib] != 0 && running_cookie_[sib] != cookie;
    const size_t len = table_.queues[cpu].size() + (running_pid_[cpu] != 0 ? 1 : 0);
    if ((!conflict && best_conflict) ||
        (conflict == best_conflict && len < best_len)) {
      best = cpu;
      best_conflict = conflict;
      best_len = len;
    }
  }
  return best;
}

std::optional<Schedulable> PairSched::PickNextTask(int cpu,
                                                   std::optional<Schedulable> curr) {
  SpinLockGuard g(lock_);
  const auto& q = table_.queues[cpu];
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
  return table_.Pick(cpu, idx, [&](uint64_t pid, PairEnt& e) {
    e.slice_start_runtime = e.last_runtime;
    running_pid_[cpu] = pid;
    running_cookie_[cpu] = CookieOfLocked(pid);
  });
}

std::optional<uint64_t> PairSched::Balance(int cpu) {
  SpinLockGuard g(lock_);
  if (!table_.queues[cpu].empty()) {
    return std::nullopt;
  }
  const int sib = SiblingLocked(cpu);
  const bool constrained = sib >= 0 && running_pid_[sib] != 0;
  const uint64_t need = constrained ? running_cookie_[sib] : 0;
  // Steal the oldest waiting task we could legally run right now.
  uint64_t best_seq = ~0ull;
  std::optional<uint64_t> best;
  for (int c = 0; c < static_cast<int>(table_.queues.size()); ++c) {
    if (c == cpu) {
      continue;
    }
    const auto& q = table_.queues[c];
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

void PairSched::TaskTick(int cpu, uint64_t pid, Duration runtime) {
  SpinLockGuard g(lock_);
  PairEnt* found = table_.Find(pid);
  if (found == nullptr) {
    return;
  }
  PairEnt& e = *found;
  Charge(e, runtime);
  const Duration ran = e.last_runtime - e.slice_start_runtime;
  if (ran < slice_) {
    return;
  }
  // Round-robin on slice expiry. Also yield when the sibling is stalled
  // against our cookie with work waiting: briefly vacating the core lets a
  // different cookie win the pair and the stalled side drain.
  const int sib = SiblingLocked(cpu);
  const bool sib_starved =
      sib >= 0 && running_pid_[sib] == 0 && !table_.queues[sib].empty();
  if (!table_.queues[cpu].empty() || sib_starved) {
    env_->ReschedCpu(cpu);
  }
}

void PairSched::SaveTransfer(Transfer& t) {
  t.running_pid = std::move(running_pid_);
  t.running_cookie = std::move(running_cookie_);
  t.cookie_of = std::move(cookie_of_);
  running_pid_.clear();
  running_cookie_.clear();
  cookie_of_.clear();
}

void PairSched::LoadTransfer(Transfer& t) {
  running_pid_ = std::move(t.running_pid);
  running_cookie_ = std::move(t.running_cookie);
  cookie_of_ = std::move(t.cookie_of);
}

void PairSched::CheckpointFields(CheckpointArchive* ar) {
  SpinLockGuard g(lock_);
  ar->NonZero(&table_.next_seq);
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

}  // namespace enoki

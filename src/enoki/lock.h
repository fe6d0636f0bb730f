// Shim locks for Enoki scheduler modules (sections 3.1 and 3.4).
//
// Scheduler code synchronizes through these wrappers instead of raw kernel
// locks. The wrappers delegate to pluggable hooks so the same scheduler code
// runs unchanged in three modes:
//  - normal kernel operation: no hooks are installed;
//  - record mode: every create/acquire/release is appended to the record
//    log together with the acquiring kernel-thread id, which is the paper's
//    mechanism for making concurrent replay deterministic;
//  - replay mode: acquisition blocks until it is this thread's recorded
//    turn, reproducing the recorded interleaving exactly.
//
// A lock has two paths, chosen per acquire by whether hooks are installed:
//  - No hooks: the simulated kernel is sequential, so module code runs on
//    one host thread at a time. Acquire checks that the lock is free (a
//    re-entrant acquire aborts, naming the lock id, where a spin would hang)
//    and marks it held with a plain store; no atomic read-modify-write.
//  - Hooks installed: Acquire calls the hook, then takes the lock with an
//    exchange and spins, which gives real exclusion between host threads.
// Module code runs on several host threads only under ReplayEngine, and
// ReplayEngine::Run checks that its LockOrderHooks are installed before it
// starts a thread: real threads imply hooks, so real threads always take the
// exchange path.
//
// Everything here is header-inline: Acquire/Release run once or twice per
// scheduler callback (millions of times per simulated second), and in the
// no-hooks case they compile down to plain loads, tests and stores: no
// atomic read-modify-write and no out-of-line call.

#ifndef SRC_ENOKI_LOCK_H_
#define SRC_ENOKI_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/base/check.h"

namespace enoki {

class LockHooks {
 public:
  virtual ~LockHooks() = default;
  virtual void OnLockCreate(uint64_t lock_id) {}
  // Called before the underlying lock is taken; may block (replay mode).
  virtual void OnLockAcquire(uint64_t lock_id) {}
  virtual void OnLockRelease(uint64_t lock_id) {}
};

namespace lock_internal {
inline std::atomic<LockHooks*> g_hooks{nullptr};
inline std::atomic<uint64_t> g_next_lock_id{1};
inline thread_local int g_kthread = 0;
}  // namespace lock_internal

// Global hook installation. Null means no-op hooks.
inline LockHooks* GetLockHooks() {
  return lock_internal::g_hooks.load(std::memory_order_acquire);
}
inline void SetLockHooks(LockHooks* hooks) {
  lock_internal::g_hooks.store(hooks, std::memory_order_release);
}

// Identity of the "kernel thread" executing scheduler code on this host
// thread; the runtime sets it to the CPU id around module calls, and the
// replay engine sets it to the recorded kernel-thread id.
inline int GetCurrentKthread() { return lock_internal::g_kthread; }
inline void SetCurrentKthread(int kthread) { lock_internal::g_kthread = kthread; }

inline uint64_t AllocateLockId() {
  return lock_internal::g_next_lock_id.fetch_add(1, std::memory_order_relaxed);
}

class SpinLock {
 public:
  SpinLock() : id_(AllocateLockId()) {
    if (LockHooks* hooks = GetLockHooks()) {
      hooks->OnLockCreate(id_);
    }
  }
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  [[gnu::always_inline]] void Acquire() {
    if (LockHooks* hooks = GetLockHooks()) [[unlikely]] {
      hooks->OnLockAcquire(id_);
      while (locked_.exchange(true, std::memory_order_acquire)) {
        // Uncontended in the sequential simulator; spin for real threads.
        while (locked_.load(std::memory_order_relaxed)) {
        }
      }
      return;
    }
    ENOKI_CHECKF(!locked_.load(std::memory_order_relaxed),
                 "SpinLock %llu acquired while held (re-entrant acquire)",
                 static_cast<unsigned long long>(id_));
    locked_.store(true, std::memory_order_relaxed);
  }
  [[gnu::always_inline]] void Release() {
    locked_.store(false, std::memory_order_release);
    if (LockHooks* hooks = GetLockHooks()) [[unlikely]] {
      hooks->OnLockRelease(id_);
    }
  }
  uint64_t id() const { return id_; }

 private:
  const uint64_t id_;
  std::atomic<bool> locked_{false};
};

// RAII guard.
class SpinLockGuard {
 public:
  [[gnu::always_inline]] explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Acquire(); }
  [[gnu::always_inline]] ~SpinLockGuard() { lock_.Release(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace enoki

#endif  // SRC_ENOKI_LOCK_H_

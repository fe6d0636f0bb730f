// Profile counter layer: cheap per-subsystem event and cycle counters, so
// the next flattening target is named by data instead of guesswork.
//
// The simulator's hot path is deliberately allocation- and syscall-free, so
// what remains to optimize hides in *cold-ish* paths that fire often enough
// to matter: event-queue lane spills, slab and arena growth, cross-shard
// merge commits, epoch-barrier waits. Two kinds of counters cover them:
//
//  - Local counters (WheelProfile, ShardProfile): plain uint64_t structs
//    owned by single-threaded objects (an EventLoop is touched by exactly
//    one thread per epoch; ShardedEventLoop's profile is written by thread
//    0 only). Zero synchronization cost, aggregated by the owner on
//    demand. These are the per-event-frequency counters.
//  - Global counters (GlobalCounters): relaxed atomics for rare allocation
//    events raised from deep inside helpers that have no natural owner to
//    report through (arena chunk growth, event-slab growth). Rare enough
//    that an atomic add is free.
//
// Counter semantics split into two classes, and consumers must respect the
// split:
//  - count-type counters (events, lane hits and spills, chunks, slabs,
//    epochs, idle leaps, widens, narrows, commit messages) are pure
//    functions of the simulation and are byte-identical across hosts and
//    thread counts. bench_simperf emits them as "prof_<name>" rows and its
//    ctest compares them exactly against a checked-in baseline, so an
//    alloc/placement regression names the subsystem that regressed;
//  - *_ns counters (commit wall time, barrier wall time) are wall-clock and
//    host-dependent: perfbench reports them as shares of run time, and
//    nothing gates them.

#ifndef SRC_BASE_PROFILE_H_
#define SRC_BASE_PROFILE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace enoki {

// Per-EventLoop cold-path counters. Single-threaded by the loop's own
// contract; merged across shard loops by ShardedEventLoop::WheelProfileSum.
struct WheelProfile {
  uint64_t lane_hits = 0;    // events scheduled straight into the lane
  uint64_t lane_spills = 0;  // events past the lane horizon, in the heap
  uint64_t slab_allocs = 0;  // event-slab growths (also in GlobalCounters)
  // Always 0: the queue has no wheel to cascade and no behind-clock heap.
  // Kept because the repository benchmark (perfbench/) still reports them.
  uint64_t cascades = 0;
  uint64_t behind_inserts = 0;

  void MergeFrom(const WheelProfile& o) {
    lane_hits += o.lane_hits;
    lane_spills += o.lane_spills;
    slab_allocs += o.slab_allocs;
  }
};

// Per-ShardedEventLoop barrier/merge/ramp counters. Written only by
// thread 0, the thread driving RunUntil; every host thread passes the same
// one barrier per epoch and commits for itself, so thread 0's view covers
// the run.
struct ShardProfile {
  uint64_t epochs = 0;        // committed epoch barriers
  uint64_t idle_leaps = 0;    // epochs whose window start leapt an idle span
  uint64_t commit_msgs = 0;   // cross-shard messages committed
  uint64_t widens = 0;        // adaptive-ramp doublings that moved the window
  // Always 0: the adaptive ramp never narrows the window. Kept because the
  // repository benchmark (perfbench/) still reports it.
  uint64_t narrows = 0;
  uint64_t commit_ns = 0;     // wall ns thread 0 folded the merge order
  uint64_t barrier_ns = 0;    // wall ns thread 0 waited at the epoch barrier
};

// Process-wide counters for allocation events raised from helpers with no
// reporting channel of their own. Relaxed atomics: these are counters, not
// synchronization, and every increment site is a rare growth path.
class GlobalCounters {
 public:
  enum Id : int {
    kArenaChunks = 0,   // Arena::NewChunk calls
    kEventSlabs = 1,    // EventLoop slab-pool growths
    kIdCount = 2,
  };

  static GlobalCounters& Get() {
    static GlobalCounters g;
    return g;
  }

  void Add(Id id, uint64_t n = 1) { counters_[id].fetch_add(n, std::memory_order_relaxed); }

  uint64_t Value(Id id) const { return counters_[id].load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> counters_[kIdCount] = {};
};

inline void ProfCount(GlobalCounters::Id id, uint64_t n = 1) {
  GlobalCounters::Get().Add(id, n);
}

// Accumulates wall-clock ns into `*sink` over its scope; a null sink reads no
// clock. Used only at epoch granularity (two reads of steady_clock per epoch
// and field), never per event.
class ProfTimer {
 public:
  explicit ProfTimer(uint64_t* sink) : sink_(sink) {
    if (sink_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfTimer() {
    if (sink_ != nullptr) {
      *sink_ += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start_)
                                          .count());
    }
  }
  ProfTimer(const ProfTimer&) = delete;
  ProfTimer& operator=(const ProfTimer&) = delete;

 private:
  uint64_t* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace enoki

#endif  // SRC_BASE_PROFILE_H_

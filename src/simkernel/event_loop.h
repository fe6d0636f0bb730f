// Deterministic discrete-event loop: an express lane plus one indexed heap.
//
// All simulated activity is driven by timestamped events. Ties are broken by
// insertion sequence number so that simulation runs are reproducible
// regardless of host platform or container ordering.
//
// The simulator's workload is the kernel-timer workload: dense near-future
// ticks and hrtimers, frequently cancelled (every compute segment and sleep
// arms a timer that a preemption or wake may cancel). Design:
//
//  - a near-horizon *express lane*: a power-of-two ring of 16384 slots, each
//    64 ns wide, covering the next 2^20 ns. Periodic ticks (1 ms),
//    preemption timers, wakeup/IPI latencies and service completions all fit
//    under it, so they schedule straight into their slot and cancel by
//    unlinking, both O(1). The lane takes over 90 % of events on every
//    bench_simperf config (prof_wheel_lane_hits).
//  - every other event (prof_wheel_lane_spills) goes into one binary min-heap
//    ordered by (time, seq). The heap is *indexed*: each event records its
//    heap position, so Cancel removes it in place in O(log n) and frees it
//    at once. No tombstones exist outside the staged batch.
//  - staging takes the earlier of the lane and heap minimums and moves every
//    event at that time from both into one batch, sorted by seq.
//  - Event records are intrusive, slab-pooled, and never move; callbacks live
//    in an inline small-buffer InlineFunction, so the steady-state hot path
//    performs no heap allocation per event. Cancel destroys the callback (and
//    anything it captured) eagerly — a cancelled closure does not linger
//    until its timestamp.
//  - EventIds encode (slot, generation), so stale ids (double cancel, cancel
//    after fire) are detected and rejected.
//
// Observable ordering is that of a plain (time, seq) priority queue: strictly
// nondecreasing time, insertion order within a timestamp (verified by the
// differential fuzz test in tests/event_loop_test.cc).

#ifndef SRC_SIMKERNEL_EVENT_LOOP_H_
#define SRC_SIMKERNEL_EVENT_LOOP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/inline_function.h"
#include "src/base/profile.h"
#include "src/base/ring_buffer.h"
#include "src/base/time.h"

namespace enoki {

using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventLoop {
 public:
  // Express-lane horizon: events within this many ns of now() schedule into
  // the lane (O(1) schedule and cancel); later ones go to the heap. Sized so
  // the cost-model's short deadlines — 1 ms periodic ticks, wake/IPI/context
  // latencies, service completions — and the bulk of open-loop arrival gaps
  // all fit.
  static constexpr Time kLaneSpanNs = Time{1} << 20;  // ~1.05 simulated ms

  EventLoop() : lane_(kLaneSlots, nullptr), lane_words_(kLaneWords, 0) {}
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `cb` to run at absolute time `at` (>= now). Returns an id that
  // can be passed to Cancel().
  template <typename F>
  EventId ScheduleAt(Time at, F&& cb) {
    ENOKI_CHECK(at >= now_);
    Event* ev = AllocEvent();
    ev->at = at;
    ev->seq = ++next_seq_;
    ev->cancelled = false;
    ev->cb.Set(std::forward<F>(cb));
    ++live_events_;
    if (LaneEligible(at)) {
      ++profile_.lane_hits;
      LaneInsert(ev);
    } else {
      ++profile_.lane_spills;
      HeapPush(ev);
    }
    return MakeId(ev);
  }

  template <typename F>
  EventId ScheduleAfter(Duration delay, F&& cb) {
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event and destroys its callback immediately — captured
  // state (shared_ptrs, task references) is released at cancel time, not
  // when the cancelled timestamp is reached. Cancelling an already-fired or
  // already-cancelled event is a checked error: callers own their ids.
  void Cancel(EventId id) {
    ENOKI_CHECK(id != kInvalidEventId);
    Event* ev = LookupLive(id);
    ENOKI_CHECK_MSG(ev != nullptr, "event cancelled twice or already fired");
    ENOKI_CHECK(live_events_ > 0);
    --live_events_;
    ev->cb.Reset();  // eager: the closure dies now
    switch (ev->where) {
      case Where::kLane:
        // Removing the (possibly sole) earliest lane event moves the lane
        // minimum.
        if (lane_peek_valid_ && ev->at <= lane_peek_cache_) {
          lane_peek_valid_ = false;
        }
        UnlinkFromLane(ev);
        FreeEvent(ev);
        return;
      case Where::kHeap:
        HeapRemove(ev);
        FreeEvent(ev);
        return;
      default:
        // A staged event cannot be unlinked from the middle of due_; leave a
        // callback-free tombstone to be skipped.
        ev->cancelled = true;
        return;
    }
  }

  bool HasWork() const { return live_events_ > 0; }
  uint64_t live_events() const { return live_events_; }

  // Time of the earliest pending event, or kTimeMax when idle. Skips over
  // cancelled tombstones (freeing them) so RunUntil sees the true next time.
  Time PeekTime() {
    while (due_pos_ < due_.size() && due_[due_pos_]->cancelled) {
      FreeEvent(due_[due_pos_++]);
    }
    if (due_pos_ < due_.size()) {
      return due_[due_pos_]->at;
    }
    return std::min(LanePeek(), HeapPeek());
  }

  // Runs the earliest pending event. Returns false when the queue is empty.
  bool RunOne() {
    for (;;) {
      if (due_pos_ >= due_.size()) {
        due_.clear();
        due_pos_ = 0;
        if (!StageNextBatch()) {
          return false;
        }
      }
      Event* ev = due_[due_pos_++];
      if (ev->cancelled) {
        FreeEvent(ev);
        continue;
      }
      ENOKI_CHECK(ev->at >= now_);
      now_ = ev->at;
      ENOKI_CHECK(live_events_ > 0);
      --live_events_;
      ++executed_;
      ev->where = Where::kExecuting;
      ev->cb();  // may schedule or cancel other events
      ev->cb.Reset();
      FreeEvent(ev);
      return true;
    }
  }

  // Runs events until simulated time reaches `deadline` (events at exactly
  // `deadline` are executed) or the queue drains.
  void RunUntil(Time deadline) {
    for (;;) {
      const Time t = PeekTime();
      if (t == kTimeMax) {
        break;
      }
      if (t > deadline) {
        now_ = deadline;
        return;
      }
      RunOne();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
  }

  void RunUntilIdle() {
    while (RunOne()) {
    }
  }

  uint64_t events_executed() const { return executed_; }

  // Placement and demand slab-growth counters. Pure functions of the
  // simulation: identical across hosts and shard-thread counts, so they are
  // CI-gateable.
  const WheelProfile& wheel_profile() const { return profile_; }

  // Grows the slab pool until at least `nevents` events can be allocated
  // without further growth, and reserves heap room for as many. Called once
  // by the SchedCore constructor (sized from a workload hint) so steady
  // state never pays a mid-run slab allocation or heap growth; warming is
  // deliberately not counted in wheel_profile().slab_allocs — that counter
  // names *demand* growth, which warming exists to eliminate.
  void WarmSlabs(size_t nevents) {
    while (free_slots_.size() < nevents) {
      GrowSlab();
    }
    heap_.reserve(nevents);
  }

 private:
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;  // events per slab

  // Express lane: a ring of 64-ns slots covering exactly kLaneSpanNs. The
  // lane window is anchored to the *slot-aligned* executed clock — every
  // lane event satisfies LaneBase() <= at < LaneBase() + kLaneSpanNs — so a
  // slot index maps to exactly one 64-ns range within the window and the
  // circular scan from LaneSlotOf(now_) visits slots in time order. The
  // window only moves forward and all pending events are >= now_, so the
  // invariant survives every clock advance without relocation.
  static constexpr int kLaneSlotBits = 6;  // 64 ns per slot
  static constexpr uint32_t kLaneSlots =
      static_cast<uint32_t>(Pow2Capacity<size_t{1} << 14, EventLoop>::value);
  static constexpr uint32_t kLaneWords = kLaneSlots / 64;  // occupancy bitmap
  static_assert(Time{kLaneSlots} << kLaneSlotBits == kLaneSpanNs,
                "lane geometry must cover exactly the advertised horizon");

  enum class Where : uint8_t {
    kFree,
    kLane,    // intrusive doubly-linked list in an express-lane slot
    kHeap,    // heap_[heap_idx]
    kStaged,  // in due_, about to execute
    kExecuting,
  };

  struct Event {
    Time at = 0;
    uint64_t seq = 0;
    Event* prev = nullptr;
    Event* next = nullptr;
    uint32_t slot = 0;
    uint32_t gen = 0;
    uint32_t heap_idx = 0;
    Where where = Where::kFree;
    bool cancelled = false;
    InlineFunction<64> cb;
  };

  static EventId MakeId(const Event* ev) {
    return (static_cast<EventId>(ev->slot) << 32) | ev->gen;
  }

  // ---- Slab pool ----

  void GrowSlab() {
    const uint32_t base = static_cast<uint32_t>(slabs_.size()) << kSlabBits;
    slabs_.push_back(std::make_unique<Event[]>(kSlabSize));
    Event* slab = slabs_.back().get();
    free_slots_.reserve(free_slots_.size() + kSlabSize);
    // Reversed so low slot numbers are handed out first (LIFO free list).
    for (uint32_t i = kSlabSize; i-- > 0;) {
      slab[i].slot = base + i;
      free_slots_.push_back(base + i);
    }
  }

  Event* AllocEvent() {
    if (free_slots_.empty()) {
      ++profile_.slab_allocs;
      ProfCount(GlobalCounters::kEventSlabs);
      GrowSlab();
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Event* ev = SlotPtr(slot);
    ++ev->gen;  // invalidates every id previously minted for this slot
    ENOKI_CHECK(ev->where == Where::kFree);
    return ev;
  }

  void FreeEvent(Event* ev) {
    ev->where = Where::kFree;
    ev->prev = ev->next = nullptr;
    free_slots_.push_back(ev->slot);
  }

  Event* SlotPtr(uint32_t slot) {
    return &slabs_[slot >> kSlabBits][slot & (kSlabSize - 1)];
  }

  // Resolves an id to its live (pending, uncancelled) event, or nullptr.
  Event* LookupLive(EventId id) {
    const uint32_t slot = static_cast<uint32_t>(id >> 32);
    const uint32_t gen = static_cast<uint32_t>(id);
    if (slot >= (static_cast<uint32_t>(slabs_.size()) << kSlabBits)) {
      return nullptr;
    }
    Event* ev = SlotPtr(slot);
    if (ev->gen != gen || ev->cancelled || ev->where == Where::kFree ||
        ev->where == Where::kExecuting) {
      return nullptr;
    }
    return ev;
  }

  // ---- Express lane ----

  // Start of the lane window: the executed clock rounded down to a slot
  // boundary. Anchoring to the slot boundary (not now_ itself) keeps the
  // window exactly kLaneSlots slot-ranges wide, so no two in-window times
  // share a slot index.
  Time LaneBase() const { return (now_ >> kLaneSlotBits) << kLaneSlotBits; }

  bool LaneEligible(Time at) const { return at - LaneBase() < kLaneSpanNs; }

  static uint32_t LaneSlotOf(Time at) {
    return static_cast<uint32_t>(at >> kLaneSlotBits) & (kLaneSlots - 1);
  }

  void LaneInsert(Event* ev) {
    const uint32_t slot = LaneSlotOf(ev->at);
    ev->where = Where::kLane;
    ev->prev = nullptr;
    ev->next = lane_[slot];
    if (ev->next != nullptr) {
      ev->next->prev = ev;
    }
    lane_[slot] = ev;
    lane_words_[slot >> 6] |= uint64_t{1} << (slot & 63);
    ++lane_live_;
    // An insert can only lower the minimum, so the cache stays valid.
    if (lane_peek_valid_ && ev->at < lane_peek_cache_) {
      lane_peek_cache_ = ev->at;
    }
  }

  void UnlinkFromLane(Event* ev) {
    const uint32_t slot = LaneSlotOf(ev->at);
    if (ev->prev != nullptr) {
      ev->prev->next = ev->next;
    } else {
      lane_[slot] = ev->next;
      if (ev->next == nullptr) {
        lane_words_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
      }
    }
    if (ev->next != nullptr) {
      ev->next->prev = ev->prev;
    }
    ev->prev = ev->next = nullptr;
    ENOKI_CHECK(lane_live_ > 0);
    --lane_live_;
  }

  // First occupied slot in circular time order from LaneSlotOf(now_): the
  // first word is masked to bits at or after now_'s slot, then the scan
  // walks the bitmap circularly and finally revisits the start word
  // unmasked to pick up the wrapped tail of the window.
  int FindFirstLaneSlot() const {
    const uint32_t s0 = LaneSlotOf(now_);
    const uint32_t w0 = s0 >> 6;
    uint64_t word = lane_words_[w0] & (~uint64_t{0} << (s0 & 63));
    for (uint32_t i = 0;; ++i) {
      if (word != 0) {
        const uint32_t w = (w0 + i) & (kLaneWords - 1);
        return static_cast<int>((w << 6) | static_cast<uint32_t>(std::countr_zero(word)));
      }
      if (i == kLaneWords) {
        return -1;
      }
      word = lane_words_[(w0 + i + 1) & (kLaneWords - 1)];
    }
  }

  // Earliest lane event time, or kTimeMax when the lane is empty. Cached
  // because peeking is the per-event hot path (RunOne and RunUntil both
  // peek) and the bitmap scan would only rediscover the same slot. A slot is
  // 64 ns wide, so the min within the first occupied slot needs one short
  // list scan.
  Time LanePeek() {
    if (lane_peek_valid_) {
      return lane_peek_cache_;
    }
    if (lane_live_ == 0) {
      lane_peek_cache_ = kTimeMax;
      lane_peek_valid_ = true;
      return kTimeMax;
    }
    const int slot = FindFirstLaneSlot();
    ENOKI_CHECK(slot >= 0);
    Time best = kTimeMax;
    for (const Event* ev = lane_[slot]; ev != nullptr; ev = ev->next) {
      best = std::min(best, ev->at);
    }
    lane_peek_cache_ = best;
    lane_peek_valid_ = true;
    return best;
  }

  // Moves every lane event at exactly `t` into due_.
  void StageLane(Time t) {
    Event* ev = lane_[LaneSlotOf(t)];
    while (ev != nullptr) {
      Event* next = ev->next;
      if (ev->at == t) {
        UnlinkFromLane(ev);
        ev->where = Where::kStaged;
        due_.push_back(ev);
      }
      ev = next;
    }
  }

  // ---- Indexed (time, seq) min-heap for lane spills ----

  static bool Earlier(const Event* a, const Event* b) {
    return a->at != b->at ? a->at < b->at : a->seq < b->seq;
  }

  Time HeapPeek() const { return heap_.empty() ? kTimeMax : heap_.front()->at; }

  void HeapSet(uint32_t i, Event* ev) {
    heap_[i] = ev;
    ev->heap_idx = i;
  }

  void SiftUp(uint32_t i) {
    Event* ev = heap_[i];
    while (i > 0) {
      const uint32_t parent = (i - 1) / 2;
      if (!Earlier(ev, heap_[parent])) {
        break;
      }
      HeapSet(i, heap_[parent]);
      i = parent;
    }
    HeapSet(i, ev);
  }

  void SiftDown(uint32_t i) {
    Event* ev = heap_[i];
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    for (;;) {
      uint32_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!Earlier(heap_[child], ev)) {
        break;
      }
      HeapSet(i, heap_[child]);
      i = child;
    }
    HeapSet(i, ev);
  }

  void HeapPush(Event* ev) {
    ev->where = Where::kHeap;
    heap_.push_back(ev);
    SiftUp(static_cast<uint32_t>(heap_.size() - 1));
  }

  // Removes `ev` from wherever it sits: the last entry takes its place and
  // moves up or down to restore heap order.
  void HeapRemove(Event* ev) {
    const uint32_t i = ev->heap_idx;
    Event* last = heap_.back();
    heap_.pop_back();
    if (last != ev) {
      HeapSet(i, last);
      SiftUp(i);
      SiftDown(last->heap_idx);
    }
  }

  // Stages every event at the globally earliest pending time into due_,
  // sorted by insertion seq. Returns false when no events are pending.
  bool StageNextBatch() {
    const Time lane_t = LanePeek();
    const Time t = std::min(lane_t, HeapPeek());
    if (t == kTimeMax) {
      return false;
    }
    if (lane_t == t) {
      lane_peek_valid_ = false;  // consuming the minimum's slot entries
      StageLane(t);
    }
    while (HeapPeek() == t) {
      Event* ev = heap_.front();
      HeapRemove(ev);
      ev->where = Where::kStaged;
      due_.push_back(ev);
    }
    if (due_.size() > 1) {
      std::sort(due_.begin(), due_.end(),
                [](const Event* a, const Event* b) { return a->seq < b->seq; });
    }
    return true;
  }

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t live_events_ = 0;
  uint64_t executed_ = 0;

  std::vector<Event*> lane_;          // kLaneSlots intrusive slot lists
  std::vector<uint64_t> lane_words_;  // kLaneWords occupancy bitmap
  uint64_t lane_live_ = 0;
  Time lane_peek_cache_ = 0;  // last LanePeek() result, if still valid
  bool lane_peek_valid_ = false;

  std::vector<Event*> heap_;  // lane spills, (at, seq) min-heap
  std::vector<Event*> due_;   // current same-timestamp batch, seq order
  size_t due_pos_ = 0;

  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<uint32_t> free_slots_;
  WheelProfile profile_;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_EVENT_LOOP_H_

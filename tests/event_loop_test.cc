// EventLoop tests: differential fuzzing of the express-lane + indexed-heap
// queue against a plain std::priority_queue event loop, plus edge-case and
// lifetime regression tests.
//
// The queue must be observably indistinguishable from the priority queue:
// same execution order (time, then insertion seq), same now() trajectory,
// same events_executed()/HasWork() at every step. The fuzzer drives both
// implementations through identical random op sequences — schedules at
// deltas chosen to land in the lane, across its spill edge and deep in the
// heap, cancels, RunOne/RunUntil/RunUntilIdle, and reentrant schedule/cancel
// from inside callbacks — across many seeds and asserts lockstep
// equivalence.

#include "src/simkernel/event_loop.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/time.h"
#include "src/simkernel/sharded_event_loop.h"

namespace enoki {
namespace {

// ---- Reference implementation -------------------------------------------
// The simulator's original std::priority_queue event loop, kept as the
// ordering oracle for the differential test.

class LegacyEventLoop {
 public:
  using Callback = std::function<void()>;

  LegacyEventLoop() = default;

  Time now() const { return now_; }

  EventId ScheduleAt(Time at, Callback cb) {
    ENOKI_CHECK(at >= now_);
    const EventId id = ++next_seq_;
    queue_.push(Event{at, id, std::move(cb)});
    ++live_events_;
    return id;
  }

  void Cancel(EventId id) {
    ENOKI_CHECK(id != kInvalidEventId);
    auto inserted = cancelled_.insert(id).second;
    ENOKI_CHECK_MSG(inserted, "event cancelled twice");
    ENOKI_CHECK(live_events_ > 0);
    --live_events_;
  }

  bool HasWork() const { return live_events_ > 0; }

  bool RunOne() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      auto it = cancelled_.find(ev.seq);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      ENOKI_CHECK(ev.at >= now_);
      now_ = ev.at;
      --live_events_;
      ++executed_;
      ev.cb();
      return true;
    }
    return false;
  }

  void RunUntil(Time deadline) {
    while (!queue_.empty()) {
      if (PeekTime() > deadline) {
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

 private:
  struct Event {
    Time at;
    EventId seq;
    Callback cb;
  };

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  Time PeekTime() {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      auto it = cancelled_.find(top.seq);
      if (it == cancelled_.end()) {
        return top.at;
      }
      cancelled_.erase(it);
      queue_.pop();
    }
    return kTimeMax;
  }

  Time now_ = 0;
  EventId next_seq_ = 0;
  uint64_t live_events_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

// ---- Differential fuzzer -------------------------------------------------

// Per-loop mirror of the fuzzer's scheduled events. Both mirrors receive the
// same op sequence; callbacks behave identically (driven by the label), so
// any divergence in the execution log is an ordering bug.
template <typename Loop>
struct Mirror {
  Loop loop;
  std::vector<std::string> log;            // labels in execution order
  std::vector<Time> log_times;             // now() at each execution
  std::vector<EventId> top_ids;            // id per top-level event index
  std::vector<bool> top_fired;             // fired or reentrantly-spawned-done
  std::vector<bool> top_cancelled;

  // Schedules top-level event `i` at `at`. A "busy" event also exercises the
  // reentrant path: on firing it schedules two children at now()+child_delta
  // and immediately cancels the second (schedule+cancel inside a callback).
  void ScheduleTop(size_t i, Time at, bool busy, Time child_delta) {
    if (top_ids.size() <= i) {
      top_ids.resize(i + 1, kInvalidEventId);
      top_fired.resize(i + 1, false);
      top_cancelled.resize(i + 1, false);
    }
    top_ids[i] = loop.ScheduleAt(at, [this, i, busy, child_delta] {
      top_fired[i] = true;
      log.push_back(std::string("t").append(std::to_string(i)));
      log_times.push_back(loop.now());
      if (busy) {
        const Time t = loop.now() + child_delta;
        loop.ScheduleAt(t, [this, i] {
          log.push_back(std::string("c").append(std::to_string(i)));
          log_times.push_back(loop.now());
        });
        EventId doomed = loop.ScheduleAt(t, [this, i] {
          log.push_back("DOOMED" + std::to_string(i));
          log_times.push_back(loop.now());
        });
        loop.Cancel(doomed);
      }
    });
  }

  void CancelTop(size_t i) {
    top_cancelled[i] = true;
    loop.Cancel(top_ids[i]);
  }
};

template <typename A, typename B>
void ExpectLockstep(const Mirror<A>& a, const Mirror<B>& b, uint64_t seed,
                    int step) {
  ASSERT_EQ(a.loop.now(), b.loop.now()) << "seed=" << seed << " step=" << step;
  ASSERT_EQ(a.loop.HasWork(), b.loop.HasWork())
      << "seed=" << seed << " step=" << step;
  ASSERT_EQ(a.loop.events_executed(), b.loop.events_executed())
      << "seed=" << seed << " step=" << step;
  ASSERT_EQ(a.log, b.log) << "seed=" << seed << " step=" << step;
  ASSERT_EQ(a.log_times, b.log_times) << "seed=" << seed << " step=" << step;
}

// Deltas spanning the lane and the heap: same-time, within one 64-ns lane
// slot, a few slots, tick/IPC scale, multi-second and far-future heap
// residents (2^40 and 2^49 ns) — plus the express-lane window: anywhere
// inside it (slot wraparound as the base advances) and a tight band
// straddling the spill edge at kLaneSpanNs, where an off-by-one in
// LaneEligible would misplace events.
Time RandomDelta(std::mt19937_64& rng) {
  switch (rng() % 10) {
    case 0:
      return 0;
    case 1:
      return rng() % 64;                      // one lane slot
    case 2:
      return 64 + rng() % (4096 - 64);        // a few lane slots
    case 3:
      return rng() % 1'000'000;               // tick/IPC scale, lane
    case 4:
      return rng() % 4'000'000'000ULL;        // multi-second sim time, heap
    case 5:
      return (Time{1} << 40) + rng() % 1024;  // far-future heap resident
    case 6:
      return (Time{1} << 49) + rng() % 1024;  // farther still
    case 7:
      // Lane spill boundary: eligibility flips inside this band.
      return EventLoop::kLaneSpanNs - 600 + rng() % 1200;
    case 8:
      return rng() % EventLoop::kLaneSpanNs;  // full lane window, slot wrap
    default:
      return 1 + rng() % 1000;
  }
}

void FuzzOneSeed(uint64_t seed) {
  std::mt19937_64 rng(seed);
  Mirror<LegacyEventLoop> legacy;
  Mirror<EventLoop> queue;
  size_t next_top = 0;

  const int steps = 400;
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 45 || next_top == 0) {
      // Schedule a top-level event.
      const Time at = legacy.loop.now() + RandomDelta(rng);
      const bool busy = rng() % 4 == 0;
      const Time child_delta = rng() % 3 == 0 ? 0 : rng() % 1000;
      const size_t i = next_top++;
      legacy.ScheduleTop(i, at, busy, child_delta);
      queue.ScheduleTop(i, at, busy, child_delta);
    } else if (op < 60) {
      // Cancel a random live top-level event (both mirrors agree on
      // liveness, or ExpectLockstep already failed).
      std::vector<size_t> live;
      for (size_t i = 0; i < next_top; ++i) {
        if (!legacy.top_fired[i] && !legacy.top_cancelled[i]) {
          ASSERT_FALSE(queue.top_fired[i]);
          live.push_back(i);
        }
      }
      if (!live.empty()) {
        const size_t pick = live[rng() % live.size()];
        legacy.CancelTop(pick);
        queue.CancelTop(pick);
      }
    } else if (op < 85) {
      legacy.loop.RunOne();
      queue.loop.RunOne();
    } else if (op < 97) {
      const Time deadline = legacy.loop.now() + RandomDelta(rng);
      legacy.loop.RunUntil(deadline);
      queue.loop.RunUntil(deadline);
    } else {
      legacy.loop.RunUntilIdle();
      queue.loop.RunUntilIdle();
    }
    ExpectLockstep(legacy, queue, seed, step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  legacy.loop.RunUntilIdle();
  queue.loop.RunUntilIdle();
  ExpectLockstep(legacy, queue, seed, steps);
}

TEST(EventLoopDifferential, MatchesLegacyAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    FuzzOneSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;  // first divergent seed is enough to debug
    }
  }
}

// ---- Edge cases ----------------------------------------------------------

TEST(EventLoopEdge, RunUntilDeadlineExactlyOnEvent) {
  EventLoop loop;
  std::vector<int> fired;
  loop.ScheduleAt(100, [&] { fired.push_back(1); });
  loop.ScheduleAt(100, [&] { fired.push_back(2); });
  loop.ScheduleAt(101, [&] { fired.push_back(3); });
  loop.RunUntil(100);
  // Events at exactly the deadline execute; later ones do not.
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 100);
  EXPECT_TRUE(loop.HasWork());
  loop.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopEdge, PeekSkipsCancelledHeadRun) {
  // A run of cancelled events at the queue head must not stall RunUntil or
  // make it misreport the next event time.
  EventLoop loop;
  std::vector<EventId> doomed;
  for (int i = 0; i < 10; ++i) {
    doomed.push_back(loop.ScheduleAt(50 + i, [] { FAIL() << "cancelled event ran"; }));
  }
  bool survivor = false;
  loop.ScheduleAt(200, [&] { survivor = true; });
  for (EventId id : doomed) {
    loop.Cancel(id);
  }
  // Deadline between the cancelled run and the survivor: nothing may fire,
  // and time must advance exactly to the deadline.
  loop.RunUntil(120);
  EXPECT_EQ(loop.now(), 120);
  EXPECT_FALSE(survivor);
  EXPECT_TRUE(loop.HasWork());
  loop.RunUntil(200);
  EXPECT_TRUE(survivor);
  EXPECT_EQ(loop.events_executed(), 1u);
}

TEST(EventLoopEdge, HasWorkFalseAfterCancellingOnlyEvent) {
  EventLoop loop;
  const EventId id = loop.ScheduleAt(10, [] {});
  EXPECT_TRUE(loop.HasWork());
  loop.Cancel(id);
  EXPECT_FALSE(loop.HasWork());
  EXPECT_FALSE(loop.RunOne());
  EXPECT_EQ(loop.events_executed(), 0u);
  EXPECT_EQ(loop.now(), 0);
}

TEST(EventLoopEdge, TieBreakStableAcrossThousandEvents) {
  // 1000 events at the same timestamp must run in exact insertion order.
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    loop.ScheduleAt(42, [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(loop.now(), 42);
}

// ---- Cancel lifetime regression ------------------------------------------

// Cancel must destroy the callback (and everything it captured) immediately,
// not when the cancelled timestamp is eventually reached. Captured state can
// hold tasks, sockets, or big buffers alive; retaining it until a far-future
// timestamp is a leak in all but name.
TEST(EventLoopLifetime, CancelDestroysCallbackEagerly) {
  struct Tracker {
    explicit Tracker(int* p) : live(p) { ++*live; }
    Tracker(const Tracker& o) : live(o.live) { ++*live; }
    ~Tracker() { --*live; }
    int* live;
  };

  EventLoop loop;
  int live = 0;
  const EventId far = loop.ScheduleAt(Time{1} << 45, [t = Tracker(&live)] {
    FAIL() << "cancelled event ran";
    (void)t;
  });
  loop.ScheduleAt(1, [] {});
  ASSERT_GT(live, 0);
  loop.Cancel(far);
  // The capture dies at Cancel() time, long before timestamp 2^45.
  EXPECT_EQ(live, 0);
  loop.RunUntilIdle();
  EXPECT_EQ(live, 0);
  EXPECT_EQ(loop.events_executed(), 1u);
}

// Same property for events past the lane horizon, which live in the heap:
// cancel removes them from the middle of the heap, so the callback dies and
// the record is reclaimed at Cancel() time — no tombstone holds a slot until
// its timestamp — and the survivors still fire in (time, seq) order.
TEST(EventLoopLifetime, CancelRemovesHeapEventEagerly) {
  struct Tracker {
    explicit Tracker(int* p) : live(p) { ++*live; }
    Tracker(const Tracker& o) : live(o.live) { ++*live; }
    ~Tracker() { --*live; }
    int* live;
  };

  EventLoop loop;
  loop.WarmSlabs(256);
  int live = 0;
  const EventId far = loop.ScheduleAt(Time{1} << 60, [t = Tracker(&live)] {
    FAIL() << "cancelled event ran";
    (void)t;
  });
  ASSERT_EQ(loop.wheel_profile().lane_spills, 1u) << "event should be heap-resident";
  ASSERT_GT(live, 0);
  loop.Cancel(far);
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(loop.HasWork());

  // Schedule-then-cancel churn never grows the warmed pool: a tombstoning
  // heap would keep every cancelled record's slot until its timestamp.
  for (int i = 0; i < 10'000; ++i) {
    loop.Cancel(loop.ScheduleAt(EventLoop::kLaneSpanNs + 1'000 + i, [] {}));
  }
  EXPECT_EQ(loop.wheel_profile().slab_allocs, 0u);
  EXPECT_FALSE(loop.HasWork());

  // Descending times in runs of three equal timestamps, every fifth one
  // cancelled from wherever it sits in the heap.
  std::vector<std::pair<Time, int>> expected;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    const Time at = 2 * EventLoop::kLaneSpanNs + static_cast<Time>((63 - i) / 3) * 1'000;
    ids.push_back(loop.ScheduleAt(at, [&fired, i] { fired.push_back(i); }));
    if (i % 5 != 2) {
      expected.emplace_back(at, i);
    }
  }
  for (int i = 2; i < 64; i += 5) {
    loop.Cancel(ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(loop.wheel_profile().lane_spills, 1u + 10'000u + 64u);
  std::sort(expected.begin(), expected.end());  // time, then seq (= i)
  std::vector<int> expected_order;
  for (const auto& [at, i] : expected) {
    expected_order.push_back(i);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(fired, expected_order);
  EXPECT_EQ(loop.wheel_profile().slab_allocs, 0u);
}

// Lane events are intrusively linked, so cancel must unlink and reclaim them
// immediately — no tombstones, no retained captures, and HasWork must go
// false the moment the only lane event dies.
TEST(EventLoopLifetime, CancelUnlinksLaneEventEagerly) {
  struct Tracker {
    explicit Tracker(int* p) : live(p) { ++*live; }
    Tracker(const Tracker& o) : live(o.live) { ++*live; }
    ~Tracker() { --*live; }
    int* live;
  };

  EventLoop loop;
  int live = 0;
  const EventId near = loop.ScheduleAt(100, [t = Tracker(&live)] {
    FAIL() << "cancelled event ran";
    (void)t;
  });
  ASSERT_EQ(loop.wheel_profile().lane_hits, 1u) << "event should be lane-resident";
  ASSERT_GT(live, 0);
  loop.Cancel(near);
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(loop.HasWork());
  EXPECT_FALSE(loop.RunOne());

  // Cancel in the middle of a populated slot list, then run the survivors.
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    // Same 64-ns lane slot, distinct times: exercises unordered-list unlink.
    ids.push_back(loop.ScheduleAt(6'400 + i % 4, [&fired, i] { fired.push_back(i); }));
  }
  loop.Cancel(ids[2]);
  loop.Cancel(ids[5]);
  loop.Cancel(ids[7]);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 1, 6, 3}));  // time, then seq order
}

// Ids must be generation-checked: a slot reused by a later event must not be
// cancellable through the earlier event's id.
TEST(EventLoopLifetime, ExecutedCountAndSlotReuse) {
  EventLoop loop;
  int fired = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      loop.ScheduleAt(loop.now() + 1 + i, [&fired] { ++fired; });
    }
    loop.RunUntilIdle();
  }
  EXPECT_EQ(fired, 300);
  EXPECT_EQ(loop.events_executed(), 300u);
  EXPECT_FALSE(loop.HasWork());
}

// ---------------------------------------------------------------------------
// Sharded engine: differential fuzz against the plain loop, and merge-order
// determinism across host thread counts (ISSUE 7).
// ---------------------------------------------------------------------------

// A 1-shard ShardedEventLoop must be indistinguishable from a plain
// EventLoop: drive both with the same randomized schedule-heavy script
// through the engine's RunUntil/RunUntilIdle surface and compare the
// execution logs. (This is the sharded-vs-legacy differential the issue asks
// for — the plain loop is itself differentially fuzzed against the retained
// legacy heap loop above, so transitively the sharded engine matches the
// legacy ordering too.)
TEST(ShardedDifferential, SingleShardMatchesPlainLoopAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng_a(seed);
    std::mt19937_64 rng_b(seed);
    EventLoop plain;
    ShardedEventLoop::Options opts;
    opts.nshards = 1;
    opts.threads = 1;
    ShardedEventLoop engine(opts);
    std::vector<std::pair<int, Time>> log_a;
    std::vector<std::pair<int, Time>> log_b;

    auto script = [](std::mt19937_64& rng, EventLoop& loop,
                     std::vector<std::pair<int, Time>>& log,
                     auto run_until, auto run_idle) {
      int label = 0;
      for (int step = 0; step < 200; ++step) {
        const uint64_t pick = rng() % 100;
        if (pick < 60) {
          const Time at = loop.now() + rng() % 50'000;
          const int id = label++;
          loop.ScheduleAt(at, [id, &log, &loop] { log.emplace_back(id, loop.now()); });
        } else if (pick < 90) {
          run_until(loop.now() + rng() % 30'000);
        } else {
          run_idle();
        }
      }
      run_idle();
    };

    script(rng_a, plain, log_a,
           [&plain](Time t) { plain.RunUntil(t); },
           [&plain] { plain.RunUntilIdle(); });
    script(rng_b, engine.shard(0), log_b,
           [&engine](Time t) { engine.RunUntil(t); },
           [&engine] { engine.RunUntilIdle(); });

    ASSERT_EQ(log_a, log_b) << "seed " << seed;
    EXPECT_EQ(plain.events_executed(), engine.events_executed()) << "seed " << seed;
  }
}

// Multi-shard determinism: a scripted cross-shard cascade must produce the
// same per-shard execution logs, the same merge fingerprint, and the same
// observed merge sequence no matter how many host threads run the shards.
struct CascadeRun {
  std::vector<std::string> exec_log;   // per-shard logs, concatenated
  std::vector<std::string> merge_log;  // committed cross messages, in order
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint64_t cross = 0;
};

CascadeRun RunCascade(int threads) {
  static constexpr int kShards = 4;
  static constexpr Duration kEpoch = 1'000;
  ShardedEventLoop::Options opts;
  opts.nshards = kShards;
  opts.epoch_ns = kEpoch;
  opts.threads = threads;
  ShardedEventLoop engine(opts);

  CascadeRun out;
  // Only shard s's executing thread appends to logs[s]; the merge observer
  // runs on the barrier (main) thread.
  auto logs = std::make_shared<std::array<std::vector<std::string>, kShards>>();
  engine.set_merge_observer([&out](Time at, int src, int dst, uint64_t seq) {
    out.merge_log.push_back(std::to_string(at) + ":" + std::to_string(src) + ">" +
                            std::to_string(dst) + "#" + std::to_string(seq));
  });

  // Each hop logs locally, schedules a local echo, and forwards to the next
  // shard with a latency that varies (deterministically) by depth.
  std::function<void(int, int)> hop = [&](int s, int depth) {
    EventLoop& loop = engine.shard(s);
    (*logs)[static_cast<size_t>(s)].push_back(
        std::string("s").append(std::to_string(s)) + "@" + std::to_string(loop.now()) + "d" +
        std::to_string(depth));
    loop.ScheduleAfter(static_cast<Duration>(depth * 37 % 900), [logs, s, &engine] {
      (*logs)[static_cast<size_t>(s)].push_back(
          "echo s" + std::to_string(s) + "@" + std::to_string(engine.shard(s).now()));
    });
    if (depth == 0) {
      return;
    }
    const Duration latency = kEpoch + static_cast<Duration>(depth * 131 % 700);
    engine.PostCross(s, (s + 1) % kShards, latency, [&hop, s, depth] {
      hop((s + 1) % kShards, depth - 1);
    });
  };

  for (int s = 0; s < kShards; ++s) {
    engine.shard(s).ScheduleAt(static_cast<Time>((s + 1) * 100), [&hop, s] { hop(s, 12); });
  }
  engine.RunUntilIdle();

  for (const auto& shard_log : *logs) {
    out.exec_log.insert(out.exec_log.end(), shard_log.begin(), shard_log.end());
  }
  out.fingerprint = engine.MergeFingerprint();
  out.events = engine.events_executed();
  out.cross = engine.cross_messages();
  return out;
}

TEST(ShardedDeterminism, CascadeIdenticalAcrossThreadCounts) {
  const CascadeRun t1 = RunCascade(1);
  EXPECT_GT(t1.cross, 0u);
  EXPECT_FALSE(t1.merge_log.empty());
  for (int threads : {2, 4}) {
    const CascadeRun tn = RunCascade(threads);
    EXPECT_EQ(t1.exec_log, tn.exec_log) << "threads=" << threads;
    EXPECT_EQ(t1.merge_log, tn.merge_log) << "threads=" << threads;
    EXPECT_EQ(t1.fingerprint, tn.fingerprint) << "threads=" << threads;
    EXPECT_EQ(t1.events, tn.events) << "threads=" << threads;
    EXPECT_EQ(t1.cross, tn.cross) << "threads=" << threads;
  }
}

// Same-instant sends from one shard share (deliver_time, src), so only
// their seqs order them: each is its own mailbox entry, and the merge must
// deliver them in send order, identically at every host thread count.
struct BurstRun {
  uint64_t fingerprint = 0;
  uint64_t cross = 0;
  std::vector<std::string> merge_log;
  std::vector<int> delivered;
};

BurstRun RunSameInstantBurst(int threads) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 1'000;
  opts.threads = threads;
  ShardedEventLoop engine(opts);
  BurstRun out;
  engine.set_merge_observer([&out](Time at, int src, int dst, uint64_t seq) {
    out.merge_log.push_back(std::to_string(at) + ":" + std::to_string(src) +
                            ">" + std::to_string(dst) + "#" + std::to_string(seq));
  });
  // One callback fires 8 cross posts at the same instant with the same
  // latency; a second burst follows at a different instant.
  for (Time start : {Time{100}, Time{5'000}}) {
    engine.shard(0).ScheduleAt(start, [&engine, &out] {
      for (int i = 0; i < 8; ++i) {
        const int tag = static_cast<int>(engine.shard(0).now()) + i;
        engine.PostCross(0, 1, 2'000, [&out, tag] { out.delivered.push_back(tag); });
      }
    });
  }
  engine.RunUntilIdle();
  out.fingerprint = engine.MergeFingerprint();
  out.cross = engine.cross_messages();
  return out;
}

TEST(ShardedDeterminism, SameInstantBurstDeliversInSendOrder) {
  const BurstRun t1 = RunSameInstantBurst(1);
  ASSERT_EQ(t1.cross, 16u);
  ASSERT_EQ(t1.delivered.size(), 16u);
  for (size_t i = 1; i < t1.delivered.size(); ++i) {
    EXPECT_LT(t1.delivered[i - 1], t1.delivered[i]) << "send order violated";
  }
  const BurstRun t2 = RunSameInstantBurst(2);
  EXPECT_EQ(t2.cross, t1.cross);
  EXPECT_EQ(t2.fingerprint, t1.fingerprint);
  EXPECT_EQ(t2.merge_log, t1.merge_log);
  EXPECT_EQ(t2.delivered, t1.delivered);
}

// The epoch-leap optimization must not change behaviour: widely spaced
// events across shards fire at their exact times, and idle spans cost far
// fewer epochs than stepping every window would.
TEST(ShardedDeterminism, EpochLeapSkipsIdleSpans) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 1'000;
  opts.threads = 1;
  ShardedEventLoop engine(opts);
  std::vector<Time> fired;
  for (int i = 1; i <= 5; ++i) {
    const Time at = static_cast<Time>(i) * 10'000'000;  // 10ms apart
    engine.shard(i % 2).ScheduleAt(at, [&fired, at, &engine, i] {
      fired.push_back(at);
      (void)i;
      EXPECT_EQ(engine.shard(0).now() >= at || engine.shard(1).now() >= at, true);
    });
  }
  engine.RunUntilIdle();
  ASSERT_EQ(fired.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], static_cast<Time>(i + 1) * 10'000'000);
  }
  // 5 events 10ms apart with a 1us epoch: stepping every window would cost
  // ~50'000 epochs; the leap makes it O(events).
  EXPECT_LT(engine.epochs(), 50u);
}

// A run call ends on a barrier whose commits are due after its deadline.
// Those messages must be inserted exactly once: pending between the calls
// (so HasWork and the loops' peeks see them) and fired once, at their time,
// by the next call, at every thread count and in both epoch modes.
TEST(ShardedDeterminism, MessageCommittedAtRunEndFiresOnceInNextRun) {
  constexpr int kShards = 4;
  constexpr Duration kLatency = 5'000;
  for (bool adaptive : {false, true}) {
    for (int threads : {1, 2, 4}) {
      ShardedEventLoop::Options opts;
      opts.nshards = kShards;
      opts.epoch_ns = 1'000;
      opts.threads = threads;
      opts.adaptive_epochs = adaptive;
      ShardedEventLoop engine(opts);
      engine.RegisterCrossLatency(kLatency);
      std::vector<std::vector<Time>> fired(kShards);
      for (int s = 0; s < kShards; ++s) {
        const int dst = (s + 1) % kShards;
        // 900 lies in the first call's only (and last) epoch, [0, 1000].
        engine.shard(s).ScheduleAt(900, [&engine, &fired, s, dst] {
          engine.PostCross(s, dst, kLatency, [&engine, &fired, dst] {
            fired[static_cast<size_t>(dst)].push_back(engine.shard(dst).now());
          });
        });
      }
      engine.RunUntil(1'000);
      const std::string where =
          std::string(adaptive ? "adaptive" : "static") + " threads=" + std::to_string(threads);
      ASSERT_EQ(engine.cross_messages(), static_cast<uint64_t>(kShards)) << where;
      EXPECT_TRUE(engine.HasWork()) << where;
      for (int s = 0; s < kShards; ++s) {
        EXPECT_TRUE(fired[static_cast<size_t>(s)].empty()) << where;
        EXPECT_EQ(engine.shard(s).PeekTime(), 5'900u) << where;
      }
      engine.RunUntil(20'000);
      for (int s = 0; s < kShards; ++s) {
        EXPECT_EQ(fired[static_cast<size_t>(s)], std::vector<Time>{5'900}) << where;
      }
      EXPECT_FALSE(engine.HasWork()) << where;
      EXPECT_EQ(engine.now(), 20'000u) << where;
    }
  }
}

// Cross-shard latency below the lookahead bound is a programming error and
// must be rejected loudly (silently accepting it would break the parallel
// correctness argument).
TEST(ShardedDeterminism, RejectsLatencyBelowEpoch) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 5'000;
  opts.threads = 1;
  ShardedEventLoop engine(opts);
  EXPECT_DEATH(engine.PostCross(0, 1, 4'999, [] {}), "lookahead");
}

// The adaptive ramp, epoch by epoch: the window is epoch_ns through epoch 7,
// doubles after epochs 8, 16 and 24, where it meets the registered latency,
// and stays there. Each RunUntil below runs exactly one epoch, so the ramp's
// epoch count must carry across run calls.
TEST(ShardedDeterminism, AdaptiveWindowDoublesEveryEightEpochs) {
  constexpr Duration kEpoch = 5'000;
  constexpr Duration kLatency = 40'000;
  for (int threads : {1, 2}) {
    ShardedEventLoop::Options opts;
    opts.nshards = 2;
    opts.epoch_ns = kEpoch;
    opts.threads = threads;
    opts.adaptive_epochs = true;
    ShardedEventLoop engine(opts);
    engine.RegisterCrossLatency(kLatency);
    // A tick every 100 ns on both shards: no window is empty, and each holds
    // far more events than any density threshold would ask.
    std::vector<std::function<void()>> ticks(2);
    for (int s = 0; s < 2; ++s) {
      EventLoop& shard = engine.shard(s);
      std::function<void()>& self = ticks[static_cast<size_t>(s)];
      self = [&shard, &self] {
        if (shard.now() < 1'000'000) {
          shard.ScheduleAt(shard.now() + 100, [&self] { self(); });
        }
      };
      shard.ScheduleAt(100, [&self] { self(); });
    }
    for (uint64_t epoch = 1; epoch <= 40; ++epoch) {
      engine.RunUntil(engine.now() + engine.window_ns());
      ASSERT_EQ(engine.epochs(), epoch) << "threads=" << threads;
      const Duration want = std::min<Duration>(kEpoch << (epoch / 8), kLatency);
      ASSERT_EQ(engine.window_ns(), want) << "threads=" << threads << " epoch=" << epoch;
    }
    EXPECT_EQ(engine.profile().widens, 3u) << "threads=" << threads;
  }
}

// What a sparse two-shard run computed: each shard's event times, the
// committed merge order and the event count, but not its epoch schedule.
struct SparseRun {
  std::vector<std::string> log;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t idle_leaps = 0;
  uint64_t widens = 0;
  Duration window = 0;
};

// From 1 ms on, each shard ticks every 120 us, shard 1 offset by 60 us, for
// 2 ms, then falls silent for 10 ms and ticks for 2 ms more. Every tick posts to the
// other shard with a 30 us latency, above the 20 us registered bound, so
// consecutive events are always more than a window apart and every epoch
// leaps an idle span.
SparseRun RunSparseTicks(bool adaptive, int threads) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 5'000;
  opts.threads = threads;
  opts.adaptive_epochs = adaptive;
  ShardedEventLoop engine(opts);
  engine.RegisterCrossLatency(20'000);
  std::array<std::vector<std::string>, 2> logs;
  auto note = [&engine, &logs](int s, const char* what) {
    logs[static_cast<size_t>(s)].push_back(std::string(what).append(std::to_string(s)) + "@" +
                                           std::to_string(engine.shard(s).now()));
  };
  for (int s = 0; s < 2; ++s) {
    for (Time start : {Time{1'000'000}, Time{13'000'000}}) {
      for (Time at = start + 60'000 * s; at < start + 2'000'000; at += 120'000) {
        engine.shard(s).ScheduleAt(at, [&engine, &note, s] {
          note(s, "tick");
          engine.PostCross(s, 1 - s, 30'000, [&note, s] { note(1 - s, "recv"); });
        });
      }
    }
  }
  engine.RunUntilIdle();
  SparseRun out;
  out.log = logs[0];
  out.log.insert(out.log.end(), logs[1].begin(), logs[1].end());
  out.fingerprint = engine.MergeFingerprint();
  out.events = engine.events_executed();
  out.epochs = engine.epochs();
  out.idle_leaps = engine.profile().idle_leaps;
  out.widens = engine.profile().widens;
  out.window = engine.window_ns();
  return out;
}

// The ramp does not look at traffic: it widens the window even on a run
// whose every epoch leaps idle time, and the run still computes what the
// static schedule computes.
TEST(ShardedDeterminism, AdaptiveRampOverIdleLeapsMatchesStatic) {
  const SparseRun fixed = RunSparseTicks(/*adaptive=*/false, 1);
  ASSERT_EQ(fixed.log.size(), 2u * 2u * 2u * 17u);  // ticks and receipts
  for (int threads : {1, 2}) {
    const SparseRun r = RunSparseTicks(/*adaptive=*/true, threads);
    EXPECT_EQ(r.idle_leaps, r.epochs) << "threads=" << threads;
    EXPECT_EQ(r.widens, 2u) << "threads=" << threads;
    EXPECT_EQ(r.window, 20'000u) << "threads=" << threads;
    EXPECT_EQ(r.log, fixed.log) << "threads=" << threads;
    EXPECT_EQ(r.fingerprint, fixed.fingerprint) << "threads=" << threads;
    EXPECT_EQ(r.events, fixed.events) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Warm-path and profile-counter tests.
// ---------------------------------------------------------------------------

TEST(EventLoopProfile, WarmSlabsPreventsDemandGrowth) {
  EventLoop warm;
  warm.WarmSlabs(1000);
  for (int i = 0; i < 1000; ++i) {
    warm.ScheduleAt(1'000 + i, [] {});
  }
  // Warming is not demand growth: slab_allocs names only allocations forced
  // by a full pool, and the pool never filled.
  EXPECT_EQ(warm.wheel_profile().slab_allocs, 0u);

  EventLoop cold;
  for (int i = 0; i < 1000; ++i) {
    cold.ScheduleAt(1'000 + i, [] {});
  }
  // 256 events per slab: 1000 live events demand-grow 4 slabs.
  EXPECT_EQ(cold.wheel_profile().slab_allocs, 4u);
}

TEST(EventLoopProfile, LaneAbsorbsNearHorizonEvents) {
  EventLoop loop;
  loop.ScheduleAt(500, [] {});                            // lane hit
  loop.ScheduleAt(EventLoop::kLaneSpanNs - 1, [] {});     // last eligible ns
  loop.ScheduleAt(EventLoop::kLaneSpanNs + 10, [] {});    // past window: spill
  EXPECT_EQ(loop.wheel_profile().lane_hits, 2u);
  EXPECT_EQ(loop.wheel_profile().lane_spills, 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.events_executed(), 3u);
}

// The clamp invariant end to end: with adaptive epochs on, the effective
// window may widen under dense traffic but never past the minimum registered
// cross-shard latency, and posts below that bound die loudly.
TEST(ShardedDeterminism, AdaptiveWindowClampedToRegisteredLatency) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 5'000;
  opts.threads = 1;
  opts.adaptive_epochs = true;
  ShardedEventLoop engine(opts);
  engine.RegisterCrossLatency(20'000);
  // Dense tickers on both shards: ~50 events per shard per 5us epoch, far
  // above the widen threshold. Two decisions (16 epochs, 120us) reach the
  // 20us clamp well before the tickers stop at 400us.
  std::vector<std::function<void()>> ticks(2);
  for (int s = 0; s < 2; ++s) {
    EventLoop& shard = engine.shard(s);
    std::function<void()>& self = ticks[static_cast<size_t>(s)];
    self = [&shard, &self] {
      if (shard.now() < 400'000) {
        shard.ScheduleAt(shard.now() + 100, [&self] { self(); });
      }
    };
    shard.ScheduleAt(100, [&self] { self(); });
  }
  engine.RunUntilIdle();
  EXPECT_GT(engine.profile().widens, 0u);
  EXPECT_EQ(engine.window_ns(), 20'000u)
      << "widened to, and no further than, the registered latency";
}

TEST(ShardedDeterminism, AdaptiveRejectsPostBelowRegisteredLatency) {
  ShardedEventLoop::Options opts;
  opts.nshards = 2;
  opts.epoch_ns = 5'000;
  opts.threads = 1;
  opts.adaptive_epochs = true;
  ShardedEventLoop engine(opts);
  engine.RegisterCrossLatency(20'000);
  // The window may widen up to 20us, so a 10us cross latency — legal in
  // static mode — would break lookahead here and must be rejected.
  EXPECT_DEATH(engine.PostCross(0, 1, 10'000, [] {}), "lookahead");
}

}  // namespace
}  // namespace enoki

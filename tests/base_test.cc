// Unit tests for the base substrate: RNG, stats, ring buffer, CPU mask,
// event loop, and the log-bucketed latency recorder.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/arena.h"
#include "src/base/cpumask.h"
#include "src/base/ring_buffer.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/simkernel/event_loop.h"

namespace enoki {
namespace {

// ---- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  StatAccumulator acc;
  for (int i = 0; i < 100000; ++i) {
    acc.Record(rng.NextGaussian());
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

// ---- StatAccumulator ----

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    acc.Record(x);
  }
  EXPECT_EQ(acc.count(), 5u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_NEAR(acc.variance(), 2.5, 1e-9);
}

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, EmptyMinMaxAreZero) {
  // min()/max() must not leak the +/-inf sentinels on an empty accumulator.
  StatAccumulator acc;
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.sum(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(StatAccumulator, SingleSampleHasZeroVariance) {
  StatAccumulator acc;
  acc.Record(42.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
  // Sample variance is undefined at n=1; the accumulator reports 0, not NaN.
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(StatAccumulator, ResetRestoresEmptyState) {
  StatAccumulator acc;
  acc.Record(-7.0);
  acc.Record(9.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.min(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  // A reset accumulator must accept new samples as if freshly constructed
  // (in particular the min/max sentinels must be re-armed).
  acc.Record(5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

// ---- LatencyRecorder ----

TEST(LatencyRecorder, ExactSmallValues) {
  LatencyRecorder rec;
  for (Duration d = 0; d < 64; ++d) {
    rec.Record(d);
  }
  EXPECT_EQ(rec.count(), 64u);
  EXPECT_EQ(rec.min(), 0u);
  EXPECT_EQ(rec.max(), 63u);
  EXPECT_LE(rec.Percentile(50.0), 32u);
}

TEST(LatencyRecorder, PercentileWithinRelativeError) {
  LatencyRecorder rec;
  // Uniform 1..100000 ns.
  for (Duration d = 1; d <= 100000; ++d) {
    rec.Record(d);
  }
  const Duration p50 = rec.Percentile(50.0);
  const Duration p99 = rec.Percentile(99.0);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.05);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.05);
}

TEST(LatencyRecorder, LargeValues) {
  LatencyRecorder rec;
  rec.Record(Seconds(10));
  rec.Record(Seconds(20));
  EXPECT_GE(rec.Percentile(99.0), Seconds(10));
  EXPECT_EQ(rec.max(), Seconds(20));
}

TEST(LatencyRecorder, MergeCombinesCounts) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.Record(100);
  b.Record(200);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 200u);
}

TEST(LatencyRecorder, RunRecordMatchesRepeatedSingles) {
  LatencyRecorder runs;
  LatencyRecorder singles;
  // n = 0 is a no-op: it moves neither the count nor either extreme, also
  // on an empty recorder.
  runs.Record(0, 0);
  EXPECT_EQ(runs.count(), 0u);
  const std::pair<Duration, uint64_t> kRuns[] = {
      {125, 1000}, {40, 3}, {125, 17}, {Seconds(3), 2}, {Seconds(100), 0}, {1, 1}, {125, 500}};
  for (const auto& [ns, n] : kRuns) {
    runs.Record(ns, n);
    for (uint64_t i = 0; i < n; ++i) {
      singles.Record(ns);
    }
  }
  EXPECT_EQ(runs.count(), singles.count());
  EXPECT_EQ(runs.mean_ns(), singles.mean_ns());
  EXPECT_EQ(runs.min(), singles.min());
  EXPECT_EQ(runs.max(), singles.max());
  for (double p : {50.0, 99.0, 99.9}) {
    EXPECT_EQ(runs.Percentile(p), singles.Percentile(p)) << "p" << p;
  }
  EXPECT_EQ(runs.count(), 1523u);
  EXPECT_EQ(runs.min(), 1);
  EXPECT_EQ(runs.max(), Seconds(3));
}

TEST(LatencyRecorder, MonotonePercentiles) {
  LatencyRecorder rec;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    rec.Record(rng.NextBelow(1'000'000));
  }
  Duration prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const Duration v = rec.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(LatencyRecorder, EmptyPercentileIsZero) {
  // Percentile on an empty recorder must not divide by zero or walk off the
  // bucket array; every query answers 0.
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.Percentile(0.0), 0);
  EXPECT_EQ(rec.Percentile(50.0), 0);
  EXPECT_EQ(rec.Percentile(100.0), 0);
  EXPECT_EQ(rec.min(), 0);
  EXPECT_EQ(rec.max(), 0);
  EXPECT_EQ(rec.mean_ns(), 0.0);
}

TEST(LatencyRecorder, SingleSamplePercentiles) {
  LatencyRecorder rec;
  rec.Record(777);
  // Every percentile of a single sample is that sample (to bucket
  // resolution: the upper edge of its containing bucket).
  const Duration p0 = rec.Percentile(0.0);
  const Duration p100 = rec.Percentile(100.0);
  EXPECT_EQ(p0, p100);
  EXPECT_GE(p100, 777);
  EXPECT_LE(static_cast<double>(p100), 777.0 * 1.05);
}

TEST(LatencyRecorder, ResetRestoresEmptyState) {
  LatencyRecorder rec;
  rec.Record(1000);
  rec.Record(2000);
  rec.Reset();
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.Percentile(99.0), 0);
  EXPECT_EQ(rec.max(), 0);
  rec.Record(30);
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_EQ(rec.min(), 30);
  EXPECT_EQ(rec.max(), 30);
}

TEST(GeometricMeanTest, KnownValue) {
  EXPECT_NEAR(GeometricMean({1.0, 4.0}), 2.0, 1e-9);
  EXPECT_NEAR(GeometricMean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

// ---- RingBuffer ----

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(rb.Push(i));
  }
  for (int i = 0; i < 8; ++i) {
    auto v = rb.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(rb.Pop().has_value());
}

TEST(RingBuffer, OverrunDrops) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 10; ++i) {
    rb.Push(i);
  }
  EXPECT_EQ(rb.dropped(), 6u);
  EXPECT_EQ(rb.size(), 4u);
}

TEST(RingBuffer, CapacityIsExactForPow2) {
  RingBuffer<int> rb(8);
  EXPECT_EQ(rb.capacity(), 8u);
}

TEST(RingBuffer, RoundUpPow2Helper) {
  EXPECT_EQ(RingBuffer<int>::RoundUpPow2(0), 1u);
  EXPECT_EQ(RingBuffer<int>::RoundUpPow2(1), 1u);
  EXPECT_EQ(RingBuffer<int>::RoundUpPow2(5), 8u);
  EXPECT_EQ(RingBuffer<int>::RoundUpPow2(1024), 1024u);
  EXPECT_EQ(RingBuffer<int>::RoundUpPow2(1025), 2048u);
}

TEST(RingBufferDeathTest, RejectsNonPow2Capacity) {
  EXPECT_DEATH(RingBuffer<int>(5), "power of two");
  EXPECT_DEATH(RingBuffer<int>(0), "power of two");
}

TEST(RingBuffer, SpscThreaded) {
  RingBuffer<uint64_t> rb(1024);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&rb] {
    for (uint64_t i = 1; i <= kCount; ++i) {
      while (!rb.Push(i)) {
      }
    }
  });
  uint64_t expected = 1;
  while (expected <= kCount) {
    if (auto v = rb.Pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  // All values arrived intact and in order (failed pushes were retried, so
  // nothing was actually lost).
  EXPECT_EQ(expected, kCount + 1);
}

TEST(RingBuffer, MoveOnlyElements) {
  RingBuffer<std::unique_ptr<int>> rb(4);
  rb.Push(std::make_unique<int>(42));
  auto v = rb.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 42);
}

// ---- CpuMask ----

TEST(CpuMask, SetTestClear) {
  CpuMask m;
  EXPECT_TRUE(m.Empty());
  m.Set(5);
  m.Set(79);
  EXPECT_TRUE(m.Test(5));
  EXPECT_TRUE(m.Test(79));
  EXPECT_FALSE(m.Test(6));
  EXPECT_EQ(m.Count(), 2);
  m.Clear(5);
  EXPECT_FALSE(m.Test(5));
}

TEST(CpuMask, AllAndFirst) {
  CpuMask m = CpuMask::All(8);
  EXPECT_EQ(m.Count(), 8);
  EXPECT_EQ(m.First(), 0);
  EXPECT_FALSE(m.Test(8));
}

TEST(CpuMask, NextAfterIterates) {
  CpuMask m;
  m.Set(3);
  m.Set(70);
  EXPECT_EQ(m.First(), 3);
  EXPECT_EQ(m.NextAfter(3), 70);
  EXPECT_EQ(m.NextAfter(70), -1);
}

TEST(CpuMask, WordWiseIterationMatchesBitByBitReference) {
  // Reference: the next set bit found by testing one CPU at a time.
  auto ref_next = [](const CpuMask& m, int cpu) {
    for (int i = cpu + 1; i < CpuMask::kMaxCpus; ++i) {
      if (m.Test(i)) {
        return i;
      }
    }
    return -1;
  };
  const int edges[] = {0, 63, 64, 127, 128, 255};
  Rng rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    CpuMask m;
    // Densities from empty to nearly full, plus the word-boundary CPUs.
    const int density = trial % 9;
    for (int cpu = 0; cpu < CpuMask::kMaxCpus; ++cpu) {
      if (density > 0 && static_cast<int>(rng.Next() % 8) < density - 1) {
        m.Set(cpu);
      }
    }
    for (int e : edges) {
      if (rng.Next() % 2 == 0) {
        m.Set(e);
      }
    }
    EXPECT_EQ(m.First(), ref_next(m, -1)) << trial;
    for (int cpu = -1; cpu < CpuMask::kMaxCpus; ++cpu) {
      ASSERT_EQ(m.NextAfter(cpu), ref_next(m, cpu)) << trial << " after " << cpu;
    }
  }
  for (int e : edges) {
    const CpuMask m = CpuMask::Single(e);
    EXPECT_EQ(m.First(), e);
    EXPECT_EQ(m.NextAfter(e - 1), e);
    EXPECT_EQ(m.NextAfter(e), -1);
  }
  EXPECT_EQ(CpuMask().First(), -1);
}

TEST(CpuMask, IntersectAndWords) {
  CpuMask a = CpuMask::All(10);
  CpuMask b = CpuMask::Single(4);
  EXPECT_EQ(a.Intersect(b), b);
  CpuMask c = CpuMask::FromWords(a.word(0), a.word(1));
  EXPECT_EQ(a, c);
}

TEST(CpuMask, OutOfRangeTestIsFalse) {
  CpuMask m = CpuMask::All(128);
  EXPECT_FALSE(m.Test(-1));
  EXPECT_FALSE(m.Test(128));
}

// ---- EventLoop ----

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
}

TEST(EventLoop, TieBreakBySequence) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });
  loop.ScheduleAt(10, [&] { order.push_back(3); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(10, [&] { ran = true; });
  loop.Cancel(id);
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(10, [&] { ++count; });
  loop.ScheduleAt(100, [&] { ++count; });
  loop.RunUntil(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), 50u);
  loop.RunUntil(100);
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(10, recur);
    }
  };
  loop.ScheduleAfter(10, recur);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 50u);
}

TEST(EventLoop, ExecutedCountExcludesCancelled) {
  EventLoop loop;
  loop.ScheduleAt(1, [] {});
  const EventId id = loop.ScheduleAt(2, [] {});
  loop.Cancel(id);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.events_executed(), 1u);
}

// ---- RingBuffer compile-time capacity ----

TEST(RingBuffer, CheckedCapacityConstructsValidRing) {
  RingBuffer<int> rb = RingBuffer<int>::ForCapacity<8>();
  EXPECT_EQ(rb.capacity(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(rb.Push(i));
  }
  EXPECT_FALSE(rb.Push(99));  // bounded: the ninth push is observed dropped
  EXPECT_EQ(rb.dropped(), 1u);
  EXPECT_EQ(rb.Pop().value(), 0);
  // CheckedCapacity is usable in constant expressions.
  static_assert(RingBuffer<int>::CheckedCapacity<4096>() == 4096);
  // Note: RingBuffer<int>::CheckedCapacity<48>() is (deliberately) a
  // compile error — mailbox sizing mistakes fail at build time.
}

// ---- Arena ----

TEST(Arena, BumpAllocatesAndAligns) {
  Arena arena(64);
  auto* a = static_cast<uint8_t*>(arena.Allocate(3, 1));
  auto* b = static_cast<uint64_t*>(arena.Allocate(8, 8));
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  *b = 42;  // must be writable
  EXPECT_EQ(*b, 42u);
  EXPECT_GE(arena.bytes_used(), 11u);
}

TEST(Arena, GrowsAcrossChunksAndResetsToOne) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(32, 8);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  arena.Reset();
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_used(), 0u);
  // A warmed arena absorbs the same load without growing again... provided
  // the retained (largest) chunk covers it.
  const size_t retained = arena.chunk_count();
  arena.Allocate(32, 8);
  EXPECT_EQ(arena.chunk_count(), retained);
}

TEST(Arena, VectorGrowthReusesTrailingAllocation) {
  Arena arena(1024);
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 200; ++i) {
    v.push_back(i);
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(v[i], i);
  }
  // Growth happened entirely inside the arena: no per-element heap churn and
  // the deallocate-trailing fast path keeps usage near the final capacity.
  EXPECT_GE(arena.bytes_used(), 200 * sizeof(int));
}

TEST(Arena, NewConstructsInPlace) {
  struct Pod {
    int x;
    double y;
  };
  Arena arena;
  Pod* p = arena.New<Pod>(Pod{7, 2.5});
  EXPECT_EQ(p->x, 7);
  EXPECT_EQ(p->y, 2.5);
}

}  // namespace
}  // namespace enoki

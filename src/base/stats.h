// Statistics accumulators used by workloads and benchmark harnesses.
//
// Two tools are provided:
//  - StatAccumulator: streaming count/mean/min/max/variance (Welford).
//  - LatencyRecorder: percentile estimation over latency samples. It keeps a
//    log-bucketed histogram (~2% relative resolution) so multi-million-sample
//    benchmark runs stay O(1) per record and O(buckets) per query.

#ifndef SRC_BASE_STATS_H_
#define SRC_BASE_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"

namespace enoki {

class StatAccumulator {
 public:
  void Record(double x) {
    ++count_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double variance() const { return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1); }
  double stddev() const { return std::sqrt(variance()); }
  double sum() const { return mean_ * static_cast<double>(count_); }

  void Reset() { *this = StatAccumulator(); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile tracker for durations in nanoseconds.
//
// Buckets are arranged as 64 power-of-two decades with `kSubBuckets` linear
// sub-buckets each, giving a worst-case relative error of 1/kSubBuckets.
class LatencyRecorder {
 public:
  static constexpr int kSubBuckets = 64;

  void Record(Duration ns) { Record(ns, 1); }

  // Records `n` samples of the same value: identical to n calls of
  // Record(ns), including the sum's wrap-around. n == 0 is a no-op.
  void Record(Duration ns, uint64_t n) {
    if (n == 0) {
      return;
    }
    count_ += n;
    min_ = std::min(min_, ns);
    max_ = std::max(max_, ns);
    sum_ += ns * n;
    buckets_[BucketIndex(ns)] += n;
  }

  uint64_t count() const { return count_; }
  Duration min() const { return count_ == 0 ? 0 : min_; }
  Duration max() const { return count_ == 0 ? 0 : max_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Returns the latency at the given percentile (e.g. 50.0, 99.0). The value
  // returned is the upper edge of the containing bucket.
  Duration Percentile(double pct) const {
    if (count_ == 0) {
      return 0;
    }
    ENOKI_CHECK(pct >= 0.0 && pct <= 100.0);
    const uint64_t rank =
        static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(count_)));
    const uint64_t target = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        return BucketUpperEdge(i);
      }
    }
    return max_;
  }

  void Reset() { *this = LatencyRecorder(); }

  // Merges another recorder's samples into this one.
  void Merge(const LatencyRecorder& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

 private:
  // Values >= 64 land in decade `msb` (the index of their highest set bit,
  // msb >= 6), which covers [2^msb, 2^(msb+1)) with kSubBuckets linear
  // sub-buckets of width 2^(msb-6) each: worst-case relative error 1/64.
  static size_t BucketIndex(Duration ns) {
    if (ns < kSubBuckets) {
      return static_cast<size_t>(ns);
    }
    const int msb = 63 - __builtin_clzll(ns);
    const uint64_t base = 1ull << msb;
    const uint64_t sub = (ns - base) >> (msb - 6);
    return static_cast<size_t>(kSubBuckets + (msb - 6) * kSubBuckets + sub);
  }

  static Duration BucketUpperEdge(size_t index) {
    if (index < kSubBuckets) {
      return static_cast<Duration>(index);
    }
    const size_t rel = index - kSubBuckets;
    const int msb = static_cast<int>(rel / kSubBuckets) + 6;
    const uint64_t sub = rel % kSubBuckets;
    const uint64_t base = 1ull << msb;
    return base + ((sub + 1) << (msb - 6));
  }

  // 64 linear + 58 decades * 64 sub-buckets covers the full uint64 range.
  std::array<uint64_t, kSubBuckets + 58 * kSubBuckets> buckets_ = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  Duration min_ = kTimeMax;
  Duration max_ = 0;
};

// Geometric mean over a set of ratios; used for the Table 5 summary line.
inline double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    ENOKI_CHECK(v > 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace enoki

#endif  // SRC_BASE_STATS_H_

// CPU affinity mask supporting up to 256 CPUs (the large sharded-simulation
// machines model 128- and 256-CPU multi-socket boxes; the paper's own
// evaluation tops out at 80). Mirrors the role of cpumask_t in the kernel:
// task affinity, scheduler placement filters, and per-policy CPU sets.

#ifndef SRC_BASE_CPUMASK_H_
#define SRC_BASE_CPUMASK_H_

#include <bit>
#include <cstdint>

#include "src/base/check.h"

namespace enoki {

class CpuMask {
 public:
  static constexpr int kMaxCpus = 256;
  static constexpr int kWords = kMaxCpus / 64;

  constexpr CpuMask() = default;

  static CpuMask All(int ncpus) {
    CpuMask m;
    for (int i = 0; i < ncpus; ++i) {
      m.Set(i);
    }
    return m;
  }

  static CpuMask Single(int cpu) {
    CpuMask m;
    m.Set(cpu);
    return m;
  }

  void Set(int cpu) {
    ENOKI_CHECK(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] |= 1ull << (cpu % 64);
  }

  void Clear(int cpu) {
    ENOKI_CHECK(cpu >= 0 && cpu < kMaxCpus);
    words_[cpu / 64] &= ~(1ull << (cpu % 64));
  }

  bool Test(int cpu) const {
    if (cpu < 0 || cpu >= kMaxCpus) {
      return false;
    }
    return (words_[cpu / 64] >> (cpu % 64)) & 1;
  }

  int Count() const {
    int n = 0;
    for (uint64_t w : words_) {
      n += __builtin_popcountll(w);
    }
    return n;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  // First set CPU, or -1 when empty.
  int First() const { return NextAfter(-1); }

  // Next set CPU strictly after `cpu`, or -1. Word-wise: masks off the bits
  // at or below `cpu` in its word, then takes the lowest set bit of the first
  // non-zero word, so a full 256-CPU walk costs one ctz per set bit.
  int NextAfter(int cpu) const {
    const int from = cpu < 0 ? 0 : cpu + 1;
    if (from >= kMaxCpus) {
      return -1;
    }
    int w = from / 64;
    uint64_t bits = words_[w] & (~0ull << (from % 64));
    while (bits == 0) {
      if (++w == kWords) {
        return -1;
      }
      bits = words_[w];
    }
    return w * 64 + std::countr_zero(bits);
  }

  CpuMask Intersect(const CpuMask& other) const {
    CpuMask m;
    for (int i = 0; i < kWords; ++i) {
      m.words_[i] = words_[i] & other.words_[i];
    }
    return m;
  }

  bool operator==(const CpuMask& other) const {
    for (int i = 0; i < kWords; ++i) {
      if (words_[i] != other.words_[i]) {
        return false;
      }
    }
    return true;
  }

  uint64_t word(int i) const { return words_[i]; }

  // Rebuilds a mask from its first two words. Callers that persist masks in
  // two-word records (the record/replay trace format) round-trip the first
  // 128 CPUs only; the simulated record/replay machines stay within that.
  static CpuMask FromWords(uint64_t w0, uint64_t w1) {
    CpuMask m;
    m.words_[0] = w0;
    m.words_[1] = w1;
    return m;
  }

 private:
  uint64_t words_[kWords] = {};
};

}  // namespace enoki

#endif  // SRC_BASE_CPUMASK_H_

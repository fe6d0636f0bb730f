// Global allocation counter. Replacing operator new affects the whole
// binary, so every heap allocation a workload makes is counted.

#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench/workloads.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

uint64_t perfbench::AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

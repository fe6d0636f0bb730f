// Trace inspection: a small utility over the record-file format.
//
// Usage: example_trace_inspect [trace-file]
//
// With no argument, it records a short WFQ run itself and then inspects it.
// Prints the call mix, per-kernel-thread activity, lock statistics, and the
// head of the trace — the kind of first look a developer takes before
// replaying a misbehaving scheduler. On the demo trace it exits 1 unless the
// trace holds a pick and a lock acquisition and the per-thread counts add
// up to the entry count.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/enoki/call_codec.h"
#include "src/enoki/record.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/pipe.h"

using namespace enoki;

namespace {

std::string RecordDefaultTrace(const char* path) {
  Recorder recorder(1 << 20);
  SetLockHooks(&recorder);
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(std::make_unique<WfqSched>(0));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    core.RegisterClass(&cfs);
    PipeBenchConfig cfg;
    cfg.messages = 500;
    RunPipeBench(core, policy, cfg);
  }
  SetLockHooks(nullptr);
  recorder.Drain();
  recorder.SaveToFile(path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  const bool demo = argc <= 1;
  if (!demo) {
    path = argv[1];
  } else {
    path = RecordDefaultTrace("/tmp/enoki_inspect_demo.log");
    std::printf("(no trace given: recorded a demo WFQ pipe run to %s)\n\n", path.c_str());
  }

  std::vector<RecordEntry> trace;
  if (!Recorder::LoadFromFile(path, &trace) || trace.empty()) {
    std::fprintf(stderr, "could not load trace from %s\n", path.c_str());
    return 1;
  }

  std::printf("trace: %s\n", path.c_str());
  std::printf("entries: %zu, spanning %.3f ms of kernel time\n\n", trace.size(),
              ToMilliseconds(trace.back().time - trace.front().time));

  // Call mix.
  std::map<std::string, uint64_t> by_type;
  std::map<int32_t, uint64_t> by_kthread;
  std::map<uint64_t, uint64_t> lock_acquires;
  uint64_t picks = 0;
  uint64_t idle_picks = 0;
  for (const RecordEntry& e : trace) {
    by_type[RecordTypeName(e.type)]++;
    by_kthread[e.kthread]++;
    if (e.type == RecordType::kLockAcquire) {
      lock_acquires[e.arg[0]]++;
    }
    if (e.type == RecordType::kPickNextTask) {
      ++picks;
      if (e.resp0 == 0) {
        ++idle_picks;
      }
    }
  }

  std::printf("call mix:\n");
  std::vector<std::pair<uint64_t, std::string>> sorted;
  for (const auto& [name, count] : by_type) {
    sorted.emplace_back(count, name);
  }
  std::sort(sorted.rbegin(), sorted.rend());
  for (const auto& [count, name] : sorted) {
    std::printf("  %-18s %8llu\n", name.c_str(), static_cast<unsigned long long>(count));
  }

  if (picks > 0) {
    std::printf("\npick_next_task: %llu calls, %.1f%% returned idle\n",
                static_cast<unsigned long long>(picks),
                100.0 * static_cast<double>(idle_picks) / static_cast<double>(picks));
  }

  std::printf("\nper kernel thread (CPU):\n");
  for (const auto& [kthread, count] : by_kthread) {
    std::printf("  kthread %-3d %8llu entries\n", kthread,
                static_cast<unsigned long long>(count));
  }

  std::printf("\nlocks: %zu distinct, acquisitions per lock:\n", lock_acquires.size());
  for (const auto& [lock, count] : lock_acquires) {
    std::printf("  lock %-6llu %8llu acquisitions\n", static_cast<unsigned long long>(lock),
                static_cast<unsigned long long>(count));
  }

  std::printf("\nfirst 10 entries:\n");
  for (size_t i = 0; i < std::min<size_t>(10, trace.size()); ++i) {
    const RecordEntry& e = trace[i];
    std::printf("  #%-6llu t=%9.3fus k%-2d %-16s pid=%-4llu cpu=%-2d resp=%llu\n",
                static_cast<unsigned long long>(e.seq), ToMicroseconds(e.time), e.kthread,
                RecordTypeName(e.type), static_cast<unsigned long long>(e.pid), e.cpu,
                static_cast<unsigned long long>(e.resp0));
  }
  std::printf("\nTo replay this trace, see examples/record_replay.cpp.\n");
  if (demo) {
    uint64_t per_kthread = 0;
    for (const auto& [kthread, count] : by_kthread) {
      per_kthread += count;
    }
    if (picks == 0 || lock_acquires.empty() || per_kthread != trace.size()) {
      std::fprintf(stderr,
                   "FAIL: demo trace has %llu picks, %zu locks, %llu of %zu entries by kthread\n",
                   static_cast<unsigned long long>(picks), lock_acquires.size(),
                   static_cast<unsigned long long>(per_kthread), trace.size());
      return 1;
    }
  }
  return 0;
}

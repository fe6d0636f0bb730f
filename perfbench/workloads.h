// The benchmark's three workloads. Each call runs one repetition: it sets
// the stack up once, runs the fixed-length simulation once, and returns the
// simulated outputs (the correctness oracle), the host-time measurements and
// the layer metrics.
//
// Untraced repetitions report the layer counters the library already keeps
// (event-queue, shard, runtime and allocation counters). Traced repetitions
// run the same simulation with every scheduling class and module wrapped
// (timed.h) and report the wrapper-derived metrics instead.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace perfbench {

enum class Workload { kPipeWfq, kDispersiveShinjuku, kMt256Cfs };

bool ParseWorkload(const std::string& name, Workload* out);

// Simulation length. The benchmark runs Full(); tests run Short().
struct Scale {
  uint64_t pipe_messages = 0;
  enoki::Duration dispersive_runtime = 0;
  enoki::Duration mt_runtime = 0;

  static Scale Full();
  static Scale Short();
};

struct RepResult {
  // Simulated outputs; identical for identical (workload, scale, seed).
  std::map<std::string, uint64_t> outputs;
  // Reasons this repetition counts as failed (watchdog trip, failed
  // upgrade, unfinished run). Empty on success.
  std::vector<std::string> failures;
  double setup_s = 0;           // host seconds to build stack, modules and tasks
  double run_s = 0;             // host seconds from Start() to the last RunUntil
  uint64_t events = 0;
  int host_threads = 1;         // threads the simulation ran on
  // Per-layer metrics of this repetition, by benchmark metric name.
  std::map<std::string, double> layer;
  // Traced only: log2 histogram of span ns per "<layer>.<callback>"; bucket
  // b counts spans of [2^(b-1), 2^b) ns.
  std::map<std::string, std::vector<uint64_t>> histograms;
};

RepResult RunRep(Workload w, const Scale& scale, uint64_t seed, bool traced);

// Heap allocations made by the process so far (operator new calls).
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

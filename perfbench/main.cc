// One repetition of one benchmark workload, in a process of its own.
//
//   perfbench_rep --workload <name> --seed <n> --trace <0|1>
//
// Prints a single JSON line: the simulated outputs, the failure reasons,
// the host-time measurements, the process's peak RSS and the per-layer
// metrics, and the host's speed on a fixed reference kernel measured just
// before and after. run.py runs this binary repeatedly and aggregates the
// lines.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"

namespace {

volatile uint64_t g_reference_sink = 0;

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Host speed right now, in operations per second of a fixed reference
// kernel shaped like the simulator's hot path: a binary heap of timed
// events, a random stream and table updates. It shares no code with the
// library, so a change to the library cannot move it; run.py divides the
// host's momentary speed out of the time metrics with it.
double ReferenceOpsPerSecond() {
  constexpr uint64_t kOps = 2'000'000;
  using Ev = std::pair<uint64_t, uint64_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
  std::vector<uint64_t> table(1 << 14);
  for (uint64_t i = 0; i < 256; ++i) {
    heap.push({i, i});
  }
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[(id * 2654435761u) & (table.size() - 1)] += x;
    acc += table[x & (table.size() - 1)];
    heap.push({t + 1 + (x & 1023), id});
  }
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  g_reference_sink = acc;  // keeps the loop from being optimised away
  return static_cast<double>(kOps) / s;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_rep --workload pipe_wfq|dispersive_shinjuku|mt256_cfs "
               "--seed N --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  bool traced = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      workload_name = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      seed = std::strtoull(val, &end, 10);
      have_seed = *val != '\0' && *end == '\0';
    } else if (std::strcmp(key, "--trace") == 0) {
      traced = std::strcmp(val, "1") == 0;
    } else {
      return Usage();
    }
  }
  perfbench::Workload w;
  if (argc % 2 == 0 || !have_seed || !perfbench::ParseWorkload(workload_name, &w)) {
    return Usage();
  }

  const double ref_before = ReferenceOpsPerSecond();
  const perfbench::RepResult r = perfbench::RunRep(w, perfbench::Scale::Full(), seed, traced);
  const double ref_rate = (ref_before + ReferenceOpsPerSecond()) / 2;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::string out = "{\"outputs\": {";
  const char* sep = "";
  for (const auto& [name, value] : r.outputs) {
    out += sep + Quoted(name) + ": " + std::to_string(value);
    sep = ", ";
  }
  out += "}, \"failures\": [";
  sep = "";
  for (const std::string& f : r.failures) {
    out += sep + Quoted(f);
    sep = ", ";
  }
  out += "], \"setup_s\": " + Num(r.setup_s) + ", \"run_s\": " + Num(r.run_s) +
         ", \"events\": " + std::to_string(r.events) +
         ", \"host_threads\": " + std::to_string(r.host_threads) +
         ", \"ref_ops_per_s\": " + Num(ref_rate) +
         ", \"peak_rss_kb\": " + std::to_string(usage.ru_maxrss) + ", \"layer\": {";
  sep = "";
  for (const auto& [name, value] : r.layer) {
    out += sep + Quoted(name) + ": " + Num(value);
    sep = ", ";
  }
  out += "}, \"histograms\": {";
  sep = "";
  for (const auto& [name, hist] : r.histograms) {
    out += sep + Quoted(name) + ": [";
    const char* comma = "";
    for (const uint64_t n : hist) {
      out += comma + std::to_string(n);
      comma = ", ";
    }
    out += "]";
    sep = ", ";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

// Reproduces Table 2: lines of code per component. For the paper's Rust/C
// split we report the corresponding components of this C++ reproduction and
// print the paper's numbers alongside, as the markdown table EXPERIMENTS.md
// shows. Paths are relative to the repository root; run from anywhere else,
// the bench names the first file it cannot open and exits 1.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace enoki {
namespace {

int CountLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_table2_loc: cannot open %s (run from the repository root)\n",
                 path.c_str());
    std::exit(1);
  }
  int lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      ++lines;
    }
  }
  std::fclose(f);
  return lines;
}

int CountAll(const std::vector<std::string>& files) {
  int total = 0;
  for (const auto& f : files) {
    total += CountLines("src/" + f);
  }
  return total;
}

void Run() {
  std::printf("Table 2: lines of code per component (this reproduction vs paper)\n\n");
  struct Row {
    const char* component;
    const char* paper;
    int loc;
  };
  const Row rows[] = {
      {"Enoki-C / runtime (call path, tokens, hints)", "2411 (C)",
       CountAll({"enoki/runtime.h", "enoki/runtime.cc"})},
      {"Live upgrade and recovery ladder (ladder, watchdog types, supervisor)",
       "upgrade in Enoki-C, ladder n/a",
       CountAll({"enoki/recovery_ladder.h", "enoki/recovery_ladder.cc", "fault/watchdog.h",
                 "fault/watchdog.cc", "fault/supervisor.h", "fault/supervisor.cc"})},
      {"Scheduler libEnoki (API, tokens, queues)", "962 (Rust)",
       CountAll({"enoki/api.h", "enoki/lock.h", "enoki/lock.cc", "enoki/token_queue.h"})},
      {"Other libEnoki / kernel substrate", "5870 (Rust)",
       CountAll({"simkernel/sched_core.h", "simkernel/sched_core.cc", "simkernel/task.h",
                 "simkernel/sched_class.h", "simkernel/event_loop.h", "simkernel/costs.h",
                 "simkernel/bodies.h"})},
      {"Userspace record (with the call codec)", "95",
       CountAll({"enoki/record.h", "enoki/record.cc", "enoki/call_codec.h"})},
      {"Replay", "646", CountAll({"enoki/replay.h", "enoki/replay.cc"})},
      // Scheduler module sizes (paper section 4.2).
      {"WFQ scheduler", "646 vs 6247 for CFS", CountAll({"sched/wfq.h", "sched/wfq.cc"})},
      {"Shinjuku", "285", CountAll({"sched/shinjuku.h", "sched/shinjuku.cc"})},
      {"Locality", "203", CountAll({"sched/locality.h", "sched/locality.cc"})},
      {"Arachne arbiter", "579", CountAll({"sched/arbiter.h"})},
      {"Nest-style warm core (extension)", "n/a", CountAll({"sched/nest.h", "sched/nest.cc"})},
      {"Native CFS baseline", "6247 (Linux CFS)", CountAll({"sched/cfs.h", "sched/cfs.cc"})},
  };
  // The rows are the markdown lines of EXPERIMENTS.md's Table 2; the ctest
  // bench_table2_loc_matches_experiments fails when one is missing there.
  std::printf("| Component | Paper | Ours |\n|---|---|---|\n");
  for (const Row& r : rows) {
    std::printf("| %s | %s | %d |\n", r.component, r.paper, r.loc);
  }
}

}  // namespace
}  // namespace enoki

int main() {
  enoki::Run();
  return 0;
}

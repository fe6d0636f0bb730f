// Reproduces Table 2: lines of code per component. For the paper's Rust/C
// split we report the corresponding components of this C++ reproduction and
// print the paper's numbers alongside. Paths are relative to the repository
// root; run from anywhere else, the bench names the first file it cannot
// open and exits 1.

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
    int loc;
    const char* paper;
  };
  const Row rows[] = {
      {"Enoki-C analog (runtime + upgrade + hints)",
       CountAll({"enoki/runtime.h", "enoki/runtime.cc"}), "Enoki-C: 2411 (C)"},
      {"Recovery ladder (ladder + watchdog + supervisor)",
       CountAll({"enoki/recovery_ladder.h", "enoki/recovery_ladder.cc", "fault/watchdog.h",
                 "fault/watchdog.cc", "fault/supervisor.h", "fault/supervisor.cc"}),
       "n/a (extension)"},
      {"Scheduler libEnoki (API/trait, tokens, queues)",
       CountAll({"enoki/api.h", "enoki/lock.h", "enoki/lock.cc", "enoki/token_queue.h"}),
       "Scheduler libEnoki: 962 (Rust, 94 unsafe)"},
      {"Other libEnoki analog (simulated kernel substrate)",
       CountAll({"simkernel/sched_core.h", "simkernel/sched_core.cc", "simkernel/task.h",
                 "simkernel/sched_class.h", "simkernel/event_loop.h", "simkernel/costs.h",
                 "simkernel/bodies.h"}),
       "Other libEnoki: 5870 (Rust, 2858 unsafe)"},
      {"Userspace record",
       CountAll({"enoki/record.h", "enoki/record.cc", "enoki/call_codec.h"}),
       "Userspace record: 95 (Rust)"},
      {"Replay", CountAll({"enoki/replay.h", "enoki/replay.cc"}), "Replay: 646 (Rust)"},
  };
  std::printf("%-50s %8s   %s\n", "Component", "LOC", "(paper)");
  for (const Row& r : rows) {
    std::printf("%-50s %8d   %s\n", r.component, r.loc, r.paper);
  }

  std::printf("\nScheduler module sizes (paper section 4.2):\n");
  const Row scheds[] = {
      {"Enoki WFQ", CountAll({"sched/wfq.h", "sched/wfq.cc"}), "646 (vs 6247 for CFS)"},
      {"Enoki Shinjuku", CountAll({"sched/shinjuku.h", "sched/shinjuku.cc"}), "285"},
      {"Locality aware", CountAll({"sched/locality.h", "sched/locality.cc"}), "203"},
      {"Arachne core arbiter", CountAll({"sched/arbiter.h"}), "579"},
      {"Nest-style warm-core (extension)", CountAll({"sched/nest.h", "sched/nest.cc"}), "n/a (extension)"},
      {"Native CFS baseline", CountAll({"sched/cfs.h", "sched/cfs.cc"}), "6247 (Linux CFS)"},
  };
  for (const Row& r : scheds) {
    std::printf("%-50s %8d   paper: %s\n", r.component, r.loc, r.paper);
  }
}

}  // namespace
}  // namespace enoki

int main() {
  enoki::Run();
  return 0;
}

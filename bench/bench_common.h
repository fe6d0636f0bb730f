// Shared experiment-stack builders for the paper-reproduction benchmarks.
//
// Each bench binary builds a "stack": a SchedCore with the scheduling
// classes of one experimental configuration registered in priority order
// (agents > Enoki/ghOSt policy > CFS), mirroring how the paper's testbed
// composes schedulers.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/ghost.h"
#include "src/simkernel/sched_core.h"

namespace enoki {

// ---- Command-line helpers shared by the bench binaries ----

// Returns the value of a `--name=value` argument, or nullptr.
inline const char* BenchArgValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

// Machine-readable result sink, shared by all benchmarks: pass `--json=<path>`
// to any bench binary and it writes one row per reported metric in addition to
// its normal stdout tables. Rows are flat so trajectory tooling (and the
// bench_simperf baseline check) never has to scrape stdout:
//   {"bench": "...", "config": "...", "metric": "...", "value": N, "seed": N}
class BenchJson {
 public:
  // Parses `--json=<path>` from argv; disabled when the flag is absent.
  BenchJson(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    if (const char* path = BenchArgValue(argc, argv, "--json")) {
      path_ = path;
    }
  }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  ~BenchJson() { Write(); }

  bool enabled() const { return !path_.empty(); }

  void Row(const std::string& config, const std::string& metric, double value,
           uint64_t seed = 0) {
    if (enabled()) {
      rows_.push_back(RowData{config, metric, value, seed});
    }
  }

  // Flushes rows to the --json path (no-op when disabled). Called by the
  // destructor; benches that need the file before exit may call it directly.
  void Write() {
    if (!enabled() || written_) {
      return;
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const RowData& r = rows_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"config\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %.6f, \"seed\": %llu}%s\n",
                   Escaped(bench_).c_str(), Escaped(r.config).c_str(),
                   Escaped(r.metric).c_str(), r.value,
                   static_cast<unsigned long long>(r.seed), i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    written_ = true;
  }

 private:
  struct RowData {
    std::string config;
    std::string metric;
    double value;
    uint64_t seed;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::string path_;
  std::vector<RowData> rows_;
  bool written_ = false;
};

struct Stack {
  std::unique_ptr<SchedCore> core;
  std::unique_ptr<CfsClass> cfs;
  std::unique_ptr<EnokiRuntime> runtime;   // set for Enoki stacks
  std::unique_ptr<AgentClass> agents;      // set for ghOSt stacks
  std::unique_ptr<GhostClass> ghost;       // set for ghOSt stacks
  int policy = 0;      // the experiment's primary scheduling policy
  int cfs_policy = 0;  // the CFS policy id on this stack
};

// CFS-only stack.
inline Stack MakeCfsStack(MachineSpec spec = MachineSpec::OneSocket8(),
                          SimCosts costs = SimCosts{}) {
  Stack s;
  s.core = std::make_unique<SchedCore>(spec, costs);
  s.cfs = std::make_unique<CfsClass>();
  s.policy = s.core->RegisterClass(s.cfs.get());
  s.cfs_policy = s.policy;
  return s;
}

// Enoki module above CFS.
inline Stack MakeEnokiStack(std::unique_ptr<EnokiSched> module,
                            MachineSpec spec = MachineSpec::OneSocket8(),
                            SimCosts costs = SimCosts{}) {
  Stack s;
  s.core = std::make_unique<SchedCore>(spec, costs);
  s.runtime = std::make_unique<EnokiRuntime>(std::move(module));
  s.cfs = std::make_unique<CfsClass>();
  s.policy = s.core->RegisterClass(s.runtime.get());
  s.cfs_policy = s.core->RegisterClass(s.cfs.get());
  return s;
}

// ghOSt: agents > ghost > CFS. `agent_cpu` is the dedicated core for
// SOL/Shinjuku agents (ignored for per-CPU FIFO).
inline Stack MakeGhostStack(GhostClass::Mode mode, CpuMask worker_cpus, int agent_cpu,
                            MachineSpec spec = MachineSpec::OneSocket8(),
                            SimCosts costs = SimCosts{}) {
  Stack s;
  s.core = std::make_unique<SchedCore>(spec, costs);
  s.agents = std::make_unique<AgentClass>();
  s.ghost = std::make_unique<GhostClass>(mode, worker_cpus);
  s.cfs = std::make_unique<CfsClass>();
  const int agent_policy = s.core->RegisterClass(s.agents.get());
  s.policy = s.core->RegisterClass(s.ghost.get());
  s.cfs_policy = s.core->RegisterClass(s.cfs.get());
  s.ghost->SpawnAgents(agent_policy, agent_cpu);
  return s;
}

}  // namespace enoki

#endif  // BENCH_BENCH_COMMON_H_

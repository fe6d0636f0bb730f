// Record and replay: debug a kernel scheduler at userspace
// (paper section 3.4 / 5.8).
//
// We run the WFQ scheduler with recording active: every call into the
// scheduler, its response, and every shim-lock acquisition is appended to a
// ring buffer drained by a userspace record task and saved to a file. We
// then reload that file and replay it against a *fresh instance of the same
// scheduler code* on real threads, enforcing the recorded lock order, and
// validate every response. Finally, we replay against a deliberately
// different scheduler to show that replay validation catches divergence.

#include <cstdio>
#include <memory>

#include "src/enoki/replay.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/fifo.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"

using namespace enoki;

int main() {
  const char* trace_path = "/tmp/enoki_example_trace.log";

  // ---- Record ----
  Recorder recorder(1 << 20);
  SetLockHooks(&recorder);  // must be installed before the module's locks exist
  {
    SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
    EnokiRuntime runtime(std::make_unique<WfqSched>(0));
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    const int cfs_policy = core.RegisterClass(&cfs);

    // The userspace record task drains the shared ring buffer to the log;
    // scheduler context cannot write files (section 3.4).
    core.CreateTaskOn("record-task", MakeFnBody([&recorder](SimContext&) -> Action {
                        recorder.Drain();
                        return Action::Sleep(Milliseconds(1));
                      }),
                      cfs_policy, 0, CpuMask::Single(7));

    // Workload: mixed compute/sleep tasks with different priorities, packed
    // onto two cores so run-queue *order* matters (WFQ picks by weighted
    // vruntime; a FIFO scheduler would pick differently).
    for (int i = 0; i < 6; ++i) {
      auto left = std::make_shared<int>(80);
      core.CreateTaskOn("app-" + std::to_string(i),
                        MakeFnBody([left](SimContext&) -> Action {
                          if (*left == 0) {
                            return Action::Exit();
                          }
                          --*left;
                          return (*left % 3 == 0) ? Action::Sleep(Microseconds(200))
                                                  : Action::Compute(Microseconds(350));
                        }),
                        policy, (i % 3) * 5 - 5, CpuMask::Single(i % 2));
    }
    core.Start();
    core.RunUntilAllExit(core.now() + Seconds(10));
  }
  SetLockHooks(nullptr);
  recorder.Drain();
  recorder.SaveToFile(trace_path);
  std::printf("recorded %zu entries (%llu dropped) -> %s\n", recorder.log().size(),
              static_cast<unsigned long long>(recorder.dropped()), trace_path);

  // ---- Replay against the same scheduler code ----
  std::vector<RecordEntry> trace;
  if (!Recorder::LoadFromFile(trace_path, &trace)) {
    std::printf("failed to load trace\n");
    return 1;
  }
  // Exits 0 only when the same code replays cleanly and the wrong code
  // diverges.
  bool ok = true;
  {
    ReplayEngine engine(trace, 8);
    engine.InstallHooks();  // before constructing the module: lock creation order matters
    auto module = std::make_unique<WfqSched>(0);
    module->Attach(engine.env());
    const ReplayResult result = engine.Run(module.get());
    std::printf("replay (WFQ, same code): %llu calls, %llu mismatches, %llu lock waits "
                "[%s]\n",
                static_cast<unsigned long long>(result.calls_replayed),
                static_cast<unsigned long long>(result.response_mismatches),
                static_cast<unsigned long long>(result.lock_blocks),
                result.response_mismatches == 0 ? "VALIDATED" : "DIVERGED");
    ok = ok && result.response_mismatches == 0;
  }

  // ---- Replay against a different scheduler: divergence is detected ----
  {
    ReplayEngine engine(trace, 8);
    engine.InstallHooks();
    auto module = std::make_unique<FifoSched>(0);
    module->Attach(engine.env());
    const ReplayResult result = engine.Run(module.get());
    std::printf("replay (FIFO, wrong code): %llu calls, %llu mismatches "
                "[divergence %s]\n",
                static_cast<unsigned long long>(result.calls_replayed),
                static_cast<unsigned long long>(result.response_mismatches),
                result.response_mismatches > 0 ? "detected, as expected" : "NOT detected!");
    ok = ok && result.response_mismatches > 0;
  }
  return ok ? 0 : 1;
}

// Custom scheduler hints: co-locating communicating threads
// (paper section 3.3 / 5.5).
//
// An application with two groups of threads that message each other heavily
// sends locality hints (thread id + group id) through the user-to-kernel
// hint queue. The locality-aware scheduler co-locates each group on one
// core, converting expensive cross-core wakeups of deep-idle cores into
// cheap same-core handoffs. We run the same workload with and without hints
// and print both tails. Exits 1 unless both runs recorded wakeups and the
// hints cut the p99.

#include <cstdio>
#include <memory>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/locality.h"
#include "src/workloads/schbench.h"

using namespace enoki;

namespace {

SchbenchResult RunOnce(bool use_hints) {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<LocalitySched>(0, use_hints));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  core.RegisterClass(&cfs);

  SchbenchConfig cfg;
  cfg.message_threads = 2;
  cfg.workers_per_thread = 2;
  cfg.worker_work_ns = Microseconds(3);
  cfg.warmup = Milliseconds(200);
  cfg.runtime = Seconds(3);
  if (use_hints) {
    // The harness sends one hint per thread: {pid, group}. Unlike cpusets,
    // the hint names only the grouping; the scheduler picks (and may
    // override) the core.
    cfg.hint_runtime = &runtime;
    cfg.hint_queue = runtime.CreateHintQueue(1024);
  }
  return RunSchbench(core, policy, cfg);
}

}  // namespace

int main() {
  const SchbenchResult random_placement = RunOnce(/*use_hints=*/false);
  const SchbenchResult with_hints = RunOnce(/*use_hints=*/true);

  std::printf("message/worker wakeup latency, 2 groups x (1 msg + 2 workers):\n\n");
  std::printf("%-22s %10s %10s\n", "placement", "p50 (us)", "p99 (us)");
  std::printf("%-22s %10.0f %10.0f\n", "random (no hints)",
              ToMicroseconds(random_placement.p50), ToMicroseconds(random_placement.p99));
  std::printf("%-22s %10.0f %10.0f\n", "co-located (hints)", ToMicroseconds(with_hints.p50),
              ToMicroseconds(with_hints.p99));
  const double speedup = static_cast<double>(random_placement.p99) /
                         static_cast<double>(std::max<Duration>(with_hints.p99, 1));
  std::printf("\nhints cut the p99 wakeup latency by %.1fx\n", speedup);
  if (random_placement.wakeups == 0 || with_hints.wakeups == 0) {
    std::fprintf(stderr, "FAIL: a run recorded no wakeup latencies\n");
    return 1;
  }
  if (with_hints.p99 >= random_placement.p99) {
    std::fprintf(stderr, "FAIL: hints did not beat random placement at the p99\n");
    return 1;
  }
  return 0;
}

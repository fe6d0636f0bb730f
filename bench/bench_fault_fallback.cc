// Fault-containment cost: what does a watchdog trip cost the machine,
// compared with the planned live upgrade it is built on top of?
//
// The fallback path reuses the upgrade quiesce machinery (swap + per-CPU
// drain) and then re-policies every module task onto CFS, so its pause is
// the upgrade pause plus a per-task re-policy term. We trip the watchdog
// manually (AbortModule) at a fixed instant while schbench runs, read the
// pause out of the CrashReport, and put it next to a live upgrade measured
// on an identical stack. Shape check: both grow ~linearly with core count;
// fallback adds a component linear in the number of rescued tasks.
//
// The third column measures the middle rung of the recovery ladder: a
// supervised restart (backoff + fresh instance + checkpoint restore +
// wakeup re-injection), reported as trip-to-reinstall latency. It sits
// between the upgrade pause and a full fallback — the cost of keeping the
// custom policy instead of surrendering to CFS.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/fault/supervisor.h"
#include "src/sched/wfq.h"
#include "src/workloads/schbench.h"

namespace enoki {
namespace {

struct Result {
  double upgrade_pause_us = 0;
  double restart_latency_us = 0;
  double fallback_pause_us = 0;
  uint64_t tasks_repolicied = 0;
  // Generation-ring telemetry from the supervised restart: how deep into the
  // ring the restore walked (1 = newest generation loaded cleanly) and the
  // simulated work window lost — trip time minus the loaded generation's
  // capture time, bounded by the periodic-checkpoint cadence.
  uint64_t restore_depth = 0;
  double work_lost_us = 0;
};

Result Measure(MachineSpec spec, int workers) {
  SchbenchConfig cfg;
  cfg.workers_per_thread = workers;
  cfg.warmup = Milliseconds(500);
  cfg.runtime = Seconds(2);

  Result r;
  {
    // Live upgrade on a healthy module: the baseline interruption.
    Stack s = MakeEnokiStack(std::make_unique<WfqSched>(0), spec);
    EnokiRuntime* runtime = s.runtime.get();
    s.core->loop().ScheduleAfter(Seconds(1), [runtime, &r] {
      auto report = runtime->Upgrade(std::make_unique<WfqSched>(0));
      if (report.ok) r.upgrade_pause_us = ToMicroseconds(report.pause_ns);
    });
    RunSchbench(*s.core, s.policy, cfg);
  }
  {
    // Supervised restart at the same instant: backoff + rebuild + restore.
    // A periodic cadence keeps fresh generations in the ring, so the work
    // lost at restore is bounded by the interval rather than by how long ago
    // the last upgrade happened.
    Stack s = MakeEnokiStack(std::make_unique<WfqSched>(0), spec);
    EnokiRuntime* runtime = s.runtime.get();
    RecoveryLadder* ladder = &runtime->ladder();
    runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    ladder->EnableSupervisor(SupervisorConfig{}, [] { return std::make_unique<WfqSched>(0); });
    runtime->SetCheckpointInterval(Milliseconds(10));
    s.core->loop().ScheduleAfter(Seconds(1), [ladder] {
      ladder->AbortModule("bench: simulated module failure");
    });
    RunSchbench(*s.core, s.policy, cfg);
    if (!ladder->supervisor()->timeline().empty()) {
      const RestartEvent& ev = ladder->supervisor()->timeline().front();
      r.restart_latency_us = ToMicroseconds(ev.restarted_at - ev.tripped_at);
      r.restore_depth = ladder->last_restore_depth();
      r.work_lost_us = ToMicroseconds(ladder->last_restore_age_ns());
    }
  }
  {
    // Watchdog trip at the same instant: quiesce + rescue every task.
    Stack s = MakeEnokiStack(std::make_unique<WfqSched>(0), spec);
    RecoveryLadder* ladder = &s.runtime->ladder();
    s.runtime->EnableWatchdog(WatchdogConfig{}, s.cfs_policy);
    s.core->loop().ScheduleAfter(Seconds(1), [ladder] {
      ladder->AbortModule("bench: simulated module failure");
    });
    RunSchbench(*s.core, s.policy, cfg);
    if (ladder->crash_report()) {
      r.fallback_pause_us = ToMicroseconds(ladder->crash_report()->fallback_pause_ns);
      r.tasks_repolicied = ladder->crash_report()->tasks_repolicied;
    }
  }
  return r;
}

void Run() {
  std::printf("Fault containment: watchdog-fallback pause vs live-upgrade pause\n"
              "(schbench running; trip/upgrade fired at t=1s)\n\n");
  std::printf("%-40s %10s %10s %10s %8s %6s %10s\n", "Machine / workload", "upgrade", "restart",
              "fallback", "tasks", "depth", "lost");
  struct Case {
    MachineSpec spec;
    int workers;
  };
  const Case cases[] = {
      {MachineSpec::OneSocket8(), 2},
      {MachineSpec::OneSocket8(), 16},
      {MachineSpec::TwoSocket80(), 2},
      {MachineSpec::TwoSocket80(), 40},
  };
  for (const Case& c : cases) {
    const Result r = Measure(c.spec, c.workers);
    std::printf("%-33s 2x%-3d %8.1fus %8.1fus %8.1fus %8llu %6llu %8.1fus\n", c.spec.name.c_str(),
                c.workers, r.upgrade_pause_us, r.restart_latency_us, r.fallback_pause_us,
                static_cast<unsigned long long>(r.tasks_repolicied),
                static_cast<unsigned long long>(r.restore_depth), r.work_lost_us);
  }
  std::printf("\nShape check: all three grow ~linearly with core count; the fallback\n"
              "pause exceeds the upgrade pause by ~%d ns per rescued task, so crashing a\n"
              "module stays in the same cost class as upgrading it. The supervised\n"
              "restart latency is dominated by its deliberate backoff (%d ns on the\n"
              "first attempt) — the recovery work itself costs about one upgrade.\n"
              "depth is how deep the restore walked the generation ring (1 = the\n"
              "newest generation loaded cleanly); lost is the simulated work window\n"
              "discarded at restore, bounded by the 10ms periodic-checkpoint cadence\n"
              "rather than by the time since the last upgrade.\n",
              static_cast<int>(SimCosts{}.fallback_pertask_ns),
              static_cast<int>(SupervisorConfig{}.backoff_initial_ns));
}

}  // namespace
}  // namespace enoki

int main() {
  enoki::Run();
  return 0;
}

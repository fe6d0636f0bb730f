// Fault containment: a buggy scheduler cannot take the (simulated) kernel
// down with it — and with a supervisor, it usually doesn't even lose its job.
//
// We wrap the WFQ scheduler in a FaultInjector firing the full fault menu —
// stale/forged/double-returned Schedulable tokens, dropped enqueues, escaped
// exceptions, 20 ms callback spins, hint floods — and arm the watchdog plus
// the ModuleSupervisor. The pipe ping-pong runs underneath. When a fault
// crosses a watchdog threshold the recovery ladder engages: the supervisor
// rebuilds a fresh module instance after a simulated-time backoff, restores
// its accounting state from the last good checkpoint, and puts it on
// probation. Only when the restart budget for the window is exhausted does
// the runtime fall to the terminal rung — quarantine, tasks re-policied
// onto CFS, and a CrashReport (with the module's last calls, courtesy of
// the record system) explaining what happened. Every task still completes.
//
// The ladder's supply line runs too: a periodic checkpoint cadence fills the
// generation ring between upgrades, and the fault menu includes crashes
// inside CheckpointNow itself — a save that dies mid-cadence escalates like
// any other escaped exception, and the ring still holds the generations that
// sealed before it.

#include <cstdio>
#include <memory>

#include "src/enoki/record.h"
#include "src/enoki/runtime.h"
#include "src/fault/injector.h"
#include "src/fault/supervisor.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/sched_core.h"
#include "src/workloads/pipe.h"

using namespace enoki;

int main() {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});

  // WFQ, sabotaged: every kind of module misbehavior at modest rates,
  // including crashes inside the periodic checkpoint save itself.
  const uint64_t seed = 42;
  FaultPlan plan = FaultPlan::FullMenu(seed);
  plan.checkpoint_crash_rate = 0.25;
  auto injector = std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);

  EnokiRuntime runtime(std::move(injector));
  CfsClass cfs;
  const int enoki_policy = core.RegisterClass(&runtime);
  const int cfs_policy = core.RegisterClass(&cfs);

  // Record mode gives the CrashReport its last-calls tail.
  Recorder recorder(1024);
  runtime.SetRecorder(&recorder);
  runtime.CreateRevQueue(64);

  WatchdogConfig wcfg;
  wcfg.callback_budget_ns = Milliseconds(5);
  wcfg.max_escaped_exceptions = 3;
  wcfg.max_pick_errors = 8;
  wcfg.starvation_bound_ns = Milliseconds(20);
  runtime.EnableWatchdog(wcfg, cfs_policy);

  // Self-healing rung: up to 3 supervised restarts per rolling second, each
  // restored from the newest valid generation in the ring. (The replacement
  // is just as buggy — same seed — so the demo usually climbs the whole
  // ladder.)
  runtime.ladder().EnableSupervisor(SupervisorConfig{}, [plan] {
    return std::make_unique<FaultInjector>(std::make_unique<WfqSched>(0), plan);
  });

  // Periodic cadence: a fresh generation every 500us of simulated time, so a
  // restore never has to reach back further than one cadence interval.
  runtime.SetCheckpointInterval(Microseconds(500));

  std::printf("running pipe ping-pong under a sabotaged WFQ (seed %llu)...\n",
              static_cast<unsigned long long>(seed));

  PipeBenchConfig pcfg;
  pcfg.messages = 2000;
  auto result = RunPipeBench(core, enoki_policy, pcfg);

  // The supervisor may have swapped in fresh injector instances; read the
  // counts from whichever one is currently installed.
  const auto& counts = static_cast<FaultInjector*>(runtime.module())->counts();
  std::printf("\ninjected faults (current instance): %llu total (%llu dropped enqueues,\n"
              "  %llu stale tokens, %llu wrong-cpu tokens, %llu double returns, %llu throws,\n"
              "  %llu busy spins, %llu hint floods); %llu tokens recovered via pnt_err\n",
              static_cast<unsigned long long>(counts.total()),
              static_cast<unsigned long long>(counts.dropped_enqueues),
              static_cast<unsigned long long>(counts.stale_tokens),
              static_cast<unsigned long long>(counts.wrong_cpu_tokens),
              static_cast<unsigned long long>(counts.double_returns),
              static_cast<unsigned long long>(counts.throws),
              static_cast<unsigned long long>(counts.busy_spins),
              static_cast<unsigned long long>(counts.hint_floods),
              static_cast<unsigned long long>(counts.reinjected));

  const RecoveryLadder& ladder = runtime.ladder();
  std::printf("\ncheckpoint cadence: %llu periodic saves, %llu saves crashed mid-cadence,\n"
              "  %llu generations in the ring (newest seq %llu)\n",
              static_cast<unsigned long long>(runtime.periodic_checkpoints()),
              static_cast<unsigned long long>(ladder.checkpoint_save_failures()),
              static_cast<unsigned long long>(ladder.checkpoint_store().size()),
              static_cast<unsigned long long>(
                  ladder.checkpoint_store().newest() ? ladder.checkpoint_store().newest()->sequence
                                                     : 0));

  std::printf("\nrecovery ladder: %llu supervised restarts, %llu checkpoint rejects, "
              "%llu escalations\n%s\n",
              static_cast<unsigned long long>(runtime.module_restarts()),
              static_cast<unsigned long long>(ladder.checkpoint_rejects()),
              static_cast<unsigned long long>(ladder.supervisor()->escalations()),
              ladder.supervisor()->TimelineString().c_str());

  if (!runtime.RestoreTimelineString().empty()) {
    std::printf("\nlast restore walk (depth %llu, %.1fus of work lost):\n%s\n",
                static_cast<unsigned long long>(ladder.last_restore_depth()),
                ToMicroseconds(ladder.last_restore_age_ns()),
                runtime.RestoreTimelineString().c_str());
  }

  if (runtime.quarantined()) {
    std::printf("\nrestart budget exhausted; module quarantined. CrashReport:\n%s\n",
                ladder.crash_report()->ToString().c_str());
  } else {
    std::printf("\nmodule still in service: the ladder absorbed every fault.\n");
  }

  std::printf("\nall tasks completed: %s (simulated time %.2f ms)\n",
              result.completed ? "yes" : "NO — containment failed!",
              ToMicroseconds(core.now()) / 1000.0);
  return result.completed ? 0 : 1;
}

// Wrapper-equivalence test: tracing must not change any simulated result.
//
// Short runs of every workload, traced and untraced, must produce identical
// outputs (fingerprints, event counts, upgrade and checkpoint counts, the
// restore-timeline digest). A second case forces an upgrade rollback so the
// restore path (LoadCheckpoint through the wrapper) runs and the restore
// timeline is non-empty. Exits nonzero on the first mismatch.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "perfbench/timed.h"
#include "perfbench/workloads.h"
#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/workloads/pipe.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

void CheckWorkload(const char* name) {
  Workload w;
  Expect(ParseWorkload(name, &w), std::string("parse ") + name);
  const RepResult plain = RunRep(w, Scale::Short(), 3, /*traced=*/false);
  const RepResult traced = RunRep(w, Scale::Short(), 3, /*traced=*/true);
  Expect(plain.failures.empty() && traced.failures.empty(), std::string(name) + ": run failed");
  Expect(plain.outputs == traced.outputs, std::string(name) + ": traced outputs differ");
  Expect(plain.outputs.at("events") > 0, std::string(name) + ": no events");
  if (w == Workload::kPipeWfq) {
    // The upgrade path must run so VersionFingerprint, the checkpoint and
    // the transfer methods are forwarded through TimedModule.
    Expect(plain.outputs.at("upgrades") > 0, "pipe_wfq: no upgrade ran");
    Expect(traced.layer.at("checkpoint.saves") > 0, "pipe_wfq: no checkpoint saved");
  }
  for (const auto& [key, value] : plain.outputs) {
    std::printf("%s %s %llu\n", name, key.c_str(), static_cast<unsigned long long>(value));
  }
}

// Accepts nothing it is handed, so its upgrade rolls back to a checkpoint.
class RejectsStateSched : public enoki::WfqSched {
 public:
  using WfqSched::WfqSched;
  void ReregisterInit(enoki::TransferState) override { throw std::runtime_error("bad state"); }
};

struct RollbackOutcome {
  uint64_t fingerprint = 0;
  std::string restore_timeline;
  uint64_t module_fingerprint = 0;
  bool rolled_back = false;
  uint64_t loads = 0;
};

RollbackOutcome RunRollback(bool traced) {
  Tracer tracer;
  auto wrap = [&](std::unique_ptr<enoki::EnokiSched> m) -> std::unique_ptr<enoki::EnokiSched> {
    if (!traced) {
      return m;
    }
    return std::make_unique<TimedModule>(std::move(m), tracer.NewTable(Tracer::kModule));
  };
  enoki::SchedCore core(enoki::MachineSpec::OneSocket8(), enoki::SimCosts{});
  std::unique_ptr<enoki::EnokiRuntime> runtime;
  std::unique_ptr<enoki::CfsClass> cfs;
  if (traced) {
    runtime = std::make_unique<TimedClass<enoki::EnokiRuntime>>(
        tracer.NewTable(Tracer::kEnoki), wrap(std::make_unique<enoki::WfqSched>(0)));
    cfs = std::make_unique<TimedClass<enoki::CfsClass>>(tracer.NewTable(Tracer::kCfs));
  } else {
    runtime = std::make_unique<enoki::EnokiRuntime>(std::make_unique<enoki::WfqSched>(0));
    cfs = std::make_unique<enoki::CfsClass>();
  }
  const int policy = core.RegisterClass(runtime.get());
  const int cfs_policy = core.RegisterClass(cfs.get());
  runtime->EnableWatchdog(enoki::WatchdogConfig{}, cfs_policy);
  runtime->SetCheckpointInterval(enoki::Milliseconds(1));
  enoki::UpgradeReport report;
  core.loop().ScheduleAfter(enoki::Milliseconds(5), [&] {
    report = runtime->Upgrade(wrap(std::make_unique<RejectsStateSched>(0)));
  });
  enoki::PipeBenchConfig cfg;
  cfg.messages = 20'000;
  const enoki::PipeBenchResult res = enoki::RunPipeBench(core, policy, cfg);
  Expect(res.completed, "rollback run completed");

  RollbackOutcome out;
  out.fingerprint = core.Fingerprint();
  out.restore_timeline = runtime->RestoreTimelineString();
  out.module_fingerprint = runtime->module()->VersionFingerprint();
  out.rolled_back = report.rolled_back;
  out.loads = tracer.Sum(Tracer::kModule).cb[kLoadCheckpoint].calls;
  return out;
}

void CheckRollback() {
  const RollbackOutcome plain = RunRollback(false);
  const RollbackOutcome traced = RunRollback(true);
  Expect(plain.rolled_back && traced.rolled_back, "upgrade rolled back");
  Expect(!plain.restore_timeline.empty(), "restore timeline recorded");
  Expect(plain.restore_timeline == traced.restore_timeline, "restore timelines differ");
  Expect(plain.fingerprint == traced.fingerprint, "rollback fingerprints differ");
  Expect(plain.module_fingerprint == traced.module_fingerprint,
         "wrapped module reports another VersionFingerprint");
  Expect(traced.loads > 0, "LoadCheckpoint reached through the wrapper");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CheckWorkload("pipe_wfq");
  perfbench::CheckWorkload("dispersive_shinjuku");
  perfbench::CheckWorkload("mt256_cfs");
  perfbench::CheckRollback();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

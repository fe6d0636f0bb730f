// Live upgrade: replace a running scheduler with a new version without
// rebooting, without killing tasks, and with a ~microsecond pause
// (paper section 3.2 / 5.7).
//
// We run the WFQ scheduler under load and upgrade it twice:
//
//  1. A *broken* v2 whose ReregisterInit rejects the transferred state.
//     Upgrades are transactional: the runtime checkpoints the outgoing
//     module before the swap, so the failed init rolls back to the old
//     scheduler — tasks never notice, nothing falls to CFS.
//  2. A working v2 (adds a pick counter). The swap succeeds and the new
//     module runs a probation window under tightened watchdog budgets
//     before the checkpoint of the old version is discarded.

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "src/enoki/runtime.h"
#include "src/fault/watchdog.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"
#include "src/simkernel/sched_core.h"

using namespace enoki;

namespace {

// "Version 2" of the WFQ scheduler: same algorithm, plus a feature the old
// version lacked (counting pick operations as a stand-in for any new logic).
// It initializes itself from WfqSched::Transfer — the upgrade contract is
// the transfer-state type, not the scheduler's internals (section 3.2).
class WfqSchedV2 : public WfqSched {
 public:
  explicit WfqSchedV2(int policy_id) : WfqSched(policy_id) {}

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    ++picks_;
    return WfqSched::PickNextTask(cpu, std::move(curr));
  }

  uint64_t picks() const { return picks_; }

 private:
  uint64_t picks_ = 0;
};

// A v2 with a deployment bug: it cannot ingest the old version's state.
class BrokenWfqSchedV2 : public WfqSchedV2 {
 public:
  explicit BrokenWfqSchedV2(int policy_id) : WfqSchedV2(policy_id) {}
  void ReregisterInit(TransferState state) override {
    throw std::runtime_error("v2 state migration bug");
  }
};

}  // namespace

int main() {
  SchedCore core(MachineSpec::OneSocket8(), SimCosts{});
  EnokiRuntime runtime(std::make_unique<WfqSched>(0));
  CfsClass cfs;
  const int policy = core.RegisterClass(&runtime);
  const int cfs_policy = core.RegisterClass(&cfs);

  // The watchdog supplies the probation machinery for transactional
  // upgrades (and the CFS fallback of last resort).
  runtime.EnableWatchdog(WatchdogConfig{}, cfs_policy);

  // 12 long-running tasks; they must survive both upgrade attempts untouched.
  for (int i = 0; i < 12; ++i) {
    core.CreateTask("worker-" + std::to_string(i),
                    std::make_unique<CpuBoundBody>(Milliseconds(30), Milliseconds(1)), policy);
  }

  // 3 ms in: deploy the broken build. The transaction aborts and rolls back.
  core.loop().ScheduleAfter(Milliseconds(3), [&] {
    const UpgradeReport report = runtime.Upgrade(std::make_unique<BrokenWfqSchedV2>(0));
    std::printf("[%.3f ms] broken v2 rejected: %s\n", ToMilliseconds(core.now()),
                report.error.c_str());
    std::printf("          checkpointed=%d rolled_back=%d -> old WFQ still scheduling\n",
                report.checkpointed ? 1 : 0, report.rolled_back ? 1 : 0);
  });

  // 5 ms in: deploy the fixed build, mid-load.
  WfqSchedV2* v2 = nullptr;
  core.loop().ScheduleAfter(Milliseconds(5), [&] {
    auto next = std::make_unique<WfqSchedV2>(0);
    v2 = next.get();
    const UpgradeReport report = runtime.Upgrade(std::move(next));
    std::printf("[%.3f ms] upgraded WFQ -> WFQ v2: pause %.2f us (paper: ~1.5 us on 8 cores)\n",
                ToMilliseconds(core.now()), ToMicroseconds(report.pause_ns));
    std::printf("          probation: %s\n", runtime.ladder().in_probation() ? "active" : "off");
  });

  core.Start();
  const bool done = core.RunUntilAllExit(Seconds(10));

  std::printf("all tasks completed across both upgrade attempts: %s\n", done ? "yes" : "NO");
  std::printf("pick errors: %llu (state stayed consistent)\n",
              static_cast<unsigned long long>(core.pick_errors()));
  if (v2 != nullptr) {
    std::printf("v2 feature active: %llu picks counted since upgrade\n",
                static_cast<unsigned long long>(v2->picks()));
  }
  std::printf("upgrades committed: %llu, rollbacks: %llu, probation cleared: %s\n",
              static_cast<unsigned long long>(runtime.ladder().upgrades()),
              static_cast<unsigned long long>(runtime.rollbacks()),
              runtime.ladder().in_probation() ? "no" : "yes");
  return done && runtime.ladder().upgrades() == 1 && runtime.rollbacks() == 1 ? 0 : 1;
}

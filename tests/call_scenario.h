// A recorded run that makes every module call type, shared by the record
// stream digest (tests/enoki_test.cc) and the fault injector's transparency
// check (tests/fault_test.cc).

#ifndef TESTS_CALL_SCENARIO_H_
#define TESTS_CALL_SCENARIO_H_

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/enoki/runtime.h"
#include "src/sched/cfs.h"
#include "src/sched/wfq.h"
#include "src/simkernel/bodies.h"

namespace enoki {
namespace {

// WFQ that misbehaves once in each of three ways a healthy run never shows:
// its first pick returns a stale token (pnt_err; the real token comes back
// through PntErr), its first balance offers a pid no CPU holds
// (balance_err), and its first tick arms a policy timer. A nonzero
// `probation_window` makes its probation a time-only window of that length.
class RecordStreamWfq : public WfqSched {
 public:
  explicit RecordStreamWfq(Duration probation_window = 0)
      : WfqSched(0), probation_window_(probation_window) {}
  ProbationConfig DefaultProbation() const override {
    ProbationConfig p;
    if (probation_window_ > 0) {
      p.window_ns = probation_window_;
      p.window_calls = 0;
    }
    return p;
  }
  void Attach(EnokiKernelEnv* env) override {
    env_ = env;
    WfqSched::Attach(env);
  }
  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override {
    auto token = WfqSched::PickNextTask(cpu, std::move(curr));
    if (!token.has_value() || forged_) {
      return token;
    }
    forged_ = true;
    const uint64_t pid = token->pid();
    const uint64_t gen = SchedulableMinter::Generation(*token);
    stash_ = std::move(token);
    return SchedulableMinter::Mint(pid, cpu, gen - 1);
  }
  void PntErr(int cpu, std::optional<Schedulable> /*sched*/) override {
    if (stash_.has_value()) {
      TaskMessage msg;
      msg.pid = stash_->pid();
      msg.cpu = cpu;
      msg.prev_cpu = cpu;
      WfqSched::TaskWakeup(msg, std::move(*stash_));
      stash_.reset();
    }
  }
  std::optional<uint64_t> Balance(int cpu) override {
    if (!bogus_offered_) {
      bogus_offered_ = true;
      return 424242;
    }
    return WfqSched::Balance(cpu);
  }
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override {
    if (!timer_armed_) {
      timer_armed_ = true;
      env_->ArmTimer(cpu, Microseconds(10));
    }
    WfqSched::TaskTick(cpu, pid, runtime);
  }

 private:
  const Duration probation_window_;
  EnokiKernelEnv* env_ = nullptr;
  std::optional<Schedulable> stash_;
  bool forged_ = false;
  bool bogus_offered_ = false;
  bool timer_armed_ = false;
};

// Records a 4-CPU run of the module `make` builds through every module call
// type: task life cycle, stale pick, bogus balance, timer, migration, yield,
// departure, hint, affinity and nice. The module is built under the
// recorder's lock hooks, so its lock entries are part of the log. `arm` runs
// once both classes are registered, `extra` after the departure; the record
// stream digest hangs the recovery ladder on them.
std::vector<RecordEntry> RecordEveryCallRun(
    const std::function<std::unique_ptr<EnokiSched>()>& make,
    const std::function<void(EnokiRuntime&, int cfs_policy)>& arm = nullptr,
    const std::function<void(SchedCore&, EnokiRuntime&)>& extra = nullptr) {
  Recorder recorder(1 << 20);
  SetLockHooks(&recorder);
  {
    SchedCore core(MachineSpec{4, 1, "4 cores"}, SimCosts{});
    EnokiRuntime runtime(make());
    runtime.SetRecorder(&recorder);
    CfsClass cfs;
    const int policy = core.RegisterClass(&runtime);
    const int cfs_policy = core.RegisterClass(&cfs);
    if (arm) {
      arm(runtime, cfs_policy);
    }
    const int hints = runtime.CreateHintQueue(8);
    core.Start();
    std::vector<Task*> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back(core.CreateTask(
          std::string("c").append(std::to_string(i)),
          std::make_unique<CpuBoundBody>(Milliseconds(2), Microseconds(100)), policy));
    }
    for (int i = 0; i < 2; ++i) {
      tasks.push_back(core.CreateTask(
          std::string("s").append(std::to_string(i)),
          std::make_unique<ScriptedBody>(std::vector<Action>{
              Action::Compute(Microseconds(50)), Action::Sleep(Microseconds(100)),
              Action::Compute(Microseconds(50)), Action::Yield(),
              Action::Compute(Microseconds(50))}),
          policy));
    }
    core.RunFor(Microseconds(500));
    core.SetTaskNice(tasks[0], 5);
    core.SetTaskAffinity(tasks[1], CpuMask::Single(1));
    HintBlob hint;
    hint.w[0] = 7;
    hint.w[3] = 9;
    runtime.SendHint(hints, hint, 0);
    core.RunFor(Microseconds(100));
    core.SetTaskPolicy(tasks[2], cfs_policy);
    if (extra) {
      extra(core, runtime);
    }
    EXPECT_TRUE(core.RunUntilTasksDead(tasks, Milliseconds(50)));
  }
  SetLockHooks(nullptr);
  EXPECT_EQ(recorder.dropped(), 0u);
  return recorder.TakeLog();
}

}  // namespace
}  // namespace enoki

#endif  // TESTS_CALL_SCENARIO_H_

// Central-dispatch scheduler, modeled on sched_ext's scx_central.
//
// One CPU (the dispatch CPU) owns all scheduling decisions: it runs a
// periodic dispatch pulse that kicks workers with waiting tasks and preempts
// workers that overran their slice. Every other CPU is tickless — TaskTick
// never requests a resched, so a worker with no waiting competition runs
// undisturbed until it blocks. When nothing is queued anywhere the pulse is
// not re-armed, so an idle machine is timer-silent. The natural comparison
// is the ghOSt SOL (single-agent) model, which also centralizes decisions
// but polls from an agent task instead of a timer (see bench_table5_apps).
//
// Queues are per-CPU FIFOs ordered by a global arrival sequence, which makes
// the policy a distributed approximation of scx_central's single global
// queue: balance always pulls the globally-oldest waiting task.

#ifndef SRC_SCHED_EXT_CENTRAL_H_
#define SRC_SCHED_EXT_CENTRAL_H_

#include <optional>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/enoki/token_queue.h"

namespace enoki {

struct CentralEnt : QueueEnt {  // key: global arrival sequence
  Time pick_time = 0;  // wall-clock at last pick (slice policing)
};

class CentralSched : public TokenQueueSched<CentralSched, CentralEnt> {
 public:
  struct Transfer {
    TokenQueueTable<CentralEnt> table;
    std::vector<uint64_t> running_pid;
  };

  static constexpr Duration kDefaultPulseNs = Microseconds(50);
  static constexpr Duration kDefaultSliceNs = Milliseconds(1);

  explicit CentralSched(int policy_id, int central_cpu = 0,
                        Duration pulse = kDefaultPulseNs,
                        Duration slice = kDefaultSliceNs)
      : policy_id_(policy_id), central_cpu_(central_cpu), pulse_(pulse), slice_(slice) {}

  int GetPolicy() const override { return policy_id_; }

  int SelectTaskRq(const TaskMessage& msg) override;

  std::optional<Schedulable> PickNextTask(int cpu, std::optional<Schedulable> curr) override;
  std::optional<uint64_t> Balance(int cpu) override;
  void TaskTick(int cpu, uint64_t pid, Duration runtime) override;
  void TimerFired(int cpu) override;

  // Checkpoint format v1: the global arrival sequence cursor. Queue
  // membership and tokens are kernel-side state, re-injected after restore.
  void CheckpointFields(CheckpointArchive* ar) override;
  uint32_t CheckpointVersion() const override { return 1; }

  // Introspection for tests.
  int central_cpu() const { return central_cpu_; }
  uint64_t dispatch_pulses();
  uint64_t central_picks();

 private:
  friend TokenQueueSched;

  // Table hooks (src/enoki/token_queue.h). Caller holds lock_.
  // Drops the running marker for pid if it holds one.
  void StopRunning(uint64_t pid, CentralEnt& e);
  void Enqueued(int cpu) { ArmPulseLocked(); }
  void AttachCpus(int ncpus) { running_pid_.assign(static_cast<size_t>(ncpus), 0); }
  void SaveTransfer(Transfer& t);
  void LoadTransfer(Transfer& t);

  void ArmPulseLocked();
  bool AnyQueuedLocked() const;
  // True when tasks are allowed to run on `cpu` (everything but the central
  // CPU, unless the machine has only one CPU).
  bool WorkerCpuLocked(int cpu) const {
    return cpu != central_cpu_ || table_.queues.size() == 1;
  }

  const int policy_id_;
  const int central_cpu_;
  const Duration pulse_;
  const Duration slice_;
  std::vector<uint64_t> running_pid_;  // 0 = idle
  bool timer_armed_ = false;
  uint64_t dispatch_pulses_ = 0;
  uint64_t central_picks_ = 0;
};

// Instantiated once, in central.cc, where the hooks above can be inlined.
extern template class TokenQueueSched<CentralSched, CentralEnt>;

}  // namespace enoki

#endif  // SRC_SCHED_EXT_CENTRAL_H_

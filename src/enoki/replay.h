// The Enoki replay system (section 3.4).
//
// Replay runs the *same scheduler code* that ran in the kernel, at
// userspace, against a recorded trace. The engine:
//  1. parses the log and extracts, per lock, the recorded order of
//     acquisitions (identified by lock creation order and kernel-thread id);
//  2. installs replay lock hooks so the module's shim locks block each
//     thread until its recorded turn;
//  3. starts one real thread per recorded call message (bounded by a sliding
//     window), serialized per kernel-thread id, and validates each response
//     against the recorded one.
//
// Any divergence (response mismatch, lock-order stall) is counted and
// reported rather than fatal, so partial traces (ring overruns) degrade
// gracefully.

#ifndef SRC_ENOKI_REPLAY_H_
#define SRC_ENOKI_REPLAY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/enoki/api.h"
#include "src/enoki/record.h"

namespace enoki {

struct ReplayResult {
  uint64_t calls_replayed = 0;
  uint64_t response_mismatches = 0;
  uint64_t lock_blocks = 0;   // acquisitions that had to wait for their turn
  uint64_t lock_timeouts = 0; // recorded order could not be satisfied
  uint64_t out_of_range_skipped = 0;  // calls naming a CPU the machine lacks or a pid > kMaxPid
  double replay_seconds = 0.0;
};

// Userspace stand-in for the kernel services; time is driven by the trace.
class ReplayEnv : public EnokiKernelEnv {
 public:
  explicit ReplayEnv(int ncpus) : ncpus_(ncpus) {}

  // On a replay thread, the recorded time of the call it replays: calls run
  // concurrently, one thread each, so a shared clock would let a callback
  // read a later call's time. Elsewhere, the time last given to SetNow.
  Time Now() const override;
  int NumCpus() const override { return ncpus_; }
  int NodeOf(int cpu) const override { return 0; }
  void ArmTimer(int cpu, Duration delay) override {}   // timers appear as recorded calls
  void ReschedCpu(int cpu) override {}
  void PushRevHint(int queue_id, const HintBlob& hint) override {}

  void SetNow(Time t) { now_ = t; }

 private:
  const int ncpus_;
  Time now_ = 0;
};

class ReplayEngine {
 public:
  // The module must be freshly constructed *after* InstallHooks (so its
  // locks are created under the replay hooks).
  // `lock_wait_timeout_ms` bounds how long a replay thread waits for its
  // recorded lock turn before declaring the trace incomplete (counted in
  // ReplayResult::lock_timeouts) and moving on; tests replaying truncated
  // traces lower it so degradation is exercised quickly.
  ReplayEngine(std::vector<RecordEntry> log, int ncpus, int max_outstanding = 64,
               int lock_wait_timeout_ms = 5000);
  ~ReplayEngine();

  ReplayEnv* env() { return &env_; }

  // Installs the replay lock hooks; the module must be constructed between
  // InstallHooks() and Run().
  void InstallHooks();

  // Replays the log on real threads. Checks first that the hooks
  // InstallHooks() installed are still the installed ones: the module's
  // shim locks give real exclusion only on their hooked path.
  ReplayResult Run(EnokiSched* module);

 private:
  class LockOrderHooks;

  void PerformCall(EnokiSched* module, const RecordEntry& e, ReplayResult* result);

  std::vector<RecordEntry> log_;
  ReplayEnv env_;
  const int max_outstanding_;
  const int lock_wait_timeout_ms_;
  std::unique_ptr<LockOrderHooks> hooks_;
  std::mutex result_mu_;
};

}  // namespace enoki

#endif  // SRC_ENOKI_REPLAY_H_

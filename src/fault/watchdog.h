// Fault containment: watchdog policy and crash reporting.
//
// The paper's central robustness claim (sections 3.1-3.2) is that a buggy
// scheduler module cannot take down the kernel: invalid Schedulable tokens
// are caught at pick_next_task, and a broken policy can be swapped out live.
// This subsystem closes the loop by *acting* on misbehavior. The Watchdog is
// the decision policy: the runtime reports every suspicious observation
// (escaped exception, over-budget callback, pick/balance validation failure,
// starved task) and the Watchdog answers with the trip reason once a
// configured threshold is crossed. On a trip the runtime quarantines the
// module, re-policies its tasks onto the fallback class, and emits a
// CrashReport — the same containment shape sched_ext gives a misbehaving BPF
// scheduler (error out, fall back to CFS, leave a debug dump).
//
// Everything here is deterministic: thresholds are compared against
// simulated quantities only, so identical seeds produce identical trips and
// identical CrashReports.

#ifndef SRC_FAULT_WATCHDOG_H_
#define SRC_FAULT_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/base/time.h"
#include "src/enoki/record.h"

namespace enoki {

enum class TripReason : uint8_t {
  kNone = 0,
  kEscapedException,  // a module callback threw past the API boundary
  kCallbackBudget,    // a single callback exceeded its time budget
  kPickErrors,        // repeated pick_next_task validation failures
  kBalanceErrors,     // repeated balance validation failures
  kStarvation,        // a runnable task went unpicked past the bound
  kUpgradeFailure,    // live upgrade left the module in a broken state
  kManual,            // operator-requested abort (sysrq-style)
};

const char* TripReasonName(TripReason reason);

struct WatchdogConfig {
  // Budget for the simulated time one module callback may consume (framework
  // overhead plus any BusyWait the module performs). One violation trips.
  Duration callback_budget_ns = Milliseconds(10);

  // Trip on the Nth exception escaping a module callback. 1 = first throw.
  uint64_t max_escaped_exceptions = 1;

  // Trip when this many pick_next_task validation failures accumulate.
  uint64_t max_pick_errors = 16;

  // Trip when this many balance validation failures accumulate.
  uint64_t max_balance_errors = 64;

  // A runnable task not dispatched for longer than this trips the watchdog.
  // Also installed as SchedCore's starvation-scan bound. 0 disables.
  Duration starvation_bound_ns = Milliseconds(100);

  // How many trailing record entries (the module's last calls) to capture
  // into the CrashReport: from the Recorder's log when one is attached,
  // otherwise from the always-on flight ring.
  size_t crash_ring_entries = 32;
};

// Tightened watchdog budgets applied while a freshly installed module (a
// just-upgraded or just-restarted one) proves itself. Violation counters are
// measured from the start of the window, not from module load, so an old
// module's accumulated errors cannot condemn its successor. Both limits may
// be active at once; probation ends at whichever is reached first.
struct ProbationConfig {
  // Simulated-time length of the window. 0 = calls-only probation.
  Duration window_ns = Milliseconds(5);

  // Watchdog-observed callbacks the module must survive. 0 = time-only.
  uint64_t window_calls = 512;

  // Callback-budget multiplier during probation (< 1 tightens).
  double budget_scale = 0.5;

  // Violation thresholds within the window (counted from its start).
  uint64_t max_escaped_exceptions = 1;
  uint64_t max_pick_errors = 4;
  uint64_t max_balance_errors = 16;
};

// Everything known about a containment event: why the watchdog tripped, the
// module's counters at that moment, callback-latency aggregates, the cost of
// the fallback, and the last calls into the module (from the Recorder's log
// when one is attached, otherwise from the runtime's flight ring).
struct CrashReport {
  TripReason reason = TripReason::kNone;
  std::string detail;
  Time tripped_at = 0;
  bool during_probation = false;  // the module tripped inside its probation window

  // Module counters at trip time.
  uint64_t module_calls = 0;
  uint64_t pick_errors = 0;
  uint64_t balance_errors = 0;
  uint64_t escaped_exceptions = 0;
  uint64_t starved_pid = 0;  // 0 unless reason == kStarvation

  // Per-callback simulated latency, aggregated across the module's life.
  uint64_t callback_count = 0;
  double callback_mean_ns = 0;
  Duration callback_max_ns = 0;
  Duration callback_p50_ns = 0;
  Duration callback_p99_ns = 0;

  // Fallback outcome, filled in once the quarantined module's tasks have
  // been re-policied onto the fallback class.
  uint64_t tasks_repolicied = 0;
  Duration fallback_pause_ns = 0;

  // The last calls the module saw before the trip. Entries from the flight
  // ring carry only the fields ToString prints (seq, time, kthread, type,
  // pid, cpu, resp0); the rest are zero.
  std::vector<RecordEntry> last_calls;

  // Stable text rendering; used for logging and for determinism checks
  // (identical seeds must yield identical strings).
  std::string ToString() const;
};

// The detection policy. The runtime feeds it observations; each observer
// returns TripReason::kNone or the reason to trip. The Watchdog itself is
// stateless about the fallback — acting on a trip is the runtime's job.
class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config) : config_(config) {}

  const WatchdogConfig& config() const { return config_; }

  // An exception escaped a module callback.
  TripReason OnEscapedException() {
    ++escaped_exceptions_;
    if (probation_open_) {
      return escaped_exceptions_ - probation_base_escaped_ >= probation_.max_escaped_exceptions
                 ? TripReason::kEscapedException
                 : TripReason::kNone;
    }
    return escaped_exceptions_ >= config_.max_escaped_exceptions
               ? TripReason::kEscapedException
               : TripReason::kNone;
  }

  // A module callback completed, consuming `ns` of simulated time. Most
  // calls repeat the previous call's latency (the fixed per-call cost), so
  // the histogram takes them as runs: a run is flushed into it when the
  // value changes or when BuildReport reads it. The budget check still sees
  // every call. The runtime calls this after every callback, so it is forced
  // inline; a new run goes out of line.
  [[gnu::always_inline]] TripReason OnCallbackLatency(Duration ns) {
    if (ns == latency_run_value_) [[likely]] {
      ++latency_run_count_;
    } else {
      StartLatencyRun(ns);
    }
    return ns > callback_budget_ ? TripReason::kCallbackBudget : TripReason::kNone;
  }

  // pick_next_task returned a token that failed validation.
  TripReason OnPickError() {
    ++pick_errors_;
    if (probation_open_) {
      return pick_errors_ - probation_base_pick_ >= probation_.max_pick_errors
                 ? TripReason::kPickErrors
                 : TripReason::kNone;
    }
    return pick_errors_ >= config_.max_pick_errors ? TripReason::kPickErrors : TripReason::kNone;
  }

  // balance offered a task that could not be moved.
  TripReason OnBalanceError() {
    ++balance_errors_;
    if (probation_open_) {
      return balance_errors_ - probation_base_balance_ >= probation_.max_balance_errors
                 ? TripReason::kBalanceErrors
                 : TripReason::kNone;
    }
    return balance_errors_ >= config_.max_balance_errors ? TripReason::kBalanceErrors
                                                         : TripReason::kNone;
  }

  // A runnable task went `waited` without being dispatched.
  TripReason OnStarvation(uint64_t pid, Duration waited) {
    starved_pid_ = pid;
    starved_for_ = waited;
    return TripReason::kStarvation;
  }

  uint64_t escaped_exceptions() const { return escaped_exceptions_; }
  uint64_t pick_errors() const { return pick_errors_; }
  uint64_t balance_errors() const { return balance_errors_; }

  // ---- Probation (recovery ladder) ----
  // Enters a probation window with tightened budgets. Violation counters are
  // baselined at the current values so only new misbehavior counts.
  void BeginProbation(const ProbationConfig& cfg) {
    probation_ = cfg;
    probation_open_ = true;
    probation_base_escaped_ = escaped_exceptions_;
    probation_base_pick_ = pick_errors_;
    probation_base_balance_ = balance_errors_;
    callback_budget_ = ComputeCallbackBudget();
  }
  void EndProbation() {
    probation_open_ = false;
    callback_budget_ = ComputeCallbackBudget();
  }
  bool in_probation() const { return probation_open_; }
  const ProbationConfig& probation() const { return probation_; }

  Duration effective_callback_budget() const { return callback_budget_; }

  // Clears the violation counters after a supervised restart: the fresh
  // module instance must not inherit its predecessor's strikes. Latency
  // aggregates are kept — they describe the slot's whole history.
  void ResetCounters() {
    escaped_exceptions_ = 0;
    pick_errors_ = 0;
    balance_errors_ = 0;
    starved_pid_ = 0;
    starved_for_ = 0;
  }

  // Snapshots the watchdog's aggregates into a report for the given trip.
  // Flushes the pending latency run first, so the aggregates are exact.
  CrashReport BuildReport(TripReason reason, std::string detail, Time now);

 private:
  // The callback budget in force: the configured one, scaled while a
  // probation window is open. Cached, since only Begin/EndProbation move it.
  Duration ComputeCallbackBudget() const {
    if (!probation_open_) {
      return config_.callback_budget_ns;
    }
    return static_cast<Duration>(static_cast<double>(config_.callback_budget_ns) *
                                 probation_.budget_scale);
  }

  void FlushLatencyRun() {
    callback_latency_.Record(latency_run_value_, latency_run_count_);
    latency_run_count_ = 0;
  }
  // Flushes the current run and opens one of `ns`.
  void StartLatencyRun(Duration ns);

  const WatchdogConfig config_;
  Duration callback_budget_ = config_.callback_budget_ns;
  uint64_t escaped_exceptions_ = 0;
  uint64_t pick_errors_ = 0;
  uint64_t balance_errors_ = 0;
  uint64_t starved_pid_ = 0;
  Duration starved_for_ = 0;
  LatencyRecorder callback_latency_;
  // The run of identical latencies not yet in callback_latency_.
  Duration latency_run_value_ = 0;
  uint64_t latency_run_count_ = 0;

  bool probation_open_ = false;
  ProbationConfig probation_;
  uint64_t probation_base_escaped_ = 0;
  uint64_t probation_base_pick_ = 0;
  uint64_t probation_base_balance_ = 0;
};

}  // namespace enoki

#endif  // SRC_FAULT_WATCHDOG_H_

// Fault containment: the watchdog's configuration, its trip reasons and the
// crash report.
//
// The paper's central robustness claim (sections 3.1-3.2) is that a buggy
// scheduler module cannot take down the kernel: invalid Schedulable tokens
// are caught at pick_next_task, and a broken policy can be swapped out live.
// The recovery ladder (src/enoki/recovery_ladder.h) closes the loop by
// *acting* on misbehavior: the runtime reports every suspicious observation
// (escaped exception, over-budget callback, pick/balance validation failure,
// starved task), and once a threshold here is crossed the ladder trips. A
// trip quarantines the module, re-policies its tasks onto the fallback class
// and emits a CrashReport — the same containment shape sched_ext gives a
// misbehaving BPF scheduler (error out, fall back to CFS, leave a debug dump).
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

// Per-callback simulated latency, aggregated across the module slot's life.
// Most calls repeat the previous call's latency (the fixed per-call cost), so
// the histogram takes them as runs: a run is flushed into it when the value
// changes or when Summarize reads it. Add runs after every callback, so it is
// forced inline; a new run goes out of line.
class CallLatency {
 public:
  [[gnu::always_inline]] void Add(Duration ns) {
    if (ns == run_value_) [[likely]] {
      ++run_count_;
    } else {
      StartRun(ns);
    }
  }

  // Fills the report's callback aggregates, flushing the pending run first so
  // they are exact.
  void Summarize(CrashReport* report);

 private:
  void StartRun(Duration ns);

  // The run first: Add touches only it, and the histogram is 30 KB.
  Duration run_value_ = 0;
  uint64_t run_count_ = 0;
  LatencyRecorder histogram_;
};

}  // namespace enoki

#endif  // SRC_FAULT_WATCHDOG_H_

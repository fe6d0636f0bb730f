// Fault containment: the module supervisor — the restart-budget policy of
// the recovery ladder (probation → rollback → supervised restart →
// quarantine).
//
// The ladder decides *that* a module misbehaved; the ModuleSupervisor
// decides *what to do about it*. sched_ext errors a misbehaving BPF
// scheduler straight out to CFS; Enoki's agile-upgrade story (and Ekiben's)
// argues for trying harder first: construct a fresh instance of the module
// from a factory, restore its accounting state from the last good
// checkpoint, and give it another chance under its probation budgets. Only
// when the restart budget is spent does the ladder fall through to the
// terminal quarantine+CFS path.
//
// The supervisor is a pure decision policy that the RecoveryLadder holds: it
// holds no runtime pointers and touches no kernel state. All of its inputs
// are simulated times and CrashReports, and its backoff schedule is a pure
// function of the trip sequence — so identical seeds produce
// identical recovery timelines, which TimelineString() renders for the
// determinism sweeps.

#ifndef SRC_FAULT_SUPERVISOR_H_
#define SRC_FAULT_SUPERVISOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/enoki/api.h"
#include "src/fault/watchdog.h"

namespace enoki {

// Builds a fresh, state-free instance of the supervised module. Called once
// per restart attempt; the instance is then restored from the last good
// checkpoint (when one validates) before it sees any traffic.
using ModuleFactory = std::function<std::unique_ptr<EnokiSched>()>;

enum class RecoveryAction : uint8_t {
  kRestart,     // rebuild from the factory, restore the checkpoint, probate
  kQuarantine,  // budget exhausted: terminal quarantine + CFS fallback
};

struct RestartDecision {
  RecoveryAction action = RecoveryAction::kQuarantine;
  Duration backoff_ns = 0;
  uint64_t attempt = 0;  // 1-based
};

// One completed rung of the recovery timeline.
struct RestartEvent {
  Time tripped_at = 0;
  Time restarted_at = 0;
  TripReason reason = TripReason::kNone;
  uint64_t attempt = 0;
  Duration backoff_ns = 0;
  bool restored_from_checkpoint = false;  // false: started fresh (no/invalid checkpoint)
};

class ModuleSupervisor {
 public:
  // Restarts allowed over the supervised slot's life; the next trip after
  // them escalates to quarantine.
  static constexpr uint64_t kRestartBudget = 3;
  // Backoff before the first restart (simulated time); each later attempt
  // waits twice as long as the one before.
  static constexpr Duration kFirstBackoffNs = Microseconds(50);

  explicit ModuleSupervisor(ModuleFactory factory) : factory_(std::move(factory)) {}

  std::unique_ptr<EnokiSched> MakeModule() const { return factory_(); }

  // The ladder tripped at `now`. Archives the report and answers with the
  // action and (for restarts) the simulated-time backoff to wait first.
  RestartDecision OnTrip(const CrashReport& report, Time now) {
    history_.push_back(report);
    if (restarts_decided_ >= kRestartBudget) {
      return RestartDecision{.action = RecoveryAction::kQuarantine};
    }
    ++restarts_decided_;
    const RestartDecision d{.action = RecoveryAction::kRestart,
                            .backoff_ns = BackoffFor(restarts_decided_),
                            .attempt = restarts_decided_};
    pending_ = RestartEvent{
        .tripped_at = now, .reason = report.reason, .attempt = d.attempt, .backoff_ns = d.backoff_ns};
    return d;
  }

  // The ladder finished installing the restarted module at `now`.
  void OnRestartComplete(Time now, bool restored_from_checkpoint) {
    pending_.restarted_at = now;
    pending_.restored_from_checkpoint = restored_from_checkpoint;
    timeline_.push_back(pending_);
  }

  // The restarted module survived its probation window.
  void OnHealthy() { ++healthy_commits_; }

  // Attempts run from 1 to kRestartBudget, so the doubling cannot overflow.
  static Duration BackoffFor(uint64_t attempt) { return kFirstBackoffNs << (attempt - 1); }

  uint64_t restarts_decided() const { return restarts_decided_; }
  // Every trip is archived and either restarts or escalates.
  uint64_t escalations() const { return history_.size() - restarts_decided_; }
  uint64_t healthy_commits() const { return healthy_commits_; }
  const std::vector<CrashReport>& history() const { return history_; }
  const std::vector<RestartEvent>& timeline() const { return timeline_; }

  // Stable text rendering of the recovery timeline; identical seeds must
  // yield identical strings (the determinism fingerprint for sweeps).
  std::string TimelineString() const;

 private:
  const ModuleFactory factory_;

  uint64_t restarts_decided_ = 0;
  uint64_t healthy_commits_ = 0;

  RestartEvent pending_;
  std::vector<CrashReport> history_;
  std::vector<RestartEvent> timeline_;
};

}  // namespace enoki

#endif  // SRC_FAULT_SUPERVISOR_H_

#include "src/fault/watchdog.h"

#include <cinttypes>
#include <cstdio>

namespace enoki {

const char* TripReasonName(TripReason reason) {
  switch (reason) {
    case TripReason::kNone:
      return "none";
    case TripReason::kEscapedException:
      return "escaped-exception";
    case TripReason::kCallbackBudget:
      return "callback-budget";
    case TripReason::kPickErrors:
      return "pick-errors";
    case TripReason::kBalanceErrors:
      return "balance-errors";
    case TripReason::kStarvation:
      return "starvation";
    case TripReason::kUpgradeFailure:
      return "upgrade-failure";
    case TripReason::kManual:
      return "manual";
  }
  return "unknown";
}

void CallLatency::StartRun(Duration ns) {
  histogram_.Record(run_value_, run_count_);
  run_value_ = ns;
  run_count_ = 1;
}

void CallLatency::Summarize(CrashReport* report) {
  histogram_.Record(run_value_, run_count_);
  run_count_ = 0;
  report->callback_count = histogram_.count();
  report->callback_mean_ns = histogram_.mean_ns();
  report->callback_max_ns = histogram_.max();
  report->callback_p50_ns = histogram_.Percentile(50.0);
  report->callback_p99_ns = histogram_.Percentile(99.0);
}

std::string CrashReport::ToString() const {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "CrashReport{reason=%s detail=\"%s\" tripped_at=%" PRIu64
                "ns probation=%d module_calls=%" PRIu64 " pick_errors=%" PRIu64
                " balance_errors=%" PRIu64 " escaped_exceptions=%" PRIu64 " starved_pid=%" PRIu64
                "\n",
                TripReasonName(reason), detail.c_str(), static_cast<uint64_t>(tripped_at),
                during_probation ? 1 : 0, module_calls, pick_errors, balance_errors,
                escaped_exceptions, starved_pid);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  callbacks: n=%" PRIu64 " mean=%.1fns max=%" PRIu64 "ns p50=%" PRIu64
                "ns p99=%" PRIu64 "ns\n",
                callback_count, callback_mean_ns, static_cast<uint64_t>(callback_max_ns),
                static_cast<uint64_t>(callback_p50_ns), static_cast<uint64_t>(callback_p99_ns));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  fallback: tasks_repolicied=%" PRIu64 " pause=%" PRIu64 "ns\n", tasks_repolicied,
                static_cast<uint64_t>(fallback_pause_ns));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  last_calls (%zu):\n", last_calls.size());
  out += buf;
  for (const RecordEntry& e : last_calls) {
    std::snprintf(buf, sizeof(buf),
                  "    seq=%" PRIu64 " t=%" PRIu64 " type=%u pid=%" PRIu64
                  " cpu=%d resp=%" PRIu64 "\n",
                  e.seq, static_cast<uint64_t>(e.time), static_cast<unsigned>(e.type), e.pid,
                  e.cpu, e.resp0);
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace enoki

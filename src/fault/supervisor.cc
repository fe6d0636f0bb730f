#include "src/fault/supervisor.h"

#include <cinttypes>
#include <cstdio>

namespace enoki {

std::string ModuleSupervisor::TimelineString() const {
  std::string out = "RecoveryTimeline{\n";
  char buf[256];
  for (const RestartEvent& ev : timeline_) {
    std::snprintf(buf, sizeof(buf),
                  "  restart attempt=%" PRIu64 " reason=%s tripped_at=%" PRIu64
                  "ns backoff=%" PRIu64 "ns restarted_at=%" PRIu64 "ns restored=%d\n",
                  ev.attempt, TripReasonName(ev.reason), static_cast<uint64_t>(ev.tripped_at),
                  static_cast<uint64_t>(ev.backoff_ns), static_cast<uint64_t>(ev.restarted_at),
                  ev.restored_from_checkpoint ? 1 : 0);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  trips=%zu restarts=%" PRIu64 " healthy=%" PRIu64 " escalations=%" PRIu64 "\n}",
                history_.size(), restarts_decided_, healthy_commits_, escalations());
  out += buf;
  return out;
}

}  // namespace enoki

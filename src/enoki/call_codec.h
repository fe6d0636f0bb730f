// The call codec, the one description of the record format (section 3.4).
// Each RecordType has one row: its name, kind, payload, the CPUs replay
// range-checks, the response replay compares and how replay invokes the
// module. Each payload's encode/decode pair is the only code that knows which
// of an entry's cpu, pid, runtime, arg[0..3] and flag fields holds which
// message field; its encoder is a forced-inline template over the record.

#ifndef SRC_ENOKI_CALL_CODEC_H_
#define SRC_ENOKI_CALL_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>

#include "src/base/cpumask.h"
#include "src/base/niceness.h"
#include "src/enoki/api.h"
#include "src/enoki/record.h"

namespace enoki {

enum class RecordType : uint8_t {
  kTaskNew = 1,
  kTaskWakeup,
  kTaskBlocked,
  kTaskPreempt,
  kTaskYield,
  kTaskDead,
  kTaskDeparted,
  kPickNextTask,
  kPntErr,
  kSelectTaskRq,
  kMigrateTaskRq,
  kBalance,
  kBalanceErr,
  kTaskTick,
  kTimerFired,
  kParseHint,
  kAffinityChanged,
  kPrioChanged,
  kLockCreate,
  kLockAcquire,
  kLockRelease,
  // Lifecycle markers (runtime.h gives kShardMerge's arg layout). A
  // checkpoint save's args are the sequence, taken_at and payload bytes; a
  // restore's the sequence loaded, ring depth consumed and generations skipped.
  kUpgrade,
  kUpgradeRollback,
  kModuleRestart,
  kShardMerge,
  kCheckpointSave,
  kCheckpointRestore,
};

// A module call is replayed; a lock event orders replay's lock turns; a
// lifecycle marker is only logged.
enum class CallKind { kCall, kLock, kLifecycle };
// A TaskMessage, a MigrateMessage, a pid with its nice or its CPU mask, a
// HintBlob, a cpu, a cpu with a pid and the task's runtime, or a lock id.
enum class Payload { kNone, kTask, kMigrate, kNice, kMask, kHint, kCpu, kCpuPid, kLockId };
// Which CPUs a replayed call hands the module, to be checked against the
// machine: none a module indexes (per-task notifications), the entry's cpu,
// that cpu or -1 (a new task's selection), or a migration's two CPUs.
enum class CpuRule { kUnchecked, kCpuValid, kCpuValidOrNew, kBothCpusValid };
// What a call returns, as replay compares it with the recorded resp0: the
// pid of a returned token (0 for none), a CPU, or an offered pid.
enum class Response { kNoResponse, kTokenPid, kChosenCpu, kOfferedPid };

// ---- The payload encode/decode pairs ----
// Each encoder fills a record (the runtime's CallRecord or a RecordEntry)
// of `type`; every field it does not name keeps its default.

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodeCpu(RecordType type, int cpu, uint64_t pid = 0,
                                            Duration runtime = 0) {
  Rec r;
  r.type = type;
  r.cpu = cpu;
  r.pid = pid;
  r.runtime = runtime;
  return r;
}
// The kCpu and kCpuPid decoders are the entry's cpu, pid and runtime fields.

constexpr uint64_t EncodeNice(int nice) { return static_cast<uint64_t>(nice - kMinNice); }
inline int DecodeNice(const RecordEntry& e) { return static_cast<int>(e.arg[0]) + kMinNice; }

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodeTask(RecordType type, const TaskMessage& msg) {
  Rec r = EncodeCpu<Rec>(type, msg.cpu, msg.pid, msg.runtime);
  r.arg[0] = EncodeNice(msg.nice);
  r.arg[1] = msg.is_new ? 1 : 0;
  r.flag = msg.wake_sync;
  return r;
}
inline TaskMessage DecodeTask(const RecordEntry& e) {
  return TaskMessage{.pid = e.pid,
                     .cpu = e.cpu,
                     .prev_cpu = e.cpu,
                     .runtime = e.runtime,
                     .nice = DecodeNice(e),
                     .wake_sync = e.flag,
                     .is_new = e.arg[1] != 0};
}

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodeMigrate(RecordType type, const MigrateMessage& msg) {
  Rec r = EncodeCpu<Rec>(type, msg.to_cpu, msg.pid, msg.runtime);
  r.arg[0] = static_cast<uint64_t>(msg.from_cpu);
  return r;
}
inline MigrateMessage DecodeMigrate(const RecordEntry& e) {
  return MigrateMessage{.pid = e.pid,
                        .from_cpu = static_cast<int>(e.arg[0]),
                        .to_cpu = e.cpu,
                        .runtime = e.runtime};
}

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodePidNice(RecordType type, uint64_t pid, int nice) {
  Rec r = EncodeCpu<Rec>(type, -1, pid);
  r.arg[0] = EncodeNice(nice);
  return r;
}

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodePidMask(RecordType type, uint64_t pid,
                                                const CpuMask& mask) {
  Rec r = EncodeCpu<Rec>(type, -1, pid);
  r.arg[0] = mask.word(0);
  r.arg[1] = mask.word(1);
  return r;
}
inline CpuMask DecodeMask(const RecordEntry& e) { return CpuMask::FromWords(e.arg[0], e.arg[1]); }

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodeHint(RecordType type, const HintBlob& hint) {
  Rec r = EncodeCpu<Rec>(type, -1);
  std::copy(std::begin(hint.w), std::end(hint.w), r.arg);
  return r;
}
inline HintBlob DecodeHint(const RecordEntry& e) {
  HintBlob hint;
  std::copy(std::begin(e.arg), std::end(e.arg), hint.w);
  return hint;
}

template <typename Rec>
[[gnu::always_inline]] inline Rec EncodeLock(RecordType type, uint64_t lock_id) {
  Rec r = EncodeCpu<Rec>(type, -1);
  r.arg[0] = lock_id;
  return r;
}
inline uint64_t DecodeLock(const RecordEntry& e) { return e.arg[0]; }

// ---- One row per RecordType ----

struct CallSpec {
  RecordType type;
  const char* name;
  CallKind kind;
  Payload payload = Payload::kNone;
  CpuRule cpus = CpuRule::kUnchecked;
  Response response = Response::kNoResponse;
  // Replays the call into `module`, its response in *got; null unless kCall.
  void (*replay)(EnokiSched* module, const RecordEntry& e, uint64_t* got) = nullptr;
};

namespace codec_internal {

// The token a replayed call hands over: the recorded pid on the entry's cpu.
inline Schedulable Token(const RecordEntry& e) { return SchedulableMinter::Mint(e.pid, e.cpu, 0); }
inline uint64_t PidOf(const std::optional<Schedulable>& token) {
  return token.has_value() ? token->pid() : 0;
}

using enum CallKind;
using enum Payload;
using enum CpuRule;
using enum Response;
using M = EnokiSched*;
using E = const RecordEntry&;
using G = uint64_t*;

inline constexpr CallSpec kCallSpecs[] = {
    {RecordType::kTaskNew, "task_new", kCall, kTask, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TaskNew(DecodeTask(e), Token(e)); }},
    {RecordType::kTaskWakeup, "task_wakeup", kCall, kTask, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TaskWakeup(DecodeTask(e), Token(e)); }},
    {RecordType::kTaskBlocked, "task_blocked", kCall, kTask, kUnchecked, kNoResponse,
     [](M m, E e, G) { m->TaskBlocked(DecodeTask(e)); }},
    {RecordType::kTaskPreempt, "task_preempt", kCall, kTask, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TaskPreempt(DecodeTask(e), Token(e)); }},
    {RecordType::kTaskYield, "task_yield", kCall, kTask, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TaskYield(DecodeTask(e), Token(e)); }},
    {RecordType::kTaskDead, "task_dead", kCall, kCpuPid, kUnchecked, kNoResponse,
     [](M m, E e, G) { m->TaskDead(e.pid); }},
    {RecordType::kTaskDeparted, "task_departed", kCall, kTask, kUnchecked, kTokenPid,
     [](M m, E e, G got) { *got = PidOf(m->TaskDeparted(DecodeTask(e))); }},
    {RecordType::kPickNextTask, "pick_next_task", kCall, kCpu, kCpuValid, kTokenPid,
     [](M m, E e, G got) { *got = PidOf(m->PickNextTask(e.cpu, std::nullopt)); }},
    {RecordType::kPntErr, "pnt_err", kCall, kCpuPid, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->PntErr(e.cpu, Token(e)); }},
    {RecordType::kSelectTaskRq, "select_task_rq", kCall, kTask, kCpuValidOrNew, kChosenCpu,
     [](M m, E e, G got) { *got = static_cast<uint64_t>(m->SelectTaskRq(DecodeTask(e))); }},
    {RecordType::kMigrateTaskRq, "migrate_task_rq", kCall, kMigrate, kBothCpusValid, kTokenPid,
     [](M m, E e, G got) { *got = m->MigrateTaskRq(DecodeMigrate(e), Token(e)).pid(); }},
    {RecordType::kBalance, "balance", kCall, kCpu, kCpuValid, kOfferedPid,
     [](M m, E e, G got) { *got = m->Balance(e.cpu).value_or(0); }},
    {RecordType::kBalanceErr, "balance_err", kCall, kCpuPid, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->BalanceErr(e.cpu, e.pid, std::nullopt); }},
    {RecordType::kTaskTick, "task_tick", kCall, kCpuPid, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TaskTick(e.cpu, e.pid, e.runtime); }},
    {RecordType::kTimerFired, "timer_fired", kCall, kCpu, kCpuValid, kNoResponse,
     [](M m, E e, G) { m->TimerFired(e.cpu); }},
    {RecordType::kParseHint, "parse_hint", kCall, kHint, kUnchecked, kNoResponse,
     [](M m, E e, G) { m->ParseHint(DecodeHint(e)); }},
    {RecordType::kAffinityChanged, "affinity_changed", kCall, kMask, kUnchecked, kNoResponse,
     [](M m, E e, G) { m->TaskAffinityChanged(e.pid, DecodeMask(e)); }},
    {RecordType::kPrioChanged, "prio_changed", kCall, kNice, kUnchecked, kNoResponse,
     [](M m, E e, G) { m->TaskPrioChanged(e.pid, DecodeNice(e)); }},
    {RecordType::kLockCreate, "lock_create", kLock, kLockId},
    {RecordType::kLockAcquire, "lock_acquire", kLock, kLockId},
    {RecordType::kLockRelease, "lock_release", kLock, kLockId},
    {RecordType::kUpgrade, "upgrade", kLifecycle},
    {RecordType::kUpgradeRollback, "upgrade_rollback", kLifecycle},
    {RecordType::kModuleRestart, "module_restart", kLifecycle},
    {RecordType::kShardMerge, "shard_merge", kLifecycle},
    {RecordType::kCheckpointSave, "checkpoint_save", kLifecycle},
    {RecordType::kCheckpointRestore, "checkpoint_restore", kLifecycle},
};

}  // namespace codec_internal

// The row of `type`, or null when `type` has none.
constexpr const CallSpec* FindSpec(RecordType type) {
  for (const CallSpec& spec : codec_internal::kCallSpecs) {
    if (spec.type == type) {
      return &spec;
    }
  }
  return nullptr;
}
// Whether `value` names a RecordType (a record file is untrusted input).
constexpr bool IsRecordType(unsigned value) {
  return value <= UINT8_MAX && FindSpec(static_cast<RecordType>(value)) != nullptr;
}
// The row of a valid `type`.
constexpr const CallSpec& SpecOf(RecordType type) { return *FindSpec(type); }
constexpr bool IsModuleCall(RecordType type) { return SpecOf(type).kind == CallKind::kCall; }
inline const char* RecordTypeName(RecordType type) {
  return FindSpec(type) == nullptr ? "unknown" : SpecOf(type).name;
}

// Whether the CPUs the entry's call hands the module exist on `ncpus` CPUs.
inline bool CpusInRange(const RecordEntry& e, int ncpus) {
  switch (SpecOf(e.type).cpus) {
    case CpuRule::kUnchecked:
      return true;
    case CpuRule::kCpuValid:
      return e.cpu >= 0 && e.cpu < ncpus;
    case CpuRule::kCpuValidOrNew:
      return e.cpu >= -1 && e.cpu < ncpus;
    case CpuRule::kBothCpusValid:  // a migration's from_cpu is arg[0]
      return e.cpu >= 0 && e.cpu < ncpus && e.arg[0] < static_cast<uint64_t>(ncpus);
  }
  return false;
}

}  // namespace enoki

#endif  // SRC_ENOKI_CALL_CODEC_H_

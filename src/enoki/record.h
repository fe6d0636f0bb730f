// The Enoki record system (section 3.4).
//
// In record mode the runtime appends one RecordEntry per call into the
// scheduler (with its arguments and response) and the lock shims append one
// entry per lock create/acquire/release, tagged with the kernel thread id.
// A Recorder is a LockHooks: installed with SetLockHooks it receives the
// lock events, and the locks take their hooked path (src/enoki/lock.h).
// Entries flow through a ring buffer shared with a userspace record task,
// which drains them to the log asynchronously — writing cannot happen in
// scheduler context (interrupts disabled), exactly as in the paper. Buffer
// overruns drop events and are counted.

#ifndef SRC_ENOKI_RECORD_H_
#define SRC_ENOKI_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/cpumask.h"
#include "src/base/ring_buffer.h"
#include "src/base/time.h"
#include "src/enoki/lock.h"

namespace enoki {

// One row per type, and each type's field layout, in call_codec.h.
enum class RecordType : uint8_t;

struct RecordEntry {
  uint64_t seq = 0;
  Time time = 0;
  int32_t kthread = 0;
  RecordType type{};
  uint64_t pid = 0;
  int32_t cpu = -1;
  uint64_t runtime = 0;
  uint64_t arg[4] = {0, 0, 0, 0};
  uint64_t resp0 = 0;
  bool has_resp = false;
  bool flag = false;  // wake_sync and similar per-type booleans
};

// Always-on flight recorder: a small fixed ring of the most recent calls
// (and runtime lifecycle events), appended to by the runtime even when no
// Recorder is attached, so a CrashReport can carry the module's last calls
// without the record system's ring+drain machinery (and without its
// per-call simulated cost — a fixed-size in-kernel ring is free at this
// model's granularity).
//
// A slot keeps only the fields CrashReport::ToString prints — time, type,
// pid, cpu, resp0 — plus kthread; seq is the slot's position in the append
// order. That keeps the per-call write at 32 bytes instead of a full
// RecordEntry's 96.
class FlightRecorder {
 public:
  // Capacity must be a power of two: Append indexes the ring with a mask.
  explicit FlightRecorder(size_t capacity = 64) : ring_(capacity), mask_(capacity - 1) {
    ENOKI_CHECK_MSG(capacity > 0 && (capacity & mask_) == 0,
                    "FlightRecorder capacity must be a power of two");
  }

  void Append(Time now, RecordType type, int cpu, uint64_t pid, uint64_t resp0) {
    Slot& slot = ring_[seq_++ & mask_];
    slot.time = now;
    slot.pid = pid;
    slot.resp0 = resp0;
    slot.cpu = static_cast<int16_t>(cpu);
    slot.kthread = static_cast<int16_t>(GetCurrentKthread());
    slot.type = type;
  }

  // Oldest-to-newest snapshot of the retained tail, at most `max_entries`:
  // RecordEntrys holding the kept fields, every other field zero.
  std::vector<RecordEntry> Tail(size_t max_entries) const;

  uint64_t appended() const { return seq_; }
  size_t capacity() const { return ring_.size(); }

 private:
  // cpu and kthread fit 16 bits: SchedCore caps the machine at
  // CpuMask::kMaxCpus CPUs, and the runtime sets the kthread to the CPU id.
  static_assert(CpuMask::kMaxCpus <= INT16_MAX);
  struct Slot {
    Time time = 0;
    uint64_t pid = 0;
    uint64_t resp0 = 0;
    int16_t cpu = -1;
    int16_t kthread = 0;
    RecordType type{};
  };
  static_assert(sizeof(Slot) == 32);

  std::vector<Slot> ring_;
  uint64_t mask_;
  uint64_t seq_ = 0;
};

class Recorder : public LockHooks {
 public:
  explicit Recorder(size_t ring_capacity);

  // Producer side (scheduler context): stamps seq/kthread, pushes to ring.
  void Append(RecordEntry entry);

  // LockHooks: lock events become record entries.
  void OnLockCreate(uint64_t lock_id) override;
  void OnLockAcquire(uint64_t lock_id) override;
  void OnLockRelease(uint64_t lock_id) override;

  // Consumer side (the userspace record task): moves ring contents to the
  // log. Returns the number of entries drained.
  size_t Drain();

  // The recorder's notion of "now", which stamps every entry. The runtime
  // sets it before the module runs, for each call and each ladder step that
  // enters the module (checkpoint save, restore, reregister), so the lock
  // entries the module's shim locks append carry the time of the call or
  // step that took the lock.
  void SetTime(Time t) { time_ = t; }

  const std::vector<RecordEntry>& log() const { return log_; }
  std::vector<RecordEntry> TakeLog();
  uint64_t dropped() const { return ring_.dropped(); }
  uint64_t appended() const { return appended_; }

  // Text serialization, one entry per line: the record file the replay
  // utility consumes. A record file is untrusted input: LoadFromFile returns
  // false, with `out` empty, on a line that is not exactly fourteen fields or
  // that names no RecordType.
  bool SaveToFile(const std::string& path) const;
  static bool LoadFromFile(const std::string& path, std::vector<RecordEntry>* out);

 private:
  RingBuffer<RecordEntry> ring_;
  std::vector<RecordEntry> log_;
  uint64_t next_seq_ = 1;
  uint64_t appended_ = 0;
  Time time_ = 0;
};

}  // namespace enoki

#endif  // SRC_ENOKI_RECORD_H_

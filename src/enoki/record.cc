#include "src/enoki/record.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "src/enoki/call_codec.h"

namespace enoki {

std::vector<RecordEntry> FlightRecorder::Tail(size_t max_entries) const {
  const uint64_t stored = seq_ < ring_.size() ? seq_ : ring_.size();
  const uint64_t n = stored < max_entries ? stored : max_entries;
  std::vector<RecordEntry> out;
  out.reserve(n);
  for (uint64_t i = seq_ - n; i < seq_; ++i) {
    const Slot& slot = ring_[i & mask_];
    RecordEntry& e = out.emplace_back();
    e.seq = i + 1;
    e.time = slot.time;
    e.kthread = slot.kthread;
    e.type = slot.type;
    e.pid = slot.pid;
    e.cpu = slot.cpu;
    e.resp0 = slot.resp0;
  }
  return out;
}

Recorder::Recorder(size_t ring_capacity)
    : ring_(RingBuffer<RecordEntry>::RoundUpPow2(ring_capacity)) {}

void Recorder::Append(RecordEntry entry) {
  entry.seq = next_seq_++;
  entry.time = time_;
  entry.kthread = GetCurrentKthread();
  ++appended_;
  ring_.Push(entry);
}

void Recorder::OnLockCreate(uint64_t lock_id) {
  Append(EncodeLock<RecordEntry>(RecordType::kLockCreate, lock_id));
}

void Recorder::OnLockAcquire(uint64_t lock_id) {
  Append(EncodeLock<RecordEntry>(RecordType::kLockAcquire, lock_id));
}

void Recorder::OnLockRelease(uint64_t lock_id) {
  Append(EncodeLock<RecordEntry>(RecordType::kLockRelease, lock_id));
}

size_t Recorder::Drain() {
  size_t n = 0;
  while (auto e = ring_.Pop()) {
    log_.push_back(*e);
    ++n;
  }
  return n;
}

std::vector<RecordEntry> Recorder::TakeLog() {
  Drain();
  return std::move(log_);
}

bool Recorder::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const RecordEntry& e : log_) {
    std::fprintf(f,
                 "%" PRIu64 " %" PRIu64 " %d %u %" PRIu64 " %d %" PRIu64 " %" PRIu64 " %" PRIu64
                 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d\n",
                 e.seq, e.time, e.kthread, static_cast<unsigned>(e.type), e.pid, e.cpu, e.runtime,
                 e.arg[0], e.arg[1], e.arg[2], e.arg[3], e.resp0, e.has_resp ? 1 : 0,
                 e.flag ? 1 : 0);
  }
  std::fclose(f);
  return true;
}

bool Recorder::LoadFromFile(const std::string& path, std::vector<RecordEntry>* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  out->clear();
  std::string line;
  while (std::getline(in, line)) {
    RecordEntry e;
    unsigned type = 0;
    int has_resp = 0;
    int flag = 0;
    int end = 0;
    const bool parsed =
        std::sscanf(line.c_str(),
                    "%" SCNu64 " %" SCNu64 " %d %u %" SCNu64 " %d %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %d %d %n",
                    &e.seq, &e.time, &e.kthread, &type, &e.pid, &e.cpu, &e.runtime,
                    &e.arg[0], &e.arg[1], &e.arg[2], &e.arg[3], &e.resp0, &has_resp, &flag,
                    &end) == 14 &&
        static_cast<size_t>(end) == line.size();
    if (!parsed || !IsRecordType(type)) {
      out->clear();
      return false;
    }
    e.type = static_cast<RecordType>(type);
    e.has_resp = has_resp != 0;
    e.flag = flag != 0;
    out->push_back(e);
  }
  return true;
}

}  // namespace enoki

// Checkpoints: versioned, checksummed snapshots of a module's accounting
// state, taken at upgrade boundaries and consumed by the recovery ladder
// (probation rollback and supervised restart — see DESIGN.md).
//
// A checkpoint deliberately captures *less* than a live-upgrade
// TransferState: only the module's own accounting (weights, virtual times,
// placement cursors), never queue membership and never Schedulable tokens.
// The runtime's kernel-side bookkeeping is authoritative for those; after a
// restore it re-injects every queued task as a wakeup with a freshly minted
// token, so a checkpoint can never smuggle a stale proof back into a module.
//
// The payload is a sequence of little-endian u64 words. No policy reads or
// writes them itself: each names its accounting fields once, in payload
// order and with a fold rule, to a CheckpointArchive. The same field list
// drives three passes:
//   save    — write each field;
//   check   — decode and validate the whole payload, writing nothing;
//   commit  — decode again and write the fields, once check has passed.
// So a refused load leaves the module exactly as it was. The archive owns
// what every loader would otherwise repeat: the accepted versions
// (1..CheckpointVersion()), the bounds on counts, pids and CPU indices, the
// cross-machine fold rules, and failing once on overrun.
//
// Seal() computes an FNV-1a checksum over the payload folded with every
// metadata field (format version, sequence, capture time, saver
// fingerprint); Valid() recomputes it. Folding the metadata means a stale
// generation replayed into a different ring slot — same payload, forged
// sequence — fails Valid() instead of being silently accepted. The runtime
// refuses to hand a checkpoint that fails Valid() to LoadCheckpoint at all —
// corruption is detected, not deserialized.
//
// CheckpointStore keeps a small ring of the K newest sealed generations.
// Restore walks it newest→oldest, dropping generations that fail Valid() or
// that the module refuses to load, so one rotted slot costs a bounded window
// of accounting instead of the whole restore.

#ifndef SRC_ENOKI_CHECKPOINT_H_
#define SRC_ENOKI_CHECKPOINT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/time.h"

namespace enoki {

// Append-only little-endian serializer for checkpoint payloads.
class ByteWriter {
 public:
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Bounds-checked reader. Every read reports success; once a read runs past
// the end the reader is poisoned and all further reads fail, so a truncated
// payload cannot produce partially-garbage values silently.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : b_(&bytes) {}

  bool U32(uint32_t* out) {
    uint64_t v = 0;
    if (!Raw(4, &v)) {
      return false;
    }
    *out = static_cast<uint32_t>(v);
    return true;
  }
  bool U64(uint64_t* out) { return Raw(8, out); }

  bool AtEnd() const { return pos_ >= b_->size(); }
  bool overrun() const { return overrun_; }
  size_t remaining() const { return overrun_ ? 0 : b_->size() - pos_; }

 private:
  bool Raw(size_t n, uint64_t* out) {
    if (overrun_ || b_->size() - pos_ < n) {
      overrun_ = true;
      return false;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>((*b_)[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    *out = v;
    return true;
  }

  const std::vector<uint8_t>* b_;
  size_t pos_ = 0;
  bool overrun_ = false;
};

// One pass over a policy's checkpoint field list. The policy's
// CheckpointFields(CheckpointArchive*) names each field once, in payload
// order, with its rule; saving, checking and committing all run that list.
//
// Rules, including how they fold a payload saved on another machine shape:
//   Word, NonZero  a scalar; NonZero for sequence cursors and weights;
//   Ordered        two words, the second not below the first (a clock pair);
//   Cpu            a CPU index, at most kMaxCpus, remapped % live;
//   Array          words: kExact (length must match), or one per CPU folded
//                  onto cpu % live by kMin (CPUs nothing folds onto start at
//                  the saved minimum) or kMax (they start cold at 0);
//   Elements       1..max_len entries: extra saved entries are dropped,
//                  live entries past the saved ones keep their value;
//   PidTable, Map  saved in ascending pid/key order, replaced on load.
// Pids lie in 1..kMaxPid and entry counts are at most kMaxEntries. Rules
// validate the words they decode, never the fields they would write, and
// only a commit pass writes through the pointers it is handed. Element
// visitors see a local copy of the element.
class CheckpointArchive {
 public:
  static constexpr uint64_t kMaxPid = uint64_t{1} << 24;
  static constexpr uint64_t kMaxEntries = uint64_t{1} << 24;
  static constexpr uint64_t kMaxCpus = 4096;

  enum class Fold { kExact, kMin, kMax };
  enum class Key { kAny, kPid };

  CheckpointArchive(ByteWriter* out, uint32_t version) : out_(out), version_(version) {}
  CheckpointArchive(ByteReader* in, uint32_t version, bool commit)
      : in_(in), version_(version), commit_(commit) {}

  uint32_t version() const { return version_; }
  bool ok() const { return ok_; }

  template <typename T>
  void Word(T* v) {
    Scalar(v, 0);
  }
  template <typename T>
  void NonZero(T* v) {
    Scalar(v, 1);
  }

  template <typename T>
  void Ordered(T* lo, T* hi) {
    const uint64_t a = Io(*lo);
    const uint64_t b = Io(*hi);
    Check(b >= a);
    if (Storing()) {
      *lo = static_cast<T>(a);
      *hi = static_cast<T>(b);
    }
  }

  template <typename T>
  void Cpu(T* cpu, size_t live) {
    const uint64_t raw = Io(static_cast<uint64_t>(*cpu));
    Check(raw <= kMaxCpus && live > 0);
    if (Storing()) {
      *cpu = static_cast<T>(raw % live);
    }
  }

  void Array(std::vector<uint64_t>* v, Fold fold) {
    const size_t live = v->size();
    const uint64_t n = fold == Fold::kExact ? Count(live, live, live) : Count(live, 1, kMaxCpus);
    if (saving()) {
      for (uint64_t x : *v) {
        Io(x);
      }
      return;
    }
    Check(live > 0);
    std::vector<uint64_t> folded(live, fold == Fold::kMin ? ~uint64_t{0} : 0);
    uint64_t lowest = ~uint64_t{0};
    for (uint64_t i = 0; i < n && ok_; ++i) {
      const uint64_t x = Io(0);
      uint64_t& slot = folded[i % live];
      slot = fold == Fold::kMin ? std::min(slot, x) : fold == Fold::kMax ? std::max(slot, x) : x;
      lowest = std::min(lowest, x);
    }
    if (fold == Fold::kMin) {
      std::replace(folded.begin(), folded.end(), ~uint64_t{0}, lowest);
    }
    if (Storing()) {
      *v = std::move(folded);
    }
  }

  template <typename T, typename Visit>
  void Elements(std::vector<T>* v, uint64_t max_len, Visit visit) {
    const uint64_t n = Count(v->size(), 1, max_len);
    for (uint64_t i = 0; i < n && ok_; ++i) {
      T local = i < v->size() ? (*v)[i] : T{};
      visit(&local);
      if (Storing() && i < v->size()) {
        (*v)[i] = std::move(local);
      }
    }
  }

  template <typename T, typename Live, typename Visit>
  void PidTable(std::vector<T>* table, Live live, const T& fresh, Visit visit) {
    if (saving()) {
      Io(static_cast<uint64_t>(std::count_if(table->begin(), table->end(), live)));
      for (uint64_t pid = 0; pid < table->size(); ++pid) {
        if (live((*table)[pid])) {
          Io(pid);
          visit(&(*table)[pid]);
        }
      }
      return;
    }
    const uint64_t n = Count(0, 0, kMaxEntries);
    if (Storing()) {
      table->clear();
    }
    for (uint64_t i = 0; i < n && ok_; ++i) {
      const uint64_t pid = Io(0);
      Check(pid >= 1 && pid <= kMaxPid);
      T local = fresh;
      visit(&local);
      if (Storing()) {
        if (pid >= table->size()) {
          table->resize(pid + 1);
        }
        (*table)[pid] = std::move(local);
      }
    }
  }

  template <typename K, typename V, typename Visit>
  void Map(std::unordered_map<K, V>* map, Key key, Visit visit) {
    if (saving()) {
      std::vector<K> keys;
      for (const auto& kv : *map) {
        keys.push_back(kv.first);
      }
      std::sort(keys.begin(), keys.end());
      Io(keys.size());
      for (const K& k : keys) {
        Io(static_cast<uint64_t>(k));
        visit(&map->find(k)->second);
      }
      return;
    }
    const uint64_t n = Count(0, 0, kMaxEntries);
    if (Storing()) {
      map->clear();
    }
    for (uint64_t i = 0; i < n && ok_; ++i) {
      const uint64_t k = Io(0);
      Check(key == Key::kAny || (k >= 1 && k <= kMaxPid));
      V local{};
      visit(&local);
      if (Storing()) {
        (*map)[static_cast<K>(k)] = std::move(local);
      }
    }
  }

 private:
  bool saving() const { return out_ != nullptr; }

  // Saving writes `v` and returns it; loading returns the next word, or 0
  // once the payload has run out (which fails the load).
  uint64_t Io(uint64_t v) {
    if (saving()) {
      out_->U64(v);
      return v;
    }
    if (!ok_ || !in_->U64(&v)) {
      ok_ = false;
      return 0;
    }
    return v;
  }

  template <typename T>
  void Scalar(T* v, uint64_t lo) {
    const uint64_t raw = Io(static_cast<uint64_t>(*v));
    Check(raw >= lo);
    if (Storing()) {
      *v = static_cast<T>(raw);
    }
  }

  uint64_t Count(uint64_t saved, uint64_t lo, uint64_t hi) {
    const uint64_t n = Io(saved);
    Check(saving() || (n >= lo && n <= hi));
    return ok_ ? n : 0;
  }

  void Check(bool valid) { ok_ = ok_ && valid; }
  bool Storing() const { return ok_ && commit_; }

  ByteWriter* out_ = nullptr;
  ByteReader* in_ = nullptr;
  const uint32_t version_;
  bool commit_ = false;
  bool ok_ = true;
};

// Saves `obj`'s CheckpointFields() as payload format `version`; false when
// the object does not checkpoint (version 0). The cast lets one field list
// serve a const SaveCheckpoint(): the save pass writes no field.
template <typename T>
bool SaveCheckpointFields(const T* obj, uint32_t version, ByteWriter* out) {
  if (version == 0) {
    return false;
  }
  CheckpointArchive ar(out, version);
  const_cast<T*>(obj)->CheckpointFields(&ar);
  return true;
}

// Loads a payload saved as format `version`, accepted when it lies in
// 1..max_version. The whole payload is decoded and validated before any
// field is written, so a refused load changes nothing.
template <typename T>
bool LoadCheckpointFields(T* obj, uint32_t version, uint32_t max_version, ByteReader* in) {
  if (version == 0 || version > max_version) {
    return false;
  }
  ByteReader ahead = *in;
  CheckpointArchive check(&ahead, version, /*commit=*/false);
  obj->CheckpointFields(&check);
  if (!check.ok()) {
    return false;
  }
  CheckpointArchive commit(in, version, /*commit=*/true);
  obj->CheckpointFields(&commit);
  return commit.ok();
}

// A sealed snapshot of one module's accounting state.
struct Checkpoint {
  uint32_t state_version = 0;  // the module's CheckpointVersion() at save
  uint64_t sequence = 0;       // runtime-assigned, monotonically increasing
  Time taken_at = 0;           // simulated time of the snapshot
  // VersionFingerprint() of the saving module. Restore skips generations
  // whose fingerprint does not match the module being restored, so a
  // cross-policy ring (older generations from a replaced predecessor) can
  // never feed one policy's payload into another policy's loader. 0 means
  // "unknown" (pre-fingerprint fixtures) and matches anything.
  uint64_t module_fingerprint = 0;
  std::vector<uint8_t> bytes;  // payload written by SaveCheckpoint
  uint64_t checksum = 0;       // FNV-1a over all metadata + length + payload

  // The seal covers sequence, taken_at, and module_fingerprint in addition
  // to the version and payload: replaying a stale generation under forged
  // metadata (a different ring slot, a rewritten capture time) breaks the
  // checksum just like flipping a payload byte does.
  uint64_t Fnv1a() const {
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint8_t byte) {
      h ^= byte;
      h *= 1099511628211ull;
    };
    auto mix64 = [&mix](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        mix(static_cast<uint8_t>(v >> (8 * i)));
      }
    };
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<uint8_t>(state_version >> (8 * i)));
    }
    mix64(sequence);
    mix64(static_cast<uint64_t>(taken_at));
    mix64(module_fingerprint);
    mix64(bytes.size());
    for (uint8_t byte : bytes) {
      mix(byte);
    }
    return h;
  }

  void Seal() { checksum = Fnv1a(); }
  bool Valid() const { return checksum == Fnv1a(); }
  size_t size_bytes() const { return bytes.size(); }
};

// A bounded ring of sealed checkpoint generations, newest first. Push
// evicts the oldest generation once `capacity` is reached; the restore walk
// reads (and drops) from the newest end. K is small — eviction is a deque
// pop, and the store is only touched at checkpoint/restore boundaries, never
// on the scheduling hot path.
class CheckpointStore {
 public:
  static constexpr size_t kDefaultCapacity = 4;

  explicit CheckpointStore(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }

  // Resizing below the current population evicts the oldest generations.
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    while (ring_.size() > capacity_) {
      ring_.pop_front();
      ++evicted_;
    }
  }

  bool empty() const { return ring_.empty(); }
  size_t size() const { return ring_.size(); }
  uint64_t pushed() const { return pushed_; }
  uint64_t evicted() const { return evicted_; }

  // Appends a new newest generation, evicting the oldest at capacity.
  void Push(Checkpoint ck) {
    if (ring_.size() == capacity_) {
      ring_.pop_front();
      ++evicted_;
    }
    ring_.push_back(std::move(ck));
    ++pushed_;
  }

  // i = 0 is the newest generation, i = size()-1 the oldest.
  const Checkpoint& FromNewest(size_t i) const { return ring_[ring_.size() - 1 - i]; }
  // Mutable access for fault injection (ring-slot bit-rot) and fixtures.
  Checkpoint* MutableFromNewest(size_t i) { return &ring_[ring_.size() - 1 - i]; }

  const Checkpoint* newest() const { return ring_.empty() ? nullptr : &ring_.back(); }

  // The restore walk discards a generation it rejected (bad checksum, load
  // refusal) so it is never offered twice.
  void DropNewest() {
    if (!ring_.empty()) {
      ring_.pop_back();
    }
  }

  void Clear() { ring_.clear(); }

 private:
  size_t capacity_;
  std::deque<Checkpoint> ring_;
  uint64_t pushed_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace enoki

#endif  // SRC_ENOKI_CHECKPOINT_H_

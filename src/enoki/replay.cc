#include "src/enoki/replay.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/base/log.h"
#include "src/enoki/call_codec.h"

namespace enoki {

namespace {
// The time of the call this thread replays; each call gets a fresh thread.
thread_local std::optional<Time> t_call_time;
}  // namespace

Time ReplayEnv::Now() const {
  return t_call_time.value_or(now_);
}

// Enforces per-lock recorded acquisition order. Lock identity is matched by
// creation order: the Nth lock the replayed module creates corresponds to
// the Nth kLockCreate entry in the trace.
class ReplayEngine::LockOrderHooks : public LockHooks {
 public:
  LockOrderHooks(const std::vector<RecordEntry>& log, int wait_timeout_ms)
      : wait_timeout_ms_(wait_timeout_ms) {
    std::unordered_map<uint64_t, size_t> created;  // recorded id -> creation order
    for (const RecordEntry& e : log) {
      if (e.type == RecordType::kLockCreate) {
        created.emplace(DecodeLock(e), recorded_.size());
        recorded_.emplace_back();
      } else if (e.type == RecordType::kLockAcquire && created.contains(DecodeLock(e))) {
        recorded_[created.at(DecodeLock(e))].order.push_back(e.kthread);
      }
    }
  }

  void OnLockCreate(uint64_t runtime_id) override {
    std::lock_guard<std::mutex> g(mu_);
    if (next_create_ < recorded_.size()) {
      by_runtime_id_[runtime_id] = &recorded_[next_create_++];
    }
  }

  // The recorded turn is *held* from acquire to release: advancing the turn
  // at acquire time would let the next thread race this one to the
  // underlying mutex and invert the critical sections.
  void OnLockAcquire(uint64_t runtime_id) override {
    std::unique_lock<std::mutex> g(mu_);
    Turns* turns = LookUp(runtime_id);
    if (turns == nullptr) {
      return;  // lock unknown to the trace (created outside recording)
    }
    const int me = GetCurrentKthread();
    if (!turns->done() && turns->holder() != me) {
      ++blocks;
      const bool ok = cv_.wait_for(g, std::chrono::milliseconds(wait_timeout_ms_), [&] {
        return turns->done() || turns->holder() == me;
      });
      if (!ok) {
        ++timeouts;  // trace incomplete (e.g. record ring overrun); proceed
        // The turn is still another thread's: skip it so others progress.
        ++turns->next;
        cv_.notify_all();
      }
    }
  }

  void OnLockRelease(uint64_t runtime_id) override {
    std::unique_lock<std::mutex> g(mu_);
    Turns* turns = LookUp(runtime_id);
    if (turns == nullptr) {
      return;
    }
    if (!turns->done() && turns->holder() == GetCurrentKthread()) {
      ++turns->next;
    }
    cv_.notify_all();
  }

  std::atomic<uint64_t> blocks{0};
  std::atomic<uint64_t> timeouts{0};

 private:
  // One recorded lock: the kernel threads that acquired it, in order, and
  // the index of the next turn.
  struct Turns {
    std::vector<int32_t> order;
    size_t next = 0;
    bool done() const { return next >= order.size(); }
    int32_t holder() const { return order[next]; }
  };

  // Caller holds mu_.
  Turns* LookUp(uint64_t runtime_id) {
    auto it = by_runtime_id_.find(runtime_id);
    return it == by_runtime_id_.end() ? nullptr : it->second;
  }

  const int wait_timeout_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Turns> recorded_;  // in creation order
  size_t next_create_ = 0;
  std::unordered_map<uint64_t, Turns*> by_runtime_id_;
};

ReplayEngine::ReplayEngine(std::vector<RecordEntry> log, int ncpus, int max_outstanding,
                           int lock_wait_timeout_ms)
    : log_(std::move(log)),
      env_(ncpus),
      max_outstanding_(max_outstanding),
      lock_wait_timeout_ms_(lock_wait_timeout_ms) {}

ReplayEngine::~ReplayEngine() { SetLockHooks(nullptr); }

void ReplayEngine::InstallHooks() {
  hooks_ = std::make_unique<LockOrderHooks>(log_, lock_wait_timeout_ms_);
  SetLockHooks(hooks_.get());
}

void ReplayEngine::PerformCall(EnokiSched* module, const RecordEntry& e, ReplayResult* result) {
  t_call_time = e.time;
  const CallSpec& spec = SpecOf(e.type);
  uint64_t got = 0;
  spec.replay(module, e, &got);
  if (spec.response == Response::kNoResponse || got == e.resp0) {
    return;
  }
  std::lock_guard<std::mutex> g(result_mu_);
  ++result->response_mismatches;
  ENOKI_DEBUG("replay mismatch at seq %llu (%s): got %llu want %llu",
              static_cast<unsigned long long>(e.seq), spec.name,
              static_cast<unsigned long long>(got), static_cast<unsigned long long>(e.resp0));
}

ReplayResult ReplayEngine::Run(EnokiSched* module) {
  ENOKI_CHECK(hooks_ != nullptr);  // InstallHooks() must precede module construction
  // The module's locks run on real threads below, which only the hooked
  // path of SpinLock::Acquire makes safe (src/enoki/lock.h).
  ENOKI_CHECK(GetLockHooks() == hooks_.get());
  ReplayResult result;

  const auto replay_start = std::chrono::steady_clock::now();

  // Per-kthread serialization: the thread replaying a kthread's nth call
  // starts its call once the one replaying its (n-1)th call finished.
  std::unordered_map<int32_t, std::shared_future<void>> last_done;
  std::deque<std::thread> window;

  for (const RecordEntry& e : log_) {
    if (!IsModuleCall(e.type)) {
      continue;  // lock events order the module's own lock shims; markers name no call
    }
    // A record file is untrusted input: a module indexes its per-CPU state
    // with the CPUs a call names and sizes per-pid tables by the pid.
    if (e.pid > CheckpointArchive::kMaxPid || !CpusInRange(e, env_.NumCpus())) {
      ++result.out_of_range_skipped;
      continue;
    }
    std::promise<void> done;
    std::shared_future<void> prev = std::exchange(last_done[e.kthread], done.get_future().share());
    ++result.calls_replayed;

    if (static_cast<int>(window.size()) >= max_outstanding_) {
      window.front().join();
      window.pop_front();
    }
    window.emplace_back([this, module, &result, e, prev, done = std::move(done)]() mutable {
      SetCurrentKthread(e.kthread);
      if (prev.valid()) {
        prev.wait();
      }
      PerformCall(module, e, &result);
      done.set_value();
    });
  }
  for (std::thread& t : window) {
    t.join();
  }
  SetLockHooks(nullptr);

  result.lock_blocks = hooks_->blocks;
  result.lock_timeouts = hooks_->timeouts;
  result.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - replay_start).count();
  return result;
}

}  // namespace enoki

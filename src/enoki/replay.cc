#include "src/enoki/replay.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "src/base/log.h"

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
    for (const RecordEntry& e : log) {
      if (e.type == RecordType::kLockCreate) {
        create_order_.push_back(e.arg[0]);
      } else if (e.type == RecordType::kLockAcquire) {
        orders_[e.arg[0]].push_back(e.kthread);
      }
    }
  }

  void OnLockCreate(uint64_t runtime_id) override {
    std::lock_guard<std::mutex> g(mu_);
    if (next_create_ < create_order_.size()) {
      id_map_[runtime_id] = create_order_[next_create_++];
    }
  }

  // The recorded turn is *held* from acquire to release: advancing the turn
  // at acquire time would let the next thread race this one to the
  // underlying mutex and invert the critical sections.
  void OnLockAcquire(uint64_t runtime_id) override {
    std::unique_lock<std::mutex> g(mu_);
    const std::vector<int32_t>* seq = nullptr;
    LockState* state = LookUp(runtime_id, &seq);
    if (state == nullptr) {
      return;  // lock unknown to the trace (created outside recording)
    }
    const int me = GetCurrentKthread();
    if (state->next < seq->size() && (*seq)[state->next] != me) {
      ++blocks_;
      const bool ok = cv_.wait_for(g, std::chrono::milliseconds(wait_timeout_ms_), [&] {
        return state->next >= seq->size() || (*seq)[state->next] == me;
      });
      if (!ok) {
        ++timeouts_;  // trace incomplete (e.g. record ring overrun); proceed
        // The predicate was false, so state->next < seq->size(): give up
        // this turn so others can make progress.
        ++state->next;
        cv_.notify_all();
      }
    }
  }

  void OnLockRelease(uint64_t runtime_id) override {
    std::unique_lock<std::mutex> g(mu_);
    const std::vector<int32_t>* seq = nullptr;
    LockState* state = LookUp(runtime_id, &seq);
    if (state == nullptr) {
      return;
    }
    const int me = GetCurrentKthread();
    if (state->next < seq->size() && (*seq)[state->next] == me) {
      ++state->next;
    }
    cv_.notify_all();
  }

  uint64_t blocks() const { return blocks_; }
  uint64_t timeouts() const { return timeouts_; }

 private:
  struct LockState {
    size_t next = 0;  // index of the next recorded acquisition
  };

  // Caller holds mu_.
  LockState* LookUp(uint64_t runtime_id, const std::vector<int32_t>** seq) {
    auto mapped = id_map_.find(runtime_id);
    if (mapped == id_map_.end()) {
      return nullptr;
    }
    auto order = orders_.find(mapped->second);
    if (order == orders_.end()) {
      return nullptr;
    }
    *seq = &order->second;
    return &states_[mapped->second];
  }

  const int wait_timeout_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> create_order_;
  size_t next_create_ = 0;
  std::unordered_map<uint64_t, uint64_t> id_map_;  // runtime id -> recorded id
  std::unordered_map<uint64_t, std::vector<int32_t>> orders_;
  std::unordered_map<uint64_t, LockState> states_;
  std::atomic<uint64_t> blocks_{0};
  std::atomic<uint64_t> timeouts_{0};
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

namespace {

TaskMessage MsgFrom(const RecordEntry& e) {
  TaskMessage msg;
  msg.pid = e.pid;
  msg.cpu = e.cpu;
  msg.prev_cpu = e.cpu;
  msg.runtime = e.runtime;
  msg.nice = static_cast<int>(e.arg[0]) + kMinNice;
  msg.wake_sync = e.flag;
  return msg;
}

// Whether every CPU a recorded call hands the module exists on an
// `ncpus`-CPU machine and its pid is at most kMaxPid. A record file is
// untrusted input: a module indexes its per-CPU state with the CPUs and
// sizes per-pid tables by the pid. Selection may carry prev_cpu -1 (a new
// task); the per-task notifications name no CPU the module indexes.
bool InRange(const RecordEntry& e, int ncpus) {
  if (e.pid > CheckpointArchive::kMaxPid) {
    return false;
  }
  switch (e.type) {
    case RecordType::kTaskNew:
    case RecordType::kTaskWakeup:
    case RecordType::kTaskPreempt:
    case RecordType::kTaskYield:
    case RecordType::kPickNextTask:
    case RecordType::kPntErr:
    case RecordType::kBalance:
    case RecordType::kBalanceErr:
    case RecordType::kTaskTick:
    case RecordType::kTimerFired:
      return e.cpu >= 0 && e.cpu < ncpus;
    case RecordType::kMigrateTaskRq:
      return e.cpu >= 0 && e.cpu < ncpus && e.arg[0] < static_cast<uint64_t>(ncpus);
    case RecordType::kSelectTaskRq:
      return e.cpu >= -1 && e.cpu < ncpus;
    default:
      return true;
  }
}

bool IsLockEntry(RecordType t) {
  return t == RecordType::kLockCreate || t == RecordType::kLockAcquire ||
         t == RecordType::kLockRelease;
}

}  // namespace

void ReplayEngine::PerformCall(EnokiSched* module, const RecordEntry& e, ReplayResult* result) {
  t_call_time = e.time;
  uint64_t got = 0;
  bool check = false;
  switch (e.type) {
    case RecordType::kTaskNew:
      module->TaskNew(MsgFrom(e), SchedulableMinter::Mint(e.pid, e.cpu, 0));
      break;
    case RecordType::kTaskWakeup:
      module->TaskWakeup(MsgFrom(e), SchedulableMinter::Mint(e.pid, e.cpu, 0));
      break;
    case RecordType::kTaskBlocked:
      module->TaskBlocked(MsgFrom(e));
      break;
    case RecordType::kTaskPreempt:
      module->TaskPreempt(MsgFrom(e), SchedulableMinter::Mint(e.pid, e.cpu, 0));
      break;
    case RecordType::kTaskYield:
      module->TaskYield(MsgFrom(e), SchedulableMinter::Mint(e.pid, e.cpu, 0));
      break;
    case RecordType::kTaskDead:
      module->TaskDead(e.pid);
      break;
    case RecordType::kTaskDeparted: {
      auto token = module->TaskDeparted(MsgFrom(e));
      got = token.has_value() ? token->pid() : 0;
      check = true;
      break;
    }
    case RecordType::kPickNextTask: {
      auto token = module->PickNextTask(e.cpu, std::nullopt);
      got = token.has_value() ? token->pid() : 0;
      check = true;
      break;
    }
    case RecordType::kPntErr:
      module->PntErr(e.cpu, SchedulableMinter::Mint(e.pid, e.cpu, 0));
      break;
    case RecordType::kSelectTaskRq: {
      TaskMessage msg = MsgFrom(e);
      msg.is_new = e.arg[1] != 0;
      got = static_cast<uint64_t>(module->SelectTaskRq(msg));
      check = true;
      break;
    }
    case RecordType::kMigrateTaskRq: {
      MigrateMessage mig;
      mig.pid = e.pid;
      mig.from_cpu = static_cast<int>(e.arg[0]);
      mig.to_cpu = e.cpu;
      mig.runtime = e.runtime;
      Schedulable old = module->MigrateTaskRq(mig, SchedulableMinter::Mint(e.pid, e.cpu, 0));
      got = old.valid() ? old.pid() : 0;
      check = true;
      break;
    }
    case RecordType::kBalance: {
      auto pid = module->Balance(e.cpu);
      got = pid.value_or(0);
      check = true;
      break;
    }
    case RecordType::kBalanceErr:
      module->BalanceErr(e.cpu, e.pid, std::nullopt);
      break;
    case RecordType::kTaskTick:
      module->TaskTick(e.cpu, e.pid, e.runtime);
      break;
    case RecordType::kTimerFired:
      module->TimerFired(e.cpu);
      break;
    case RecordType::kParseHint: {
      HintBlob hint;
      hint.w[0] = e.arg[0];
      hint.w[1] = e.arg[1];
      hint.w[2] = e.arg[2];
      hint.w[3] = e.arg[3];
      module->ParseHint(hint);
      break;
    }
    case RecordType::kAffinityChanged:
      module->TaskAffinityChanged(e.pid, CpuMask::FromWords(e.arg[0], e.arg[1]));
      break;
    case RecordType::kPrioChanged:
      module->TaskPrioChanged(e.pid, static_cast<int>(e.arg[0]) + kMinNice);
      break;
    case RecordType::kLockCreate:
    case RecordType::kLockAcquire:
    case RecordType::kLockRelease:
      break;  // driven by the module's own lock shims
    case RecordType::kUpgrade:
    case RecordType::kUpgradeRollback:
    case RecordType::kModuleRestart:
    case RecordType::kShardMerge:
    case RecordType::kCheckpointSave:
    case RecordType::kCheckpointRestore:
      break;  // lifecycle/engine markers; replay runs a single module instance
  }
  if (check) {
    std::lock_guard<std::mutex> g(result_mu_);
    if (got != e.resp0) {
      ++result->response_mismatches;
      ENOKI_DEBUG("replay mismatch at seq %llu (%s): got %llu want %llu",
                  static_cast<unsigned long long>(e.seq), RecordTypeName(e.type),
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(e.resp0));
    }
  }
}

ReplayResult ReplayEngine::Run(EnokiSched* module) {
  ENOKI_CHECK(hooks_ != nullptr);  // InstallHooks() must precede module construction
  ReplayResult result;

  const auto replay_start = std::chrono::steady_clock::now();

  // Per-kthread serialization: thread n for kthread k starts only after
  // thread n-1 for k completed.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  std::unordered_map<int32_t, std::shared_ptr<Gate>> last_gate;
  std::deque<std::thread> window;

  for (const RecordEntry& e : log_) {
    if (IsLockEntry(e.type)) {
      continue;
    }
    if (!InRange(e, env_.NumCpus())) {
      ++result.out_of_range_skipped;
      continue;
    }
    std::shared_ptr<Gate> prev = last_gate.count(e.kthread) ? last_gate[e.kthread] : nullptr;
    auto gate = std::make_shared<Gate>();
    last_gate[e.kthread] = gate;
    ++result.calls_replayed;

    if (static_cast<int>(window.size()) >= max_outstanding_) {
      window.front().join();
      window.pop_front();
    }
    window.emplace_back([this, module, &result, e, prev, gate] {
      SetCurrentKthread(e.kthread);
      if (prev != nullptr) {
        std::unique_lock<std::mutex> g(prev->mu);
        prev->cv.wait(g, [&] { return prev->done; });
      }
      PerformCall(module, e, &result);
      {
        std::lock_guard<std::mutex> g(gate->mu);
        gate->done = true;
      }
      gate->cv.notify_all();
    });
  }
  for (std::thread& t : window) {
    t.join();
  }
  SetLockHooks(nullptr);

  result.lock_blocks = hooks_->blocks();
  result.lock_timeouts = hooks_->timeouts();
  result.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - replay_start).count();
  return result;
}

}  // namespace enoki

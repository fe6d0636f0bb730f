// ShardedEventLoop: conservative parallel discrete-event engine with a
// deterministic cross-shard merge.
//
// One simulation run is split into K shards, each owning a private EventLoop
// (express lane + heap + slab pool) and, by convention, one NUMA-node group
// of the simulated machine (see MachineSpec::ShardSpec). Shards execute
// epochs in parallel on up to T host threads; cross-shard interactions
// (wakeup on a remote node, steal, IPI-like pulses) go through bounded
// per-shard outboxes and are committed between epochs by a single
// deterministic merge rule. The headline property is determinism-by-construction:
//
//   ENOKI_SHARD_THREADS=1..T produces byte-identical runs.
//
// Epoch protocol (conservative PDES with lookahead = epoch_ns):
//
//   1. All shards run independently to a shared horizon H' = H + epoch_ns.
//      Within the window each shard is strictly single-threaded and
//      deterministic on its own loop.
//   2. Cross-shard messages carry latency >= epoch_ns, so a message sent at
//      t in [H, H'] delivers at t + latency >= H + epoch_ns >= H' — never
//      inside the window that produced it. Shards therefore cannot observe
//      each other mid-epoch, and the parallel execution is race-free by
//      construction (each loop is touched by exactly one thread per epoch;
//      the epoch barrier orders the hand-off).
//   3. Each epoch ends in one symmetric barrier that all T threads pass, the
//      caller included; nothing runs serially between epochs. After it, every
//      thread reads every thread's published slot and commits the messages
//      in sorted (deliver_time, src_shard, src_seq) order. The sort key is a
//      total order independent of which thread ran which shard when, so the
//      insertion sequence numbers the destination loops assign — and hence
//      all downstream tie-breaking — are identical for every T.
//   4. Owner-side peek and commit: every cross-shard message is one mailbox
//      header (deliver_time, src_shard, dst_shard, src_seq, payload index),
//      pushed by the sending shard's thread into its own padded slot, next to
//      the post-run PeekTime and event count of the shards it runs. After the
//      barrier each thread inserts the messages committed to its shards (the
//      global order restricted to each destination: the same per-loop
//      ScheduleAt sequence a serial commit makes) and derives the next
//      horizon, leap flag and controller window from all slots itself. Every
//      thread reads the same inputs, so all derive the same schedule. Thread
//      0 alone folds the global order into MergeFingerprint and counts the
//      profile. Slots and payload buffers alternate by epoch parity: a fast
//      thread publishes epoch n+1 into the other parity while a slow one
//      still reads epoch n, and an owner clears a buffer only after the next
//      barrier, which proves every reader is done with it.
//
// When every shard is quiet the horizon leaps directly to the global next
// event time (minus one window) instead of stepping epoch-by-epoch; this is
// safe because no event exists in the skipped span, and it makes idle
// stretches free.
//
// Adaptive epochs (Options::adaptive_epochs): a deterministic EpochController
// widens or narrows the *effective* window between epochs, from committed
// simulation state only — cross-shard message rate, idle-leap frequency, and
// event density over a sliding window of epochs. Wider windows amortize the
// barrier over more events; narrower windows protect the bounded outboxes
// under cross-shard pressure. The clamp invariant that keeps the lookahead
// argument intact: the window never exceeds the minimum cross-shard latency
// registered via RegisterCrossLatency (and never drops below a floor of
// epoch_ns / 4). The controller decides once per kControllerPeriod epochs. All
// controller inputs are byte-identical across host thread counts, so the
// window schedule — and therefore the run — still is too.
//
// With K=1 the engine degrades to a zero-overhead forwarder around the plain
// EventLoop — benchmarks comparing "sharded vs unsharded" compare against
// the true single-threaded hot path.

#ifndef SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_
#define SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/base/check.h"
#include "src/base/profile.h"
#include "src/base/time.h"
#include "src/simkernel/event_loop.h"

namespace enoki {

// Deterministic per-epoch window controller. Fed one sample per *committed*
// epoch; every `period` samples it makes one decision:
//
//         ┌─────────────────────────────────────────────────┐
//         │                   HOLD (start)                  │
//         └─────────────────────────────────────────────────┘
//    msgs/epoch ≥ slots/4 │        │ leaps ≥ period/2  │ dense & headroom
//            ▼            │        ▼                   ▼
//         NARROW (w /= 2) │      HOLD          WIDEN (w *= 2)
//
//  1. NARROW when committed cross-shard messages per epoch approach the
//     bounded outbox capacity (≥ slots/4): halve the window (clamped to
//     `floor`) so one epoch's traffic cannot overflow a mailbox — overflow
//     is a checked error, so pressure must be relieved before the cliff.
//  2. HOLD when idle-leap epochs dominate the window (≥ half): the engine is
//     leaping over idle spans, so window width is already irrelevant and
//     drifting it would only add noise.
//  3. WIDEN when the epochs are dense (events/epoch ≥ widen_density) and
//     cross traffic has ample headroom (msgs/epoch ≤ slots/8): double the
//     window (clamped to `ceiling`) to amortize the barrier over more events.
//
// Every input is a pure function of the simulation (committed counts), never
// of host timing, so decision sequences are identical for any thread count.
// The ceiling is the lookahead clamp: callers must set it no higher than the
// minimum registered cross-shard latency.
class EpochController {
 public:
  struct Config {
    Duration floor = 0;
    Duration ceiling = 0;
    int period = 8;                // epochs per decision
    size_t mailbox_slots = 4096;   // NARROW threshold base
    uint64_t widen_density = 16;   // events/epoch needed to WIDEN
  };

  explicit EpochController(Config cfg) : cfg_(cfg) {
    ENOKI_CHECK(cfg.floor > 0 && cfg.ceiling >= cfg.floor && cfg.period > 0);
  }

  // Records one committed epoch and returns the window for the next one.
  Duration OnEpoch(Duration window, uint64_t committed_msgs, uint64_t events, bool leapt) {
    msgs_ += committed_msgs;
    events_ += events;
    leaps_ += leapt ? 1 : 0;
    if (++samples_ < cfg_.period) {
      return Clamp(window);
    }
    const uint64_t period = static_cast<uint64_t>(cfg_.period);
    const uint64_t avg_msgs = msgs_ / period;
    const uint64_t avg_events = events_ / period;
    const bool leap_dominated = leaps_ * 2 >= period;
    msgs_ = events_ = leaps_ = 0;
    samples_ = 0;
    if (avg_msgs * 4 >= cfg_.mailbox_slots) {
      const Duration w = Clamp(window / 2);
      narrows_ += (w != window) ? 1 : 0;
      return w;
    }
    if (leap_dominated) {
      return Clamp(window);
    }
    if (avg_events >= cfg_.widen_density && avg_msgs * 8 <= cfg_.mailbox_slots) {
      const Duration w = Clamp(window * 2);
      widens_ += (w != window) ? 1 : 0;
      return w;
    }
    return Clamp(window);
  }

  uint64_t widens() const { return widens_; }
  uint64_t narrows() const { return narrows_; }

 private:
  Duration Clamp(Duration w) const { return std::clamp(w, cfg_.floor, cfg_.ceiling); }

  const Config cfg_;
  uint64_t msgs_ = 0;
  uint64_t events_ = 0;
  uint64_t leaps_ = 0;
  int samples_ = 0;
  uint64_t widens_ = 0;
  uint64_t narrows_ = 0;
};

class ShardedEventLoop {
 public:
  struct Options {
    int nshards = 1;
    // Lookahead: epoch width and the minimum cross-shard latency. 20 us is
    // several times the simulated IPI + idle-exit cost, so remote wakeups
    // modelled through PostCross stay physically plausible.
    Duration epoch_ns = 20'000;
    // Host threads. 0 = take ENOKI_SHARD_THREADS from the environment
    // (default 1). Clamped to [1, nshards]. Thread count never affects
    // simulation output, only wall-clock.
    int threads = 0;
    // Adaptive epochs: let an EpochController retune the effective window
    // between epochs. epoch_ns becomes the *initial* window; the controller
    // moves it within [max(epoch_ns / 4, 1), min registered cross-shard
    // latency].
    bool adaptive_epochs = false;
  };

  // Per-shard outbox capacity (messages per epoch per shard). Overflow is a
  // checked error, not a drop — dropping would make output depend on timing.
  static constexpr size_t kMailboxSlots = 65536;
  // Epochs per controller decision (its sliding stats window).
  static constexpr int kControllerPeriod = 8;

  explicit ShardedEventLoop(Options opts) : opts_(opts), sched_(opts.epoch_ns) {
    ENOKI_CHECK(opts.nshards >= 1);
    ENOKI_CHECK(opts.epoch_ns > 0);
    threads_ = ResolveThreads(opts.threads, opts.nshards);
    slots_ = std::vector<Slot>(2 * static_cast<size_t>(threads_));
    shards_.reserve(static_cast<size_t>(opts.nshards));
    for (int i = 0; i < opts.nshards; ++i) {
      shards_.push_back(std::make_unique<Shard>(&slot(Owner(i), 0)));
    }
    // Thread j runs the shards with index % threads == j; the calling thread
    // is thread 0. Static partitioning keeps shard state on one core and is
    // fair when shards are symmetric, which NUMA-node shards are.
    for (int j = 1; j < threads_; ++j) {
      workers_.emplace_back([this, j] { WorkerMain(j); });
    }
  }

  ~ShardedEventLoop() {
    stop_ = true;
    Barrier(sched_);  // the workers wait here for the next run call
    for (auto& w : workers_) {
      w.join();
    }
  }

  ShardedEventLoop(const ShardedEventLoop&) = delete;
  ShardedEventLoop& operator=(const ShardedEventLoop&) = delete;

  int nshards() const { return opts_.nshards; }
  int threads() const { return threads_; }
  Duration epoch_ns() const { return opts_.epoch_ns; }
  // Current effective window (== epoch_ns until an adaptive controller moves
  // it).
  Duration window_ns() const { return sched_.window; }
  EventLoop& shard(int i) { return shards_[static_cast<size_t>(i)]->loop; }

  // Committed horizon: no shard has unexecuted events at or before this time.
  Time now() const { return sched_.now; }

  // Declares that every future PostCross through this engine carries at
  // least `latency`. Must be called before the first epoch runs. The
  // adaptive controller may then widen the window up to the smallest
  // registered latency — the clamp that keeps the lookahead argument (no
  // message lands inside the window that sent it) intact. Static mode
  // ignores registrations; the fixed epoch_ns bound already holds.
  void RegisterCrossLatency(Duration latency) {
    ENOKI_CHECK_MSG(prof_.epochs == 0, "RegisterCrossLatency after the engine started");
    ENOKI_CHECK_MSG(latency >= opts_.epoch_ns,
                    "registered cross-shard latency below the base epoch window");
    min_cross_latency_ = std::min(min_cross_latency_, latency);
  }

  // Barrier/merge/controller counters, as thread 0 saw them. Count-type
  // fields are deterministic across hosts and thread counts; *_ns fields
  // are wall-clock.
  ShardProfile profile() const {
    ShardProfile p = prof_;
    if (sched_.controller) {
      p.widens = sched_.controller->widens();
      p.narrows = sched_.controller->narrows();
    }
    return p;
  }

  // Sum of the per-shard queue profiles (lane hits and spills, slab growth).
  WheelProfile WheelProfileSum() const {
    WheelProfile sum;
    for (const auto& sh : shards_) {
      sum.MergeFrom(sh->loop.wheel_profile());
    }
    return sum;
  }

  // Sends work across a shard boundary: `fn` runs on shard `dst`'s loop at
  // (send time + latency). Must be called from shard `src`'s execution
  // context (its callbacks), which is single-threaded per epoch. Cross-shard
  // latency must be >= epoch_ns — that inequality is the entire correctness
  // argument for running shards in parallel. Same-shard posts have no floor
  // and schedule directly.
  void PostCross(int src, int dst, Duration latency, std::function<void()> fn) {
    ENOKI_CHECK(src >= 0 && src < opts_.nshards && dst >= 0 && dst < opts_.nshards);
    Shard& s = *shards_[static_cast<size_t>(src)];
    if (dst == src) {
      s.loop.ScheduleAfter(latency, std::move(fn));
      return;
    }
    ENOKI_CHECK_MSG(latency >= LookaheadBound(),
                    "cross-shard latency below the epoch lookahead bound "
                    "(adaptive mode: register the smallest latency in use)");
    std::vector<std::function<void()>>& subs = s.subs[s.parity];
    ENOKI_CHECK_MSG(subs.size() < kMailboxSlots, "shard outbox overflow (bounded mailbox)");
    s.slots[s.parity].headers.push_back(CrossMsg{s.loop.now() + latency, src, dst, ++s.out_seq,
                                                 static_cast<uint32_t>(subs.size())});
    subs.push_back(std::move(fn));
  }

  // Runs all events with time <= deadline; on return now() == deadline.
  void RunUntil(Time deadline) {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntil(deadline);
      sched_.now = deadline;
      return;
    }
    Run(deadline);
  }

  // Runs until nothing is pending anywhere, committed messages included.
  void RunUntilIdle() {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntilIdle();
      sched_.now = shards_[0]->loop.now();
      return;
    }
    Run(kTimeMax);
  }

  bool HasWork() const {
    for (const auto& sh : shards_) {
      if (sh->loop.HasWork()) {
        return true;
      }
    }
    return false;
  }

  uint64_t events_executed() const {
    uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->loop.events_executed();
    }
    return n;
  }

  uint64_t cross_messages() const { return prof_.commit_msgs; }
  uint64_t epochs() const { return prof_.epochs; }

  // FNV-1a digest of the committed merge order: every cross-shard message's
  // (deliver_time, src, dst, seq) in commit order. Identical across thread
  // counts by construction; the determinism tests assert exactly that.
  uint64_t MergeFingerprint() const { return merge_hash_; }

  // Observer invoked for each committed cross-shard message in commit order;
  // used to record the merge sequence into an Enoki trace (see
  // AttachShardMergeRecorder in enoki/runtime.h). It runs on the calling
  // thread (thread 0) right after each barrier, while the other host threads
  // already run their shards' next epoch, so it must touch only state of
  // its own.
  using MergeObserver = std::function<void(Time deliver_at, int src, int dst, uint64_t seq)>;
  void set_merge_observer(MergeObserver obs) { merge_observer_ = std::move(obs); }

  static int ResolveThreads(int requested, int nshards) {
    int t = requested;
    if (t <= 0) {
      const char* env = std::getenv("ENOKI_SHARD_THREADS");
      t = (env != nullptr) ? std::atoi(env) : 1;
    }
    return std::clamp(t, 1, nshards);
  }

 private:
  // Mailbox header of one cross-shard message: its commit sort key
  // (deliver_at, src, seq), its destination and the index of its payload
  // in src's subs buffer of the same parity.
  struct CrossMsg {
    Time deliver_at = 0;
    int src = 0;
    int dst = 0;
    uint64_t seq = 0;
    uint32_t sub = 0;
  };

  // What a thread publishes for one epoch parity after running its shards
  // to the target: the other threads read these instead of touching every
  // shard's loop. Padded to its own cache line, so a thread publishing one
  // parity never shares a line with readers of the other or another thread.
  struct alignas(64) Slot {
    Time peek = kTimeMax;           // min PeekTime over the owned shards
    uint64_t events = 0;            // events the owned shards ran
    std::vector<CrossMsg> headers;  // messages the owned shards posted
  };

  struct Shard {
    explicit Shard(Slot* owner_slots) : slots(owner_slots) {
      // Sized for a typical epoch's traffic up front, so the run phase
      // rarely pays vector growth.
      subs[0].reserve(kInitialMsgs);
      subs[1].reserve(kInitialMsgs);
    }
    static constexpr size_t kInitialMsgs = 64;
    EventLoop loop;
    // Payloads by epoch parity. The shard posts into subs[parity] while the
    // destinations' owners may still move out the other buffer's payloads,
    // committed at the last barrier. The owner clears a buffer, and flips
    // `parity` to it, after the barrier that follows those moves.
    std::vector<std::function<void()>> subs[2];
    int parity = 0;
    // Headers go to the owner thread's slots (one per parity), so a commit
    // reads one vector per thread rather than one per shard.
    Slot* slots;
    uint64_t out_seq = 0;
  };

  // One thread's copy of the epoch schedule. Every thread derives it from
  // the same committed inputs after each barrier, so the copies agree;
  // thread 0's (sched_) is the one the accessors report.
  struct Schedule {
    explicit Schedule(Duration w) : window(w) {}
    Time now = 0;
    Duration window;  // effective epoch width (moved by the controller)
    std::optional<EpochController> controller;  // built lazily, adaptive only
    uint64_t epochs = 0;          // epochs run: the parity of the next one
    uint64_t barriers = 0;        // barriers passed
    std::vector<CrossMsg> mail;   // reused commit buffer
  };

  int Owner(int shard) const { return shard % threads_; }
  Slot& slot(int thread, int parity) { return slots_[static_cast<size_t>(2 * thread + parity)]; }

  // Earliest pending event time across all shards. Only valid between run
  // calls, when every committed message has been delivered; between epochs
  // Commit computes the same minimum from the slots instead.
  Time GlobalNextTime() {
    Time t = kTimeMax;
    for (auto& sh : shards_) {
      t = std::min(t, sh->loop.PeekTime());
    }
    return t;
  }

  // Upper bound the effective window may ever reach — the lookahead clamp
  // PostCross latencies are checked against. Static mode: the fixed
  // epoch_ns. Adaptive mode: the smallest registered cross-shard latency;
  // with nothing registered the window cannot widen, so the bound stays
  // epoch_ns.
  Duration LookaheadBound() const {
    if (!opts_.adaptive_epochs || min_cross_latency_ == kTimeMax) {
      return opts_.epoch_ns;
    }
    return std::max(min_cross_latency_, opts_.epoch_ns);
  }

  // Next horizon. The window must be at most s.window wide so the lookahead
  // argument holds; when the next event is beyond one window the start leaps
  // to (gmin - window), which is safe because the skipped span is empty.
  // Sets *leapt when the start leapt an idle span (a controller input).
  static Time EpochTarget(const Schedule& s, Time gmin, Time deadline, bool* leapt) {
    Time start = s.now;
    *leapt = false;
    if (gmin > s.window && gmin - s.window > start) {
      start = gmin - s.window;
      *leapt = true;
    }
    return std::min(start + s.window, deadline);
  }

  // One run call: a parallel region in which every thread runs EpochLoop,
  // the caller as thread 0. kTimeMax runs until idle. The closing barrier
  // hands every loop back to the caller.
  void Run(Time deadline) {
    region_deadline_ = deadline;
    region_gmin_ = GlobalNextTime();
    Barrier(sched_);
    EpochLoop(0, sched_);
    Barrier(sched_);
  }

  void WorkerMain(int t) {
    Schedule s(opts_.epoch_ns);
    for (;;) {
      Barrier(s);  // a run call opens its region (or the destructor stops us)
      if (stop_) {
        return;
      }
      EpochLoop(t, s);
      Barrier(s);
    }
  }

  // Thread t's side of a run call. Each epoch runs the owned shards to the
  // target, publishes their peek and event count, passes the barrier, then
  // commits. On return the owned shards hold every committed message, and
  // (RunUntil) their clocks stand at the deadline. noexcept: an exception
  // leaving one thread's callbacks would strand the others at a barrier, so
  // it ends the program on every thread count, as on a worker thread.
  void EpochLoop(int t, Schedule& s) noexcept {
    const Time deadline = region_deadline_;
    for (Time gmin = region_gmin_; gmin != kTimeMax && gmin <= deadline && s.now < deadline;) {
      const int p = static_cast<int>(s.epochs & 1);
      bool leapt = false;
      const Time target = EpochTarget(s, gmin, deadline, &leapt);
      Time peek = kTimeMax;
      uint64_t events = 0;
      for (int i = t; i < opts_.nshards; i += threads_) {
        EventLoop& loop = shards_[static_cast<size_t>(i)]->loop;
        const uint64_t before = loop.events_executed();
        loop.RunUntil(target);
        events += loop.events_executed() - before;
        peek = std::min(peek, loop.PeekTime());
      }
      slot(t, p).peek = peek;
      slot(t, p).events = events;
      {
        ProfTimer wait(t == 0 && threads_ > 1 ? &prof_.barrier_ns : nullptr);
        Barrier(s);
      }
      gmin = Commit(t, s, p, target, leapt);
    }
    if (deadline != kTimeMax && s.now < deadline) {
      // No events in (now, deadline]: just advance the clocks.
      for (int i = t; i < opts_.nshards; i += threads_) {
        shards_[static_cast<size_t>(i)]->loop.RunUntil(deadline);
      }
      s.now = deadline;
    }
  }

  // Commits epoch parity p on thread t, after its barrier. Gathers every
  // posted header in (deliver_at, src, seq) order — a total order (seq is
  // unique per src) that does not depend on which thread ran which shard,
  // so destination-loop insertion sequence numbers are reproducible for any
  // thread count — and inserts those addressed to t's shards. Then advances
  // t's schedule and returns the earliest pending time: the min of the
  // published peeks and of the committed delivery times, which is what
  // GlobalNextTime would read now.
  Time Commit(int t, Schedule& s, int p, Time target, bool leapt) {
    Time next = kTimeMax;
    uint64_t events = 0;
    uint64_t committed = 0;
    s.mail.clear();
    for (int w = 0; w < threads_; ++w) {
      const Slot& pub = slot(w, p);
      next = std::min(next, pub.peek);
      events += pub.events;
      committed += pub.headers.size();
      for (const CrossMsg& m : pub.headers) {
        next = std::min(next, m.deliver_at);
        if (t == 0 || Owner(m.dst) == t) {
          s.mail.push_back(m);
        }
      }
    }
    std::sort(s.mail.begin(), s.mail.end(), [](const CrossMsg& a, const CrossMsg& b) {
      if (a.deliver_at != b.deliver_at) {
        return a.deliver_at < b.deliver_at;
      }
      if (a.src != b.src) {
        return a.src < b.src;
      }
      return a.seq < b.seq;
    });
    if (t == 0) {
      Fold(s.mail, target, leapt);
    }
    for (const CrossMsg& m : s.mail) {
      if (Owner(m.dst) == t) {
        std::function<void()>& fn = shards_[static_cast<size_t>(m.src)]->subs[p][m.sub];
        shards_[static_cast<size_t>(m.dst)]->loop.ScheduleAt(m.deliver_at, std::move(fn));
      }
    }
    // The other parity held the previous epoch's messages, which every
    // thread inserted before this barrier: clear t's share and post the next
    // epoch into it.
    const int q = p ^ 1;
    slot(t, q).headers.clear();
    for (int i = t; i < opts_.nshards; i += threads_) {
      Shard& sh = *shards_[static_cast<size_t>(i)];
      sh.subs[q].clear();
      sh.parity = q;
    }
    s.now = target;
    ++s.epochs;
    if (opts_.adaptive_epochs) {
      if (!s.controller) {
        EpochController::Config cc;
        cc.floor = std::max<Duration>(opts_.epoch_ns / 4, 1);
        cc.ceiling = LookaheadBound();
        cc.period = kControllerPeriod;
        cc.mailbox_slots = kMailboxSlots;
        s.controller.emplace(cc);
        s.window = std::clamp(s.window, cc.floor, cc.ceiling);
      }
      // Committed counts only: identical for every host thread count, so
      // the window schedule (and the run) stays byte-identical too.
      s.window = s.controller->OnEpoch(s.window, committed, events, leapt);
    }
    return next;
  }

  // Thread 0's share of a commit: the global merge order into the
  // fingerprint and the observer, plus the profile counts.
  void Fold(const std::vector<CrossMsg>& mail, Time target, bool leapt) {
    ProfTimer fold(&prof_.commit_ns);
    ++prof_.epochs;
    prof_.idle_leaps += leapt ? 1 : 0;
    prof_.commit_msgs += mail.size();
    for (const CrossMsg& m : mail) {
      // Lookahead held: the message cannot land inside the epoch that sent it.
      ENOKI_CHECK(m.deliver_at >= target);
      merge_hash_ = MixMerge(merge_hash_, m.deliver_at, m.src, m.dst, m.seq);
      if (merge_observer_) {
        merge_observer_(m.deliver_at, m.src, m.dst, m.seq);
      }
    }
  }

  // The epoch barrier, symmetric over all threads. Arrivals only ever count
  // up, so a thread passing its b-th barrier waits for b * threads_ of them.
  // The release half of each arrival and the acquire wait make every
  // thread's writes before a barrier visible to every thread after it.
  void Barrier(Schedule& s) {
    if (threads_ == 1) {
      return;
    }
    const uint64_t goal = ++s.barriers * static_cast<uint64_t>(threads_);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == goal) {
      return;
    }
    while (arrived_.load(std::memory_order_acquire) < goal) {
      std::this_thread::yield();
    }
  }

  static uint64_t MixMerge(uint64_t h, Time deliver_at, int src, int dst, uint64_t seq) {
    auto mix = [](uint64_t acc, uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        acc ^= (v >> (i * 8)) & 0xff;
        acc *= 1099511628211ull;
      }
      return acc;
    };
    h = mix(h, deliver_at);
    h = mix(h, static_cast<uint64_t>(src));
    h = mix(h, static_cast<uint64_t>(dst));
    h = mix(h, seq);
    return h;
  }

  const Options opts_;
  int threads_ = 1;
  uint64_t merge_hash_ = 14695981039346656037ull;
  Duration min_cross_latency_ = kTimeMax;  // smallest RegisterCrossLatency
  Schedule sched_;  // thread 0's: the caller's
  ShardProfile prof_;  // written by thread 0 only
  std::vector<Slot> slots_;  // per host thread and parity: see slot()
  std::vector<std::unique_ptr<Shard>> shards_;
  MergeObserver merge_observer_;

  // Region state: plain fields, written by the caller before the barrier
  // that opens a run call and read by every thread after it.
  Time region_deadline_ = 0;
  Time region_gmin_ = kTimeMax;
  bool stop_ = false;
  std::atomic<uint64_t> arrived_{0};
  std::vector<std::thread> workers_;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_

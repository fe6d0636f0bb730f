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
//   3. At the barrier, all outboxes are drained and committed in sorted
//      (deliver_time, src_shard, src_seq) order. The sort key is a total
//      order independent of which thread ran which shard when, so the
//      insertion sequence numbers the destination loops assign — and hence
//      all downstream tie-breaking — are identical for every T.
//   4. Owner-side peek and commit: every cross-shard message is one
//      mailbox header (deliver_time, src_shard, src_seq, payload index),
//      pushed by the sending shard's thread into its owner's padded slot.
//      The barrier thread does only the global part (sort, fingerprint,
//      routing, next-time minimum, controller). Each host thread publishes
//      its shards' post-run PeekTime and event count in the same slot, and
//      inserts the messages committed to its shards at the start of the
//      next epoch, in the global order restricted to each destination: the
//      same per-loop ScheduleAt sequence a serial commit makes. Payload
//      buffers alternate by epoch parity, so a shard never posts into the
//      buffer its destinations are still reading.
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

  explicit ShardedEventLoop(Options opts) : opts_(opts), window_(opts.epoch_ns) {
    ENOKI_CHECK(opts.nshards >= 1);
    ENOKI_CHECK(opts.epoch_ns > 0);
    threads_ = ResolveThreads(opts.threads, opts.nshards);
    slots_ = std::vector<WorkerSlot>(static_cast<size_t>(threads_));
    shards_.reserve(static_cast<size_t>(opts.nshards));
    for (int i = 0; i < opts.nshards; ++i) {
      WorkerSlot& owner = slots_[static_cast<size_t>(i % threads_)];
      shards_.push_back(std::make_unique<Shard>(&owner.headers));
    }
    // Workers own a static shard partition (worker j runs shards with
    // index % threads == j+1; the calling thread runs index % threads == 0).
    // Static partitioning keeps the barrier logic minimal and is fair when
    // shards are symmetric, which NUMA-node shards are.
    for (int j = 1; j < threads_; ++j) {
      workers_.emplace_back([this, j] { WorkerMain(j); });
    }
  }

  ~ShardedEventLoop() {
    stop_.store(true, std::memory_order_release);
    epoch_gen_.fetch_add(1, std::memory_order_release);  // wake waiters
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
  Duration window_ns() const { return window_; }
  EventLoop& shard(int i) { return shards_[static_cast<size_t>(i)]->loop; }

  // Committed horizon: no shard has unexecuted events at or before this time.
  Time now() const { return now_; }

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

  // Barrier/merge/controller counters. Count-type fields are deterministic
  // across hosts and thread counts; *_ns fields are wall-clock.
  ShardProfile profile() const {
    ShardProfile p = prof_;
    if (controller_ != nullptr) {
      p.widens = controller_->widens();
      p.narrows = controller_->narrows();
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
    if (opts_.nshards == 1) {
      s.loop.ScheduleAfter(latency, std::move(fn));
      return;
    }
    std::vector<CrossSub>& subs = s.subs[post_parity_];
    ENOKI_CHECK_MSG(subs.size() < kMailboxSlots, "shard outbox overflow (bounded mailbox)");
    s.outbox->push_back(
        CrossMsg{s.loop.now() + latency, src, ++s.out_seq, static_cast<uint32_t>(subs.size())});
    subs.push_back(CrossSub{dst, std::move(fn)});
  }

  // Runs all events with time <= deadline; on return now() == deadline.
  void RunUntil(Time deadline) {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntil(deadline);
      now_ = deadline;
      return;
    }
    Time gmin = now_ < deadline ? GlobalNextTime() : kTimeMax;
    while (now_ < deadline && gmin <= deadline) {
      bool leapt = false;
      const Time target = EpochTarget(gmin, deadline, &leapt);
      gmin = RunEpoch(target, leapt);
    }
    // Messages committed at the last barrier but due after the deadline:
    // insert them now, so between calls every loop holds its whole future.
    DeliverCommitted();
    if (now_ < deadline) {
      // No events in (now_, deadline]: just advance every clock.
      for (auto& sh : shards_) {
        sh->loop.RunUntil(deadline);
      }
      now_ = deadline;
    }
  }

  void RunUntilIdle() {
    if (opts_.nshards == 1) {
      shards_[0]->loop.RunUntilIdle();
      now_ = shards_[0]->loop.now();
      return;
    }
    // Ends only when nothing is pending anywhere, committed messages
    // included (they count toward gmin), so there is nothing left to deliver.
    for (Time gmin = GlobalNextTime(); gmin != kTimeMax;) {
      bool leapt = false;
      const Time target = EpochTarget(gmin, kTimeMax, &leapt);
      gmin = RunEpoch(target, leapt);
    }
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
  // AttachShardMergeRecorder in enoki/runtime.h).
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
  // A message's payload: destination shard + closure. Stored in the sending
  // shard's `subs` side vector; the header references it by index.
  struct CrossSub {
    int dst = 0;
    std::function<void()> fn;
  };

  // Mailbox header of one cross-shard message: its commit sort key
  // (deliver_at, src, seq) and the index of its payload in src's subs.
  struct CrossMsg {
    Time deliver_at = 0;
    int src = 0;
    uint64_t seq = 0;
    uint32_t sub = 0;
  };

  // A committed message waiting in its destination's inbox: the payload
  // stays in the source's parity buffer until the owner inserts it.
  struct Delivery {
    Time deliver_at = 0;
    CrossSub* sub = nullptr;
  };

  struct Shard {
    explicit Shard(std::vector<CrossMsg>* owner_outbox) : outbox(owner_outbox) {
      // Sized for a typical epoch's traffic up front, so the run phase
      // rarely pays vector growth.
      subs[0].reserve(kInitialMsgs);
      subs[1].reserve(kInitialMsgs);
      inbox.reserve(kInitialMsgs);
    }
    static constexpr size_t kInitialMsgs = 64;
    EventLoop loop;
    // (dst, fn) payloads by epoch parity: the shard posts into
    // subs[post_parity_] while, at the start of the same epoch, the
    // destinations' owners move out the payloads committed from the other
    // buffer at the last barrier. The barrier thread flips the parity and
    // clears a buffer only once its payloads have all been delivered.
    std::vector<CrossSub> subs[2];
    // Headers go to the owner thread's slot, so the barrier reads one
    // vector per thread rather than one per shard.
    std::vector<CrossMsg>* outbox;
    uint64_t out_seq = 0;
    // Messages committed to this shard, in commit order. Filled by the
    // barrier thread, inserted into `loop` by the owner at the start of the
    // next epoch (or by DeliverCommitted when a run call returns).
    std::vector<Delivery> inbox;
  };

  // What an owner thread publishes after running its shards to the target:
  // the barrier reads these instead of touching every shard's loop. Padded
  // to its own cache line so owners never share one.
  struct alignas(64) WorkerSlot {
    Time peek = kTimeMax;           // min PeekTime over the owned shards
    uint64_t events = 0;            // events the owned shards ran this epoch
    std::vector<CrossMsg> headers;  // messages the owned shards posted
  };

  // Earliest pending event time across all shards. Only valid when every
  // committed message has been delivered (at entry to a run call); between
  // epochs RunEpoch computes the same minimum from the owners' peeks and
  // the committed messages instead.
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

  // Next horizon. The window must be at most window_ wide so the lookahead
  // argument holds; when the next event is beyond one window the start leaps
  // to (gmin - window_), which is safe because the skipped span is empty.
  // Sets *leapt when the start leapt an idle span (a controller input).
  Time EpochTarget(Time gmin, Time deadline, bool* leapt) const {
    Time start = now_;
    *leapt = false;
    if (gmin > window_ && gmin - window_ > start) {
      start = gmin - window_;
      *leapt = true;
    }
    return std::min(start + window_, deadline);
  }

  // Runs one epoch to `target` and commits its cross-shard messages.
  // Returns the earliest pending time: the min of the owners' published
  // peeks and of the committed messages' delivery times, which is what
  // GlobalNextTime would read once those messages were inserted.
  Time RunEpoch(Time target, bool leapt) {
    ++prof_.epochs;
    prof_.idle_leaps += leapt ? 1 : 0;
    target_ = target;
    if (threads_ > 1) {
      // Release on the generation bump publishes target_, the inboxes and
      // the parity (and all prior shard state) to workers; their acquire
      // load pairs with it.
      epoch_gen_.fetch_add(1, std::memory_order_release);
    }
    RunOwnedShards(/*worker=*/0);
    if (threads_ > 1) {
      // Workers' release increments of done_workers_ pair with this acquire
      // loop: once observed, all their shard mutations, slot writes and
      // header pushes happen-before the merge below.
      ProfTimer wait_timer(&prof_.barrier_ns);
      while (done_workers_.load(std::memory_order_acquire) < threads_ - 1) {
        std::this_thread::yield();
      }
      done_workers_.store(0, std::memory_order_relaxed);
    }
    Time next = kTimeMax;
    uint64_t events = 0;
    for (const WorkerSlot& w : slots_) {
      next = std::min(next, w.peek);
      events += w.events;
    }
    const uint64_t committed = CommitMailboxes(target, &next);
    now_ = target;
    if (opts_.adaptive_epochs) {
      if (controller_ == nullptr) {
        EpochController::Config cc;
        cc.floor = std::max<Duration>(opts_.epoch_ns / 4, 1);
        cc.ceiling = LookaheadBound();
        cc.period = kControllerPeriod;
        cc.mailbox_slots = kMailboxSlots;
        controller_ = std::make_unique<EpochController>(cc);
        window_ = std::clamp(window_, cc.floor, cc.ceiling);
      }
      // Committed counts only: identical for every host thread count, so
      // the window schedule (and the run) stays byte-identical too.
      window_ = controller_->OnEpoch(window_, committed, events, leapt);
    }
    return next;
  }

  // One thread's share of an epoch: insert each owned shard's committed
  // messages, run it to target_, then publish the shards' next event time
  // and executed-event count in the thread's slot (PostCross has already
  // pushed their headers there).
  void RunOwnedShards(int worker) {
    WorkerSlot& slot = slots_[static_cast<size_t>(worker)];
    Time peek = kTimeMax;
    uint64_t events = 0;
    for (int i = worker; i < opts_.nshards; i += threads_) {
      Shard& sh = *shards_[static_cast<size_t>(i)];
      DeliverInbox(sh);
      const uint64_t before = sh.loop.events_executed();
      sh.loop.RunUntil(target_);
      events += sh.loop.events_executed() - before;
      peek = std::min(peek, sh.loop.PeekTime());
    }
    slot.peek = peek;
    slot.events = events;
  }

  // Inserts the shard's committed messages in commit order: the global
  // (deliver_at, src, seq) order restricted to this destination, i.e. the
  // same per-loop sequence of ScheduleAt calls a serial commit would make,
  // so the loop assigns identical seqs.
  static void DeliverInbox(Shard& sh) {
    for (const Delivery& d : sh.inbox) {
      sh.loop.ScheduleAt(d.deliver_at, std::move(d.sub->fn));
    }
    sh.inbox.clear();
  }

  void DeliverCommitted() {
    for (auto& sh : shards_) {
      DeliverInbox(*sh);
    }
  }

  void WorkerMain(int worker) {
    uint64_t seen = 0;
    for (;;) {
      const uint64_t gen = epoch_gen_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      if (gen == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = gen;
      RunOwnedShards(worker);
      done_workers_.fetch_add(1, std::memory_order_release);
    }
  }

  // Gathers every posted header and commits the messages in (deliver_at,
  // src, seq) order — a total order (seq is unique per src) that does not
  // depend on which thread ran which shard, so destination-loop insertion
  // sequence numbers are reproducible for any thread count.
  //
  // Committing routes each message to its destination's inbox; the
  // destination's owner inserts it at the start of the next epoch. Lowers
  // *next to the earliest delivery time.
  uint64_t CommitMailboxes(Time target, Time* next) {
    ProfTimer commit_timer(&prof_.commit_ns);
    scratch_.clear();
    for (WorkerSlot& w : slots_) {
      scratch_.insert(scratch_.end(), w.headers.begin(), w.headers.end());
      w.headers.clear();
    }
    // The buffer taking the next epoch's posts held the messages committed
    // at the last barrier, which this epoch's owners have delivered.
    const int parity = post_parity_;
    post_parity_ ^= 1;
    for (auto& sh : shards_) {
      sh->subs[post_parity_].clear();
    }
    if (scratch_.empty()) {
      return 0;
    }
    std::sort(scratch_.begin(), scratch_.end(), [](const CrossMsg& a, const CrossMsg& b) {
      if (a.deliver_at != b.deliver_at) {
        return a.deliver_at < b.deliver_at;
      }
      if (a.src != b.src) {
        return a.src < b.src;
      }
      return a.seq < b.seq;
    });
    for (const CrossMsg& m : scratch_) {
      // Lookahead held: the message cannot land inside the epoch that sent it.
      ENOKI_CHECK(m.deliver_at >= target);
      *next = std::min(*next, m.deliver_at);
      CrossSub& sub = shards_[static_cast<size_t>(m.src)]->subs[parity][m.sub];
      merge_hash_ = MixMerge(merge_hash_, m.deliver_at, m.src, sub.dst, m.seq);
      if (merge_observer_) {
        merge_observer_(m.deliver_at, m.src, sub.dst, m.seq);
      }
      shards_[static_cast<size_t>(sub.dst)]->inbox.push_back(Delivery{m.deliver_at, &sub});
    }
    prof_.commit_msgs += scratch_.size();
    return scratch_.size();
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
  Time now_ = 0;
  uint64_t merge_hash_ = 14695981039346656037ull;
  Duration window_;  // effective epoch width (moved by the controller)
  Duration min_cross_latency_ = kTimeMax;  // smallest RegisterCrossLatency
  std::unique_ptr<EpochController> controller_;  // built lazily, adaptive only
  ShardProfile prof_;
  std::vector<WorkerSlot> slots_;  // one per host thread, index = worker
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<CrossMsg> scratch_;  // reused merge buffer
  // Buffer PostCross writes; flipped by the barrier thread at each commit.
  int post_parity_ = 0;
  MergeObserver merge_observer_;

  // Epoch barrier state. target_ and post_parity_ are plain: they are
  // published by the release bump of epoch_gen_ and read only after the
  // paired acquire.
  Time target_ = 0;
  std::atomic<uint64_t> epoch_gen_{0};
  std::atomic<int> done_workers_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace enoki

#endif  // SRC_SIMKERNEL_SHARDED_EVENT_LOOP_H_

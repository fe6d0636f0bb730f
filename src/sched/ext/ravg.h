// Running-average load tracking, modeled on the sched_ext `ravg` utility
// that scx_rusty uses for its load-balancing domains.
//
// The tracked quantity is a piecewise-constant input (for rusty: the sum of
// runnable task weights in a domain). Time is divided into fixed half-life
// windows; when a window closes, the history's contribution halves and the
// closed window's time-weighted mean contributes the other half:
//
//   avg' = (avg + window_mean) / 2
//
// so input from k windows ago is worth 2^-k of current input. All arithmetic
// is integer, which keeps the average bit-identical across platforms for
// identical call sequences — a requirement for Enoki's deterministic replay
// and double-run fingerprint tests.

#ifndef SRC_SCHED_EXT_RAVG_H_
#define SRC_SCHED_EXT_RAVG_H_

#include <cstdint>

#include "src/base/time.h"
#include "src/enoki/checkpoint.h"

namespace enoki {

class RunningAvg {
 public:
  explicit RunningAvg(Duration half_life = Milliseconds(50)) : half_life_(half_life) {}

  // Changes the tracked input to `value` as of `now`. Calls must be
  // monotonic in `now` (simulated time always is).
  void Set(Time now, uint64_t value) {
    Advance(now);
    cur_ = value;
  }

  // The instantaneous input (last Set value).
  uint64_t current() const { return cur_; }

  // The decayed average as of `now`, in the input's units. Blends the closed
  // window history with the in-progress window pro rata, so the value moves
  // smoothly instead of stepping at window boundaries.
  uint64_t Read(Time now) {
    Advance(now);
    const Duration elapsed = now - window_start_;
    const uint64_t partial = win_sum_ + cur_ * static_cast<uint64_t>(now - last_);
    return (avg_ * static_cast<uint64_t>(half_life_ - elapsed) + partial) /
           static_cast<uint64_t>(half_life_);
  }

  // The checkpoint holds the five words of internal state; the half-life is
  // configuration and travels with the module, not the checkpoint.
  void CheckpointFields(CheckpointArchive* ar) {
    ar->Ordered(&window_start_, &last_);
    ar->Word(&avg_);
    ar->Word(&win_sum_);
    ar->Word(&cur_);
  }

 private:
  // Accrues cur_ over [last_, now), closing any windows crossed.
  void Advance(Time now) {
    // After 64 whole windows of constant input, all history has decayed to
    // zero; skip ahead in O(1) rather than looping per window.
    if (half_life_ > 0 && now > window_start_) {
      const uint64_t whole = (now - window_start_) / half_life_;
      if (whole > 64) {
        avg_ = cur_;
        window_start_ += whole * half_life_;
        last_ = window_start_;
        win_sum_ = 0;
      }
    }
    while (true) {
      const Time wend = window_start_ + half_life_;
      if (now < wend) {
        win_sum_ += cur_ * static_cast<uint64_t>(now - last_);
        last_ = now;
        return;
      }
      win_sum_ += cur_ * static_cast<uint64_t>(wend - last_);
      avg_ = (avg_ + win_sum_ / static_cast<uint64_t>(half_life_)) / 2;
      win_sum_ = 0;
      window_start_ = wend;
      last_ = wend;
    }
  }

  Duration half_life_;
  Time window_start_ = 0;
  Time last_ = 0;       // accrued up to here within the current window
  uint64_t avg_ = 0;    // decayed mean of closed windows
  uint64_t win_sum_ = 0;  // value*ns accrued in [window_start_, last_)
  uint64_t cur_ = 0;    // current input value
};

}  // namespace enoki

#endif  // SRC_SCHED_EXT_RAVG_H_

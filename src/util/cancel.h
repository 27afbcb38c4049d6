// Cooperative cancellation and deadlines for detection runs.
//
// A serving process (ROADMAP item 1: the `ngdd` daemon) must be able to
// bound a detection call: a deadline-hit run returns an honest partial
// result (`truncated` flag + per-rule completion marks) instead of
// blocking indefinitely or aborting. The primitives here are threaded
// through DetectControl (detect/dect.h), shared by all four engines, and
// checked inside the match-expansion inner loops and the work-stealing
// run loop.
//
// CancelToken is the shared stop flag (one writer wins, all readers see
// it); Deadline is a steady-clock budget; CancelCheck combines the two
// with a stride so the hot expansion loop pays one relaxed atomic load
// per step and touches the clock only every `stride` calls. When the
// deadline trips, CancelCheck broadcasts into the token so sibling
// workers polling the same token stop promptly without ever reading the
// clock themselves.

#ifndef NGD_UTIL_CANCEL_H_
#define NGD_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace ngd {

/// Shared stop flag. Cancel() is sticky until Reset(); safe to call from
/// any thread.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// A point on the steady clock; default-constructed = no deadline.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Deadline `ms` milliseconds from now. ms <= 0 is already expired.
  static Deadline After(int64_t ms) {
    Deadline d;
    d.armed_ = true;
    d.when_ = Clock::now() + std::chrono::milliseconds(ms);
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool armed() const { return armed_; }

  bool Expired() const { return armed_ && Clock::now() >= when_; }

  /// Seconds until expiry (negative once expired); +inf when unarmed.
  double RemainingSeconds() const {
    if (!armed_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(when_ - Clock::now()).count();
  }

 private:
  bool armed_ = false;
  Clock::time_point when_{};
};

/// Per-worker combined check over a shared token and a deadline. Not
/// thread-safe: each worker owns one. ShouldStop() is designed for inner
/// loops — a relaxed load of the token every call, a clock read every
/// `stride` calls, and a latched `stopped` state so a tripped check never
/// pays either again.
class CancelCheck {
 public:
  CancelCheck() = default;

  /// `token` may be null (deadline-only). Non-owning; must outlive the
  /// check. A deadline trip broadcasts into `token` (if any) so sibling
  /// workers sharing it stop without polling the clock.
  explicit CancelCheck(CancelToken* token, Deadline deadline = Deadline(),
                       uint32_t stride = 1024)
      : token_(token), deadline_(deadline), stride_(stride ? stride : 1) {}

  /// True once the run should wind down. Sticky.
  bool ShouldStop() {
    if (stopped_) return true;
    if (token_ != nullptr && token_->IsCancelled()) {
      stopped_ = true;
      return true;
    }
    if (deadline_.armed() && ++calls_ >= stride_) {
      calls_ = 0;
      if (deadline_.Expired()) {
        stopped_ = true;
        if (token_ != nullptr) token_->Cancel();
        return true;
      }
    }
    return false;
  }

  /// Latched result of the last ShouldStop() — no re-check.
  bool Stopped() const { return stopped_; }

  bool active() const { return token_ != nullptr || deadline_.armed(); }

 private:
  CancelToken* token_ = nullptr;
  Deadline deadline_{};
  uint32_t stride_ = 1024;
  uint32_t calls_ = 0;
  bool stopped_ = false;
};

}  // namespace ngd

#endif  // NGD_UTIL_CANCEL_H_

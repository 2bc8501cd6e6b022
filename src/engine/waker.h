// Per-worker parking monitor for the worker-pool executor's
// spin→yield→park wait strategy.
//
// A Waker is the rendezvous between an idle worker about to park and
// the producers that can hand it new work: workers park in WaitFor(),
// and Channel wakes the consumer's worker on a push into an empty
// queue (and the producer's worker on a pop from a full one, releasing
// back-pressure). The notified flag is latched under the mutex, so a
// Notify that races with the worker's "scan found nothing → park"
// window is never lost: the parker re-checks the flag before sleeping.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace brisk::engine {

class Waker {
 public:
  /// Wakes the owning worker (or pre-arms the latch if it is not
  /// parked yet). Safe from any thread; called on queue empty→nonempty
  /// and full→nonfull transitions only, so the mutex is off the
  /// saturated hot path.
  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      notified_ = true;
    }
    cv_.notify_one();
    notify_count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Parks until notified or `timeout` elapses; returns true when a
  /// notification (including one latched before the call) woke us. The
  /// timeout bounds the damage of any wake the hints cannot see (e.g.
  /// a rate-limited spout's token refill).
  bool WaitFor(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool woken =
        cv_.wait_for(lock, timeout, [this] { return notified_; });
    notified_ = false;
    return woken;
  }

  /// Total Notify() calls, for telemetry/tests (racy read is fine).
  uint64_t notify_count() const {
    return notify_count_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool notified_ = false;
  std::atomic<uint64_t> notify_count_{0};
};

/// Movable wake target: one level of indirection between a channel and
/// the Waker of whichever worker currently runs the endpoint task.
///
/// Channels hold a WakerRef* fixed per task instance for the lifetime
/// of an executor; when a thief steals the task, it repoints the ref to
/// its own Waker with a single atomic store, and every later wake hint
/// lands on the new owner. A hint that races with the repoint can still
/// reach the previous owner — that is a spurious wake (bounded by the
/// park timeout), never a lost one, because the stealing worker polls
/// the task it just took regardless of notifications.
class WakerRef {
 public:
  WakerRef() = default;
  explicit WakerRef(Waker* target) : target_(target) {}

  void Point(Waker* target) {
    target_.store(target, std::memory_order_release);
  }

  /// Forwards to the current target; no-op while unpointed.
  void Notify() {
    if (Waker* w = target_.load(std::memory_order_acquire)) w->Notify();
  }

  Waker* target() const {
    return target_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<Waker*> target_{nullptr};
};

}  // namespace brisk::engine

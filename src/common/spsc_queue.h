// Bounded lock-free single-producer / single-consumer ring buffer.
//
// This is the communication queue between a producer task and one of
// its consumer tasks in the BriskStream engine (one queue per directed
// producer→consumer edge, so SPSC is sufficient and the fast path is
// two relaxed loads + one release store). Head/tail live on separate
// cache lines to avoid false sharing, and each side caches the
// opposing index to avoid ping-ponging the shared line on every call —
// the standard "fast SPSC" design.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace brisk {

/// Destructive-interference distance. Fixed at 64 bytes (true for all
/// x86-64 and most AArch64 parts) instead of
/// std::hardware_destructive_interference_size, whose value is not ABI
/// stable across compiler flags (-Winterference-size).
inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class SpscQueue {
 public:
  /// The ring is the smallest power of two 2^k > `capacity`, and one
  /// slot always stays empty, so usable slots = capacity() = 2^k - 1
  /// >= `capacity` (128 requested gives 255). The slot array comes
  /// from the default heap, allocated by the constructing thread.
  explicit SpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity + 1) cap <<= 1;  // one slot stays empty
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when the queue is full (the engine
  /// reacts with back-pressure, not blocking). Takes an rvalue
  /// reference and only moves from it on success, so callers can retry
  /// the same object in a spin loop.
  bool TryPush(T&& value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    slots_[tail] = std::move(value);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the queue is empty.
  bool TryPop(T* out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    *out = std::move(slots_[head]);
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy; safe to call from any thread (racy but
  /// monotonic enough for metrics and back-pressure heuristics).
  size_t SizeApprox() const {
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  size_t capacity() const { return mask_; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;

  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  alignas(kCacheLineSize) size_t tail_cache_ = 0;  // consumer-local
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  alignas(kCacheLineSize) size_t head_cache_ = 0;  // producer-local
};

}  // namespace brisk

// Inter-task channel: a bounded SPSC queue of envelopes, one per
// directed (producer instance → consumer instance) edge, paired with a
// reverse SPSC queue that recycles drained JumboTuple batches back to
// the producer (the BatchPool protocol).
//
// Ownership protocol: the producer task allocates (or reuses) a batch,
// fills it, and pushes it downstream; the consumer drains it, calls
// Reset(), and hands the empty shell back through Recycle(). The
// producer prefers recycled shells in TryPopRecycled() over the
// allocator, so steady state allocates nothing — and, just as
// important on a NUMA machine, batches are freed by the socket that
// allocated them instead of cross-socket.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/spsc_queue.h"
#include "common/tuple.h"
#include "engine/waker.h"

namespace brisk::engine {

/// What actually travels through a queue: a jumbo-tuple batch
/// (BriskStream's pass-by-reference path, Appendix A). The envelope is
/// just a pointer plus the producer's instance id (the batch's one
/// header) and moves trivially through the ring buffer.
struct Envelope {
  JumboTuplePtr batch;
  int32_t from_instance = -1;
};

class Channel {
 public:
  /// Admits at most `capacity` envelopes. The ring rounds up to a power
  /// of two, so the bound is checked here, not by the ring. Both rings'
  /// slot arrays come from the default heap, allocated by the thread
  /// that wires the graph.
  Channel(int from_instance, int to_instance, size_t capacity)
      : from_instance_(from_instance),
        to_instance_(to_instance),
        capacity_(capacity),
        queue_(capacity),
        recycled_(capacity + 1) {}

  int from_instance() const { return from_instance_; }
  int to_instance() const { return to_instance_; }

  /// Fails when `capacity` envelopes are undelivered; only moves from
  /// `e` on success (safe to retry). The occupancy read can only
  /// overestimate (the consumer's head only advances), so the bound
  /// holds under concurrent pops. Pushing into an empty queue wakes the
  /// consumer's worker (pool mode); under saturation the queue is never
  /// empty, so the hint is off the hot path.
  bool TryPush(Envelope&& e) {
    const size_t size = queue_.SizeApprox();
    if (size >= capacity_ || !queue_.TryPush(std::move(e))) return false;
    if (size == 0 && consumer_waker_ != nullptr) consumer_waker_->Notify();
    return true;
  }

  /// Popping from a full queue wakes the producer's worker: it may be
  /// parked with a batch waiting on back-pressure (PollResult::kBlocked)
  /// and the pop just made room.
  bool TryPop(Envelope* e) {
    if (producer_waker_ == nullptr) return queue_.TryPop(e);
    const bool was_full = queue_.SizeApprox() >= capacity_;
    if (!queue_.TryPop(e)) return false;
    if (was_full) producer_waker_->Notify();
    return true;
  }

  size_t SizeApprox() const { return queue_.SizeApprox(); }
  /// Racy emptiness probe for the quiesce monitors (graceful drain and
  /// the migration pause protocol).
  bool EmptyApprox() const { return queue_.EmptyApprox(); }

  /// Worker-pool wiring (pre-start; cleared when the pool shuts down).
  /// The refs are per task *instance*, not per worker: the executor
  /// repoints them when a steal migrates the endpoint task, so wake
  /// hints keep finding whichever worker currently runs it.
  /// Unwired channels (standalone tests, the post-join residual sweep)
  /// hold null and pay one branch.
  void SetWakers(WakerRef* consumer, WakerRef* producer) {
    consumer_waker_ = consumer;
    producer_waker_ = producer;
  }

  // BatchPool return path. The roles flip: the channel's consumer task
  // produces into the recycle queue, its producer task consumes — so
  // both queues stay single-producer/single-consumer.

  /// Consumer side: hands a drained batch shell back to the producer.
  /// The return queue is deeper than the channel's bound, so it
  /// fills only when the producer allocated extra shells while it was
  /// empty; a shell that does not fit is simply freed.
  void Recycle(JumboTuplePtr&& batch) {
    // On overflow TryPush leaves `batch` owning, and it is freed when
    // the parameter goes out of scope.
    (void)recycled_.TryPush(std::move(batch));
  }

  /// Producer side: fetches an empty recycled batch, if any.
  bool TryPopRecycled(JumboTuplePtr* batch) {
    return recycled_.TryPop(batch);
  }

 private:
  int from_instance_;
  int to_instance_;
  size_t capacity_;
  SpscQueue<Envelope> queue_;
  SpscQueue<JumboTuplePtr> recycled_;
  WakerRef* consumer_waker_ = nullptr;
  WakerRef* producer_waker_ = nullptr;
};

}  // namespace brisk::engine

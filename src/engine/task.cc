#include "engine/task.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.h"

namespace brisk::engine {

namespace {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `into[s] += from[s]` (sign +1) or `into[s] -= from[s]` (sign -1)
/// per stream, growing `into` to cover `from`.
void CombineStreams(std::vector<RelaxedCounter>* into,
                    const std::vector<RelaxedCounter>& from, int sign) {
  if (into->size() < from.size()) into->resize(from.size());
  for (size_t s = 0; s < from.size(); ++s) {
    (*into)[s] = sign > 0 ? (*into)[s] + from[s] : (*into)[s] - from[s];
  }
}

}  // namespace

void TaskStats::Accumulate(const TaskStats& o) {
  tuples_in += o.tuples_in;
  tuples_out += o.tuples_out;
  batches_in += o.batches_in;
  batches_out += o.batches_out;
  batches_recycled += o.batches_recycled;
  backpressure_parks += o.backpressure_parks;
  busy_ns += o.busy_ns;
  tuples_vec += o.tuples_vec;
  numa_stall_ns += o.numa_stall_ns;
  CombineStreams(&stream_tuples_out, o.stream_tuples_out, +1);
  CombineStreams(&stream_tuples_flushed, o.stream_tuples_flushed, +1);
  CombineStreams(&stream_bytes_out, o.stream_bytes_out, +1);
}

TaskStats TaskStats::Since(const TaskStats& base) const {
  TaskStats d;
  d.tuples_in = tuples_in - base.tuples_in;
  d.tuples_out = tuples_out - base.tuples_out;
  d.batches_in = batches_in - base.batches_in;
  d.batches_out = batches_out - base.batches_out;
  d.batches_recycled = batches_recycled - base.batches_recycled;
  d.backpressure_parks = backpressure_parks - base.backpressure_parks;
  d.busy_ns = busy_ns - base.busy_ns;
  d.tuples_vec = tuples_vec - base.tuples_vec;
  d.numa_stall_ns = numa_stall_ns - base.numa_stall_ns;
  d.stream_tuples_out = stream_tuples_out;
  d.stream_tuples_flushed = stream_tuples_flushed;
  d.stream_bytes_out = stream_bytes_out;
  CombineStreams(&d.stream_tuples_out, base.stream_tuples_out, -1);
  CombineStreams(&d.stream_tuples_flushed, base.stream_tuples_flushed, -1);
  CombineStreams(&d.stream_bytes_out, base.stream_bytes_out, -1);
  return d;
}

int Task::AddBuffer() {
  buffers_.emplace_back();
  buffer_stream_.push_back(-1);
  return static_cast<int>(buffers_.size()) - 1;
}

void Task::AddOutRoute(OutRoute route) {
  const uint16_t sid = route.stream_id;
  if (last_route_for_stream_.size() <= sid) {
    last_route_for_stream_.resize(sid + 1, -1);
  }
  // Each emitted tuple's bytes count once: on the stream's last route
  // (the one it moves into), and on a single replica of a broadcast.
  if (const int prev = last_route_for_stream_[sid]; prev >= 0) {
    for (const int b : routes_[prev].buffer_index) buffer_stream_[b] = -1;
  }
  for (size_t i = 0; i < route.buffer_index.size(); ++i) {
    if (i == 0 || route.grouping != api::GroupingType::kBroadcast) {
      buffer_stream_[route.buffer_index[i]] = sid;
    }
  }
  last_route_for_stream_[sid] = static_cast<int>(routes_.size());
  routes_.push_back(std::move(route));
}

Status Task::Prepare(const api::OperatorContext& ctx) {
  // Contain Prepare-time exceptions too: a throwing factory/operator
  // surfaces as a Status naming the replica instead of unwinding
  // through the engine.
  try {
    if (spout_) return spout_->Prepare(ctx);
    if (bolt_) return bolt_->Prepare(ctx);
  } catch (const std::exception& e) {
    return Status::Internal("operator '" + ctx.operator_name + "' replica " +
                            std::to_string(ctx.replica_index) +
                            " threw in Prepare: " + e.what());
  } catch (...) {
    return Status::Internal("operator '" + ctx.operator_name + "' replica " +
                            std::to_string(ctx.replica_index) +
                            " threw in Prepare: unknown exception");
  }
  return Status::FailedPrecondition("task has neither spout nor bolt");
}

void Task::Bind(const StopSignals* signals) {
  signals_ = signals;
  // Compiled dispatch is resolved once per run: the bolt either
  // carries a pipeline or it does not.
  pipe_ = bolt_ ? bolt_->pipeline() : nullptr;
  source_done_ = false;
  pending_.clear();
  pending_head_ = 0;
  pending_live_ = 0;
  wedged_slot_ = ~size_t{0};
  last_refill_ns_ = 0;
  staged_dirty_ = false;
}

void Task::AppendTuple(OutRoute& route, size_t i, Tuple&& t) {
  JumboTuple& buf = buffers_[route.buffer_index[i]];
  staged_dirty_ = true;
  buf.tuples.push_back(std::move(t));
  if (static_cast<int>(buf.tuples.size()) >= config_.batch_size) {
    FlushBuffer(route.buffer_index[i], route.channels[i], false);
  }
}

void Task::EmitTo(uint16_t stream_id, Tuple t) {
  ++stats_.tuples_out;
  if (stream_id < stream_out_tally_.size()) ++stream_out_tally_[stream_id];
  t.stream_id = stream_id;
  // The last route on the stream receives the tuple by move; earlier
  // routes (rare: multi-consumer streams) each pay one copy. The
  // common single-route case is therefore copy-free.
  const int last_route =
      stream_id < last_route_for_stream_.size()
          ? last_route_for_stream_[stream_id]
          : -1;
  if (last_route < 0) return;  // no consumer on this stream
  for (size_t r = 0; r < routes_.size(); ++r) {
    OutRoute& route = routes_[r];
    if (route.stream_id != stream_id) continue;
    const bool moves = static_cast<int>(r) == last_route;
    // Moves `t` into consumer `i`'s buffer when this route is the
    // last recipient, otherwise hands over a copy.
    auto forward = [&](size_t i) {
      if (moves) {
        AppendTuple(route, i, std::move(t));
      } else {
        AppendTuple(route, i, Tuple(t));
      }
    };
    switch (route.grouping) {
      case api::GroupingType::kShuffle: {
        // Wrap by compare-and-reset: no per-emit `%` (consumer counts
        // are rarely powers of two, so the div is a real cost).
        const size_t i = route.rr_cursor;
        if (++route.rr_cursor == route.channels.size()) route.rr_cursor = 0;
        forward(i);
        break;
      }
      case api::GroupingType::kFields: {
        forward(ReplicaOfKey(t.fields[route.key_field],
                             route.channels.size()));
        break;
      }
      case api::GroupingType::kBroadcast: {
        const size_t n = route.channels.size();
        for (size_t i = 0; i + 1 < n; ++i) AppendTuple(route, i, Tuple(t));
        forward(n - 1);
        break;
      }
      case api::GroupingType::kGlobal: {
        forward(0);
        break;
      }
    }
  }
}

void Task::ConsumeSelected(JumboTuple* batch, const SelectionVector& sel) {
  sel.ForEachSet(
      [&](size_t i) { EmitTo(0, std::move(batch->tuples[i])); });
}

void Task::MaybeThrowInjected() {
  for (auto& f : faults_) {
    if (f.fired) continue;
    if (f.spec.kind != FaultSpec::Kind::kCrash &&
        f.spec.kind != FaultSpec::Kind::kThrow) {
      continue;
    }
    if (stats_.tuples_in.value() >= f.spec.after_tuples) {
      f.fired = true;
      throw std::runtime_error(std::string("injected ") +
                               FaultKindName(f.spec.kind) + " after " +
                               std::to_string(stats_.tuples_in.value()) +
                               " tuples");
    }
  }
}

bool Task::StallInjected() {
  if (stalled_.load(std::memory_order_relaxed)) return true;
  for (auto& f : faults_) {
    if (f.fired || f.spec.kind != FaultSpec::Kind::kStall) continue;
    if (stats_.tuples_in.value() >= f.spec.after_tuples) {
      f.fired = true;
      stalled_.store(true, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool Task::MaybeWedgePush(Envelope& env, Channel* channel) {
  if (wedged_slot_ != ~size_t{0}) return false;  // one wedge per run
  for (auto& f : faults_) {
    if (f.fired || f.spec.kind != FaultSpec::Kind::kWedgePush) continue;
    if (stats_.tuples_out.value() < f.spec.after_tuples) continue;
    f.fired = true;
    // Park the envelope where ordered retry will meet it first and
    // never let TryDrainPending push it: everything behind it stays
    // parked too, pending_live() never returns to zero, and a graceful
    // drain can no longer converge.
    wedged_slot_ = pending_.size();
    pending_.push_back(PendingPush{std::move(env), channel});
    pending_live_ = pending_.size() - pending_head_;
    return true;
  }
  return false;
}

void Task::FoldStreamTally() {
  for (size_t s = 0; s < stream_out_tally_.size(); ++s) {
    if (stream_out_tally_[s] == 0) continue;
    stats_.stream_tuples_out[s] += stream_out_tally_[s];
    stream_out_tally_[s] = 0;
  }
}

void Task::RecordFailure(const std::string& what) {
  FoldStreamTally();  // the failed batch's emits did leave the task
  failure_message_ = "operator '" + op_name_ + "' replica " +
                     std::to_string(replica_) + ": " + what;
  BRISK_LOG(Warn) << "task " << instance_id_ << " failed: "
                  << failure_message_;
  // Release-publish: readers that observe failed_ == true (acquire)
  // see the complete message.
  failed_.store(true, std::memory_order_release);
}

bool Task::PushEnvelope(Envelope&& env, Channel* channel) {
  if (!faults_.empty() && MaybeWedgePush(env, channel)) return false;
  // Preserve per-channel batch order: while anything is parked, new
  // envelopes queue behind it instead of overtaking.
  if (pending_head_ >= pending_.size() && channel->TryPush(std::move(env))) {
    return true;
  }
  ++stats_.backpressure_parks;
  pending_.push_back(PendingPush{std::move(env), channel});
  pending_live_ = pending_.size() - pending_head_;
  return false;
}

bool Task::TryDrainPending() {
  while (pending_head_ < pending_.size()) {
    PendingPush& p = pending_[pending_head_];
    if (pending_head_ == wedged_slot_ ||  // injected permanent park
        !p.channel->TryPush(std::move(p.env))) {
      pending_live_ = pending_.size() - pending_head_;
      return false;
    }
    ++pending_head_;
  }
  pending_.clear();
  pending_head_ = 0;
  pending_live_ = 0;
  return true;
}

bool Task::FlushBuffer(int buffer_idx, Channel* channel, bool force) {
  JumboTuple& buf = buffers_[buffer_idx];
  if (buf.tuples.empty()) return true;
  if (!force && static_cast<int>(buf.tuples.size()) < config_.batch_size) {
    return true;
  }
  // BatchPool: prefer an empty shell a consumer handed back over the
  // allocator. Steady state cycles the same shells (and their tuple /
  // byte capacity) between producer and consumers forever. Consumers
  // Reset() before recycling.
  JumboTuplePtr batch;
  if (TakeRecycledShell(channel, &batch)) {
    ++stats_.batches_recycled;
  } else {
    batch = std::make_unique<JumboTuple>();
  }
  Envelope env;
  env.from_instance = instance_id_;
  const int stream = buffer_stream_[buffer_idx];
  if (stream >= 0 &&
      static_cast<size_t>(stream) < stats_.stream_bytes_out.size()) {
    stats_.stream_tuples_flushed[stream] += buf.tuples.size();
    stats_.stream_bytes_out[stream] +=
        buf.tuples.front().SizeBytes() * buf.tuples.size();
  }
  // The shell's (empty, capacity-bearing) vector becomes the new
  // staging buffer — no allocation on either side of the swap.
  std::swap(batch->tuples, buf.tuples);
  env.batch = std::move(batch);
  ++stats_.batches_out;
  return PushEnvelope(std::move(env), channel);
}

bool Task::TakeRecycledShell(Channel* channel, JumboTuplePtr* batch) {
  if (channel->TryPopRecycled(batch)) return true;
  for (const auto& route : routes_) {
    for (Channel* other : route.channels) {
      if (other != channel && other->TryPopRecycled(batch)) return true;
    }
  }
  return false;
}

bool Task::FlushAll(bool force) {
  if (force && !staged_dirty_) return pending_head_ >= pending_.size();
  bool all_pushed = true;
  for (auto& route : routes_) {
    for (size_t i = 0; i < route.channels.size(); ++i) {
      if (!FlushBuffer(route.buffer_index[i], route.channels[i], force)) {
        all_pushed = false;
      }
    }
  }
  if (force && all_pushed) staged_dirty_ = false;
  return all_pushed;
}

void Task::Consume(Envelope env, Channel* from) {
  if (!env.batch) return;  // dropped/empty envelope
  if (failed_.load(std::memory_order_relaxed)) return;  // replica is dead
  const std::vector<Tuple>& tuples = env.batch->tuples;
  // NUMA charge: the consumer-side stall of fetching a remote batch
  // (emulated busy-wait, README "Hardware substitution"), one Formula-2
  // cost per tuple.
  if (config_.numa_emulation && numa_ != nullptr && !tuples.empty() &&
      instance_sockets_ != nullptr && env.from_instance >= 0) {
    const int from_socket = (*instance_sockets_)[env.from_instance];
    if (from_socket != socket_ && from_socket >= 0 && socket_ >= 0) {
      const double per_tuple_ns = numa_->machine().FetchCostNs(
          from_socket, socket_,
          static_cast<double>(tuples.front().SizeBytes()));
      const auto stall_ns =
          static_cast<int64_t>(per_tuple_ns * tuples.size());
      hw::SpinForNs(stall_ns);
      stats_.numa_stall_ns += static_cast<uint64_t>(stall_ns);
    }
  }
  // Count before executing: the compiled path may move tuples out of
  // the batch (ConsumeSelected) and FlatMap stages redirect output to
  // scratch, so size-after is not the ingress count.
  const size_t n_in = tuples.size();
  const int64_t t0 = NowNs();
  // Containment region: an exception escaping the operator (or an
  // injected crash) becomes a recorded task failure, not process
  // death. The envelope's remaining tuples are dropped with the
  // replica — recovery replays them from the last checkpoint.
  try {
    if (!faults_.empty()) MaybeThrowInjected();
    if (pipe_ != nullptr) {
      // Whole-batch dispatch through the bolt's compiled pipeline;
      // this task is the PipelineSink, so survivors route through the
      // same partition controller as interpreted emissions.
      pipe_->RunBatch(env.batch.get(), this);
      stats_.tuples_vec += n_in;
    } else {
      for (const Tuple& t : tuples) bolt_->Process(t, this);
    }
  } catch (const std::exception& e) {
    RecordFailure(e.what());
    return;
  } catch (...) {
    RecordFailure("unknown exception");
    return;
  }
  stats_.busy_ns += static_cast<uint64_t>(NowNs() - t0);
  stats_.tuples_in += n_in;
  FoldStreamTally();
  ++stats_.batches_in;
  if (from != nullptr) {
    // Hand the drained shell back to the producer instead of freeing
    // it here (which, under NUMA, would free remote-socket memory).
    env.batch->Reset();
    from->Recycle(std::move(env.batch));
  }
}

PollResult Task::PollSpout(int budget) {
  if (source_done_) return PollResult::kDone;
  if (signals_->stop_spouts.load(std::memory_order_relaxed) ||
      signals_->stop_all.load(std::memory_order_relaxed)) {
    // Drain protocol: push out everything staged before reporting done.
    if (!FlushAll(true)) return PollResult::kBlocked;
    source_done_ = true;
    return PollResult::kDone;
  }
  const double burst_cap =
      SpoutBurstCap(config_.batch_size, rate_per_instance_);
  bool progressed = false;
  for (int b = 0; b < budget; ++b) {
    if (rate_per_instance_ > 0.0) {
      const int64_t now = NowNs();
      if (last_refill_ns_ == 0) last_refill_ns_ = now;
      tokens_ += static_cast<double>(now - last_refill_ns_) * 1e-9 *
                 rate_per_instance_;
      last_refill_ns_ = now;
      tokens_ = std::min(tokens_, burst_cap);
      if (tokens_ < config_.batch_size) {
        if (!FlushAll(true)) return PollResult::kBlocked;
        return progressed ? PollResult::kProgress : PollResult::kIdle;
      }
      tokens_ -= config_.batch_size;
    }
    const int64_t t0 = NowNs();
    size_t produced = 0;
    try {
      if (!faults_.empty()) MaybeThrowInjected();
      produced =
          spout_->NextBatch(static_cast<size_t>(config_.batch_size), this);
    } catch (const std::exception& e) {
      RecordFailure(e.what());
      source_done_ = true;
      return PollResult::kDone;
    } catch (...) {
      RecordFailure("unknown exception");
      source_done_ = true;
      return PollResult::kDone;
    }
    stats_.busy_ns += static_cast<uint64_t>(NowNs() - t0);
    stats_.tuples_in += produced;
    FoldStreamTally();
    if (produced == 0) {
      if (!FlushAll(true)) return PollResult::kBlocked;
      // An external source with no input right now is idle, not done —
      // the worker re-polls after its park timeout.
      if (!spout_->Exhausted()) {
        return progressed ? PollResult::kProgress : PollResult::kIdle;
      }
      source_done_ = true;  // bounded source exhausted
      return PollResult::kDone;
    }
    progressed = true;
    // Back-pressure hit mid-emit: yield the worker to the consumers.
    if (pending_head_ < pending_.size()) return PollResult::kProgress;
  }
  return PollResult::kProgress;
}

PollResult Task::PollBolt(int budget) {
  bool any = false;
  for (int n = 0; n < budget; ++n) {
    Envelope env;
    Channel* from = nullptr;
    for (size_t k = 0; k < inputs_.size(); ++k) {
      Channel* ch = inputs_[(in_cursor_ + k) % inputs_.size()];
      if (ch->TryPop(&env)) {
        in_cursor_ = (in_cursor_ + k + 1) % inputs_.size();
        from = ch;
        break;
      }
    }
    if (from == nullptr) break;
    Consume(std::move(env), from);
    any = true;
    // Downstream full: stop pulling input until the parked envelope
    // lands, or this task's staging memory would grow unboundedly.
    if (pending_head_ < pending_.size()) return PollResult::kProgress;
  }
  if (!any) {
    // Idle: push out partial batches so low-rate streams progress.
    if (!FlushAll(true)) return PollResult::kBlocked;
    return PollResult::kIdle;
  }
  return PollResult::kProgress;
}

PollResult Task::Poll(int budget) {
  // Two atomic ops per quantum buy a deterministic crash on any
  // double-poll the stealing scheduler would otherwise turn into
  // silent state corruption.
  PollGuard guard(this);
  if (failed_.load(std::memory_order_relaxed)) return PollResult::kDone;
  if (!faults_.empty() && StallInjected()) return PollResult::kIdle;
  if (!TryDrainPending()) return PollResult::kBlocked;
  return spout_ ? PollSpout(budget) : PollBolt(budget);
}

void Task::Drain(bool flush_operator) {
  TryDrainPending();
  if (bolt_) {
    // Upstream operators drained before us (topological order), so
    // anything still queued on the inputs — late partials, upstream
    // finals — is consumed now, before this operator's own flush.
    Envelope env;
    for (Channel* ch : inputs_) {
      while (ch->TryPop(&env)) Consume(std::move(env), ch);
    }
    // Flush is an operator call too: contain its exceptions like
    // Process's, so a throwing final cannot take the epilogue down.
    if (flush_operator && !failed_.load(std::memory_order_relaxed)) {
      try {
        bolt_->Flush(this);
      } catch (const std::exception& e) {
        RecordFailure(e.what());
      } catch (...) {
        RecordFailure("unknown exception");
      }
      FoldStreamTally();
    }
  }
  FlushAll(true);
}

}  // namespace brisk::engine

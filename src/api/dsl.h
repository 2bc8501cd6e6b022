// brisk::dsl — a typed, fluent dataflow layer over the Storm-style API.
//
// A Pipeline is written as a chain of verbs on Stream handles and
// *lowers* onto the validated api::Topology (§2.2's operator/stream
// DAG), so the profiling run, the RLAS optimizer, the simulator, and
// the engine consume DSL programs unchanged. Each verb maps onto a paper
// concept:
//
//   DSL verb                     | Topology lowering (paper anchor)
//   -----------------------------+------------------------------------
//   Pipeline::Source(...)        | spout vertex (§2.2 "Spout")
//   .Map / .Filter               | kernel bolt (api::KernelBolt) the
//                                | engine runs a jumbo tuple at a time
//                                | (§5.2), shuffle-grouped input
//                                | (§2.2 "shuffle grouping")
//   .FlatMap(fn) / .Process /    | interpreted bolt, one call per
//       .Sink                    | tuple; may emit on side outputs
//                                | (FlatMap(KernelDesc) is a kernel)
//   .KeyBy(f).Aggregate(init,fn) | stateful kernel bolt, fields
//                                | grouping hashed on field f (§2.2
//                                | "fields grouping" — state
//                                | partitioning)
//   .KeyBy(f).Aggregate(init,fn, | same, with a checkpoint codec for
//       encode,decode)           | States richer than one number
//   .Broadcast() / .Global()     | broadcast / global grouping on the
//                                | next attached consumer
//   .SideOutput("name")          | named output stream (App. A's
//                                | declareStream), id resolved by name
//   .Merge(stream / keyed)       | one more input edge on the same
//                                | bolt, with that input's grouping
//                                | (§2.2 multi-input operators, e.g.
//                                | Linear Road's toll_notify)
//   .Parallelism(n)              | base replication the optimizer's
//                                | Algorithm 1 scales from (§4)
//   .Sink(...)                   | terminal bolt; the throughput
//                                | measurement point (§2.2)
//
// User code is plain lambdas. Map, Filter and Aggregate lower onto
// kernel descriptors (api/kernels.h), so each of those verbs has one
// execution path: the compiled pipeline. The other bolt verbs lower
// onto a synthesized Operator adapter. Per-replica state is natural:
// every factory runs once per replica at Prepare time, and
// plain-function forms are copied per replica, so mutable captures are
// replica-local without any synchronization (the engine's
// one-thread-per-instance contract).
//
// The DSL covers chains with fan-out (attach several consumers to one
// Stream handle), named side outputs, and multi-input operators
// (Merge further inputs into the bolt a verb attached).
//
// Lifetime: Stream/KeyedStream handles borrow the Pipeline and are
// invalidated when it is moved (e.g. into Job::Of) or destroyed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/kernels.h"
#include "api/operator.h"
#include "api/topology.h"
#include "common/status.h"
#include "common/tuple.h"
#include "io/egress.h"
#include "io/mmap_source.h"
#include "io/socket.h"

namespace brisk::dsl {

class Pipeline;
class Stream;
class KeyedStream;

/// Output sink handed to DSL lambdas: api::OutputCollector plus the
/// operator's declared stream names, so side outputs are addressed by
/// name instead of raw stream ids.
class Collector {
 public:
  Collector(api::OutputCollector* out, const std::vector<std::string>* streams)
      : out_(out), streams_(streams) {}

  /// Emits on the default stream.
  void Emit(Tuple t) { out_->Emit(std::move(t)); }

  /// Emits `fields` on the default stream, carrying `from`'s origin
  /// timestamp so end-to-end latency accounting survives the hop.
  void Emit(const Tuple& from, std::initializer_list<Field> fields) {
    out_->Emit(Derive(from, fields));
  }

  /// Emits on a named side-output stream (declared with
  /// Stream::SideOutput). Returns false — and drops the tuple — when
  /// this operator declares no such stream. Resolution is a linear
  /// scan over the (few) declared names per call; hot side-output
  /// paths should resolve once at Prepare (OperatorContext::StreamId
  /// inside a Process/Source factory) and use the id overload.
  bool EmitTo(const std::string& stream, Tuple t);
  bool EmitTo(const std::string& stream, const Tuple& from,
              std::initializer_list<Field> fields) {
    return EmitTo(stream, Derive(from, fields));
  }

  /// Emits on a stream id resolved earlier — no per-tuple name lookup.
  void EmitTo(uint16_t stream_id, Tuple t) {
    out_->EmitTo(stream_id, std::move(t));
  }

 private:
  static Tuple Derive(const Tuple& from, std::initializer_list<Field> fields) {
    Tuple t(fields);
    t.origin_ts_ns = from.origin_ts_ns;
    return t;
  }

  api::OutputCollector* out_;
  const std::vector<std::string>* streams_;
};

/// Source body: produce up to `max_tuples`, return how many (0 ends a
/// bounded source). The source stamps Tuple::origin_ts_ns itself.
using SourceFn = std::function<size_t(size_t max_tuples, Collector& out)>;
/// Builds one SourceFn per replica at Prepare time (per-replica
/// seeding via ctx.replica_index).
using SourceFactory = std::function<SourceFn(const api::OperatorContext&)>;

/// General bolt body: zero or more emits per input tuple.
using ProcessFn = std::function<void(const Tuple& in, Collector& out)>;
/// Builds one ProcessFn per replica at Prepare time.
using ProcessFactory = std::function<ProcessFn(const api::OperatorContext&)>;

/// One-to-one transform; the result goes out on the default stream and
/// inherits the input's origin timestamp unless the lambda set one.
using MapFn = std::function<Tuple(const Tuple& in)>;
/// Keep-predicate: true forwards the tuple unchanged.
using FilterFn = std::function<bool(const Tuple& in)>;
/// Terminal consumer (telemetry, side effects); emits nothing.
using SinkFn = std::function<void(const Tuple& in)>;

/// Handle to one operator's output stream plus the grouping the *next*
/// attached consumer subscribes with (shuffle unless overridden).
/// Cheap value type; borrows the Pipeline.
class Stream {
 public:
  /// The general verb: attaches an interpreted bolt built by `factory`
  /// (one ProcessFn per replica), which may emit on side outputs.
  /// FlatMap(ProcessFn) and Sink lower onto this.
  Stream Process(const std::string& name, ProcessFactory factory) const;

  /// Attaches an interpreted bolt running `fn` per input tuple. The
  /// function object is copied per replica, so mutable captures are
  /// replica-local.
  Stream FlatMap(const std::string& name, ProcessFn fn) const;

  // Kernel verbs (api/kernels.h). The attached bolt is an
  // api::KernelBolt: the engine dispatches whole batches through its
  // compiled pipeline, and the fusion pass can concatenate adjacent
  // kernel chains into one.

  /// Attaches a one-to-one transform (lowers onto api::MapOf).
  Stream Map(const std::string& name, MapFn fn) const;

  /// Attaches a filter forwarding tuples `fn` accepts (lowers onto
  /// api::FilterOf).
  Stream Filter(const std::string& name, FilterFn fn) const;

  /// Attaches a kernel-backed map (e.g. api::MapOf / MapNumConst).
  Stream Map(const std::string& name, api::KernelDesc kernel) const;
  /// Attaches a kernel-backed filter (api::FilterOf / FilterCmpConst).
  Stream Filter(const std::string& name, api::KernelDesc kernel) const;
  /// Attaches a kernel-backed expanding transform (api::FlatMapOf).
  Stream FlatMap(const std::string& name, api::KernelDesc kernel) const;

  /// Keys the stream by tuple field `field`: downstream state is
  /// partitioned with fields grouping (same key → same replica).
  KeyedStream KeyBy(size_t field) const;

  /// Next attached consumer receives every tuple on every replica.
  Stream Broadcast() const;
  /// Next attached consumer receives all tuples on replica 0.
  Stream Global() const;
  /// Back to round-robin (the default).
  Stream Shuffle() const;

  /// Attaches a terminal consumer.
  Stream Sink(const std::string& name, SinkFn fn) const;

  /// Interop: attaches a Storm-layer Operator implementation as a DSL
  /// bolt — the full virtual surface (Flush, keyed-state hooks) where
  /// Process only covers per-tuple calls. The egress verbs lower onto
  /// this.
  Stream Operate(const std::string& name, api::OperatorFactory factory) const;

  // Egress verbs (src/io): terminal bolts writing every input tuple as
  // a framed record. Binary egress round-trips tuples exactly, so
  // ToFile output replays through Pipeline::FromFile.

  /// Writes this stream to a file (replicas > 1 write ".r<i>" parts).
  Stream ToFile(const std::string& name, io::EgressOptions options) const;
  Stream ToFile(const std::string& name, std::string path,
                io::RecordCodec codec = io::RecordCodec::kBinary) const;
  /// Writes this stream to a TCP endpoint (one connection per replica).
  Stream ToSocket(const std::string& name, std::string host, uint16_t port,
                  io::RecordCodec codec = io::RecordCodec::kBinary) const;

  /// Sets the base parallelism of the operator this stream leaves —
  /// the replication level the optimizer scales from.
  Stream Parallelism(int n) const;

  /// Declares a named side-output stream on this operator (id 1+, in
  /// declaration order) and returns a handle to it; tuples reach it
  /// via Collector::EmitTo(name, ...).
  Stream SideOutput(const std::string& stream) const;

  /// Subscribes the operator this handle leaves to `input` as well,
  /// with `input`'s grouping (shuffle, broadcast or global) and stream
  /// (a SideOutput handle picks its named stream). Returns this
  /// handle, so inputs chain: a.Process(...).Merge(b).Merge(c). A
  /// handle from another Pipeline fails Build() with InvalidArgument.
  Stream Merge(const Stream& input) const;
  /// Same, fields-grouped on `input`'s KeyBy field.
  Stream Merge(const KeyedStream& input) const;

 private:
  friend class Pipeline;
  friend class KeyedStream;

  Stream(Pipeline* pipe, int node, std::string stream)
      : pipe_(pipe), node_(node), stream_(std::move(stream)) {}

  Stream Attach(const std::string& name, ProcessFactory factory,
                api::GroupingType grouping, size_t key_field) const;
  Stream AttachKernel(const std::string& name, api::KernelDesc kernel,
                      api::GroupingType grouping, size_t key_field) const;

  Pipeline* pipe_;
  int node_;
  std::string stream_;  ///< producer stream this handle refers to
  api::GroupingType grouping_ = api::GroupingType::kShuffle;
  size_t key_field_ = 0;
};

/// A Stream keyed by one tuple field; produced by Stream::KeyBy.
class KeyedStream {
 public:
  /// Attaches a stateful per-key aggregation: one `State` (copied from
  /// `init`) per distinct key per replica, updated by `fn`, which also
  /// decides what to emit through an api::RowEmitter (emitted tuples
  /// with an unset origin timestamp inherit the input's). Fields
  /// grouping guarantees all tuples of a key meet the same replica's
  /// state. The bolt is an api::KernelBolt: the engine updates keyed
  /// state a batch at a time and the fusion pass can chain it.
  ///
  /// State lives in an api::KeyedStateTable keyed by the grouping
  /// Field itself: each tuple hashes its key field in place, with no
  /// per-tuple key string, and a key is copied only when first seen.
  /// Keys of different kinds never share state (0, 0.0 and "0" are
  /// three keys).
  ///
  /// Every State moves through a checkpoint codec: checkpoints capture
  /// (key, State) entries through it, and when a plan migration changes
  /// this operator's replication the engine snapshots every old
  /// replica, re-buckets by the fields-grouping hash and restores each
  /// bucket into its owner replica — counts and windows survive the
  /// re-partitioning. This form is for arithmetic States, which carry a
  /// one-field codec; richer States pass one (the overload below).
  template <typename State>
  Stream Aggregate(
      const std::string& name, State init,
      std::function<void(State&, const Tuple&, api::RowEmitter&)> fn) const {
    return base_.AttachKernel(
        name,
        api::AggregateOf<State>(key_field_, std::move(init), std::move(fn),
                                1.0, name),
        api::GroupingType::kFields, key_field_);
  }

  /// Aggregate with an explicit checkpoint codec for States a single
  /// arithmetic Field cannot carry (windows, sketches). The codec must
  /// round-trip the state bit-exactly — recovery differential tests
  /// hold restored replicas to never-crashed behavior.
  template <typename State>
  Stream Aggregate(
      const std::string& name, State init,
      std::function<void(State&, const Tuple&, api::RowEmitter&)> fn,
      std::function<Tuple(const State&)> encode,
      std::function<State(const Tuple&)> decode) const {
    return base_.AttachKernel(
        name,
        api::AggregateOf<State>(key_field_, std::move(init), std::move(fn),
                                std::move(encode), std::move(decode), 1.0,
                                name),
        api::GroupingType::kFields, key_field_);
  }

  /// General fields-grouped bolt (state partitioning without the
  /// per-key map Aggregate maintains).
  Stream Process(const std::string& name, ProcessFactory factory) const {
    return base_.Attach(name, std::move(factory),
                        api::GroupingType::kFields, key_field_);
  }

 private:
  friend class Stream;
  KeyedStream(Stream base, size_t key_field)
      : base_(base), key_field_(key_field) {}

  Stream base_;
  size_t key_field_;
};

/// A dataflow program under construction. Create, chain verbs from
/// Source(...), then Build() (or hand the whole Pipeline to Job::Of,
/// which builds it for you).
class Pipeline {
 public:
  explicit Pipeline(std::string name) : name_(std::move(name)) {}

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  /// Moving is allowed (Job::Of takes the Pipeline by value) but
  /// invalidates outstanding Stream handles.
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Adds a lambda source; `factory` builds one SourceFn per replica.
  Stream Source(const std::string& name, SourceFactory factory);
  /// Adds a stateless-construction source (the function object is
  /// copied per replica).
  Stream Source(const std::string& name, SourceFn fn);
  /// Interop: mounts an existing Storm-layer Spout implementation as a
  /// DSL source.
  Stream Source(const std::string& name, api::SpoutFactory spout);

  // Ingest verbs (src/io): external data as DSL sources.

  /// Reads a record file through the shared mmap source: all replicas
  /// share one mapping and split the file by slice (io/mmap_source.h).
  /// Positions are byte offsets, so file jobs checkpoint/restore to
  /// exact record boundaries.
  Stream FromFile(const std::string& name, io::FileSourceOptions options);

  /// Accepts framed records on a TCP listener shared by all replicas.
  /// Not replayable (checkpoints are refused) unless
  /// TcpSourceOptions::journal_dir is set.
  Stream FromSocket(const std::string& name,
                    std::shared_ptr<io::TcpListener> listener,
                    io::TcpSourceOptions options);
  Stream FromSocket(const std::string& name, const std::string& bind_addr,
                    uint16_t port, io::TcpSourceOptions options);

  /// Lowers the pipeline onto a validated api::Topology. All builder
  /// misuse (duplicate names, empty pipeline, ...) surfaces here, with
  /// the same deferred-error contract as TopologyBuilder::Build.
  StatusOr<api::Topology> Build() &&;

  const std::string& name() const { return name_; }

 private:
  friend class Stream;

  struct Sub {
    int producer;
    std::string stream;
    api::GroupingType grouping;
    size_t key_field;
  };
  struct Node {
    std::string name;
    bool is_source = false;
    api::SpoutFactory spout;   // interop source
    SourceFactory source;      // lambda source
    api::OperatorFactory bolt; // interop bolt (Stream::Operate)
    ProcessFactory process;    // interpreted bolts and sinks
    std::vector<api::KernelDesc> kernels;  // kernel-backed verbs
    int parallelism = 1;
    std::vector<std::string> streams{"default"};
    std::vector<Sub> subs;
  };

  int AddNode(Node node) {
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  std::string name_;
  std::vector<Node> nodes_;
  Status deferred_error_;  // first verb misuse, reported at Build
};

}  // namespace brisk::dsl

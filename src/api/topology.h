// Logical application DAG (§2.2): vertices are operators, edges are
// streams. Built once with TopologyBuilder, consumed by the optimizer
// (structure + profiles), the simulator, and the real engine
// (factories).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/kernels.h"
#include "api/operator.h"
#include "common/status.h"

namespace brisk::api {

/// How a consumer partitions an input stream across its replicas.
enum class GroupingType {
  kShuffle,    ///< round-robin across consumer replicas
  kFields,     ///< hash of a key field → replica (stateful ops)
  kBroadcast,  ///< every replica receives every tuple
  kGlobal,     ///< all tuples to replica 0
};

const char* GroupingTypeName(GroupingType g);

/// A consumer's subscription to one producer output stream.
struct Subscription {
  int producer_op = -1;      ///< operator id within the topology
  uint16_t stream_id = 0;    ///< producer's output stream index
  GroupingType grouping = GroupingType::kShuffle;
  size_t key_field = 0;      ///< for kFields: tuple field to hash
};

/// One logical operator in the DAG.
struct OperatorDecl {
  int id = -1;
  std::string name;
  bool is_spout = false;
  SpoutFactory spout_factory;
  OperatorFactory bolt_factory;

  /// Declared output stream names; index is the stream id. Every
  /// operator has at least the "default" stream.
  std::vector<std::string> output_streams{"default"};

  /// Input subscriptions (empty for spouts).
  std::vector<Subscription> inputs;

  /// Initial replication level (the optimizer may raise it).
  int base_parallelism = 1;

  /// When non-empty, declares that this operator's behavior is exactly
  /// this kernel chain (see api/kernels.h). The factories stay
  /// authoritative for execution; the declaration lets the fusion pass
  /// concatenate chains into one compiled pipeline and lets the cost
  /// model price a compiled chain below its interpreted sum.
  std::vector<KernelDesc> kernels;

  /// Fusion bookkeeping. `chain_members` lists the logical operators a
  /// fused vertex stands for, in chain order (empty == not fused).
  /// For interpreted chains, `chain_bolts` (and `chain_spout` for a
  /// spout-rooted chain) keep the member factories so a later fusion
  /// round flattens the chain instead of nesting wrappers.
  std::vector<std::string> chain_members;
  std::vector<OperatorFactory> chain_bolts;
  SpoutFactory chain_spout;

  /// Stream id of a declared output stream, by name. Code that routes
  /// to named streams should resolve ids through this (or through
  /// OperatorContext::StreamId at Prepare time) instead of hard-coding
  /// declaration order — a silent-misroute footgun when streams are
  /// added or reordered.
  StatusOr<uint16_t> StreamId(const std::string& stream) const;
};

/// A directed edge in stream granularity: producer stream → consumer.
struct StreamEdge {
  int producer_op = -1;
  uint16_t stream_id = 0;
  int consumer_op = -1;
  GroupingType grouping = GroupingType::kShuffle;
  size_t key_field = 0;
};

/// Immutable, validated application DAG.
class Topology {
 public:
  const std::string& name() const { return name_; }
  int num_operators() const { return static_cast<int>(ops_.size()); }
  const OperatorDecl& op(int id) const { return ops_[id]; }
  const std::vector<OperatorDecl>& ops() const { return ops_; }

  /// Operator id by name.
  StatusOr<int> OpId(const std::string& name) const;

  /// All edges, producer-major.
  const std::vector<StreamEdge>& edges() const { return edges_; }

  /// Edges whose consumer is `op`. Consumer-major adjacency is
  /// precomputed at Build() — these are O(1) and allocation-free, as
  /// the optimizer's inner loops call them per model evaluation.
  const std::vector<StreamEdge>& InEdges(int op) const {
    return in_edges_[op];
  }
  /// Edges whose producer is `op` (precomputed, see InEdges).
  const std::vector<StreamEdge>& OutEdges(int op) const {
    return out_edges_[op];
  }

  /// Operator ids of spouts / sinks (no out-edges).
  const std::vector<int>& spouts() const { return spouts_; }
  const std::vector<int>& sinks() const { return sinks_; }

  /// Operator ids in a topological order (spouts first). The DAG is
  /// validated acyclic at Build time so this always succeeds.
  const std::vector<int>& topological_order() const { return topo_order_; }

  /// True when `e` links a replica chain: a shuffle edge that is its
  /// producer's only out-edge, on the default stream, and its
  /// consumer's only in-edge. Fusing such a pair preserves semantics,
  /// and a plan may wire its replicas one-to-one.
  bool IsChainEdge(const StreamEdge& e) const;

  /// First operator of the chain `op` belongs to (following chain
  /// edges upstream); `op` itself when no chain edge enters it.
  int ChainHead(int op) const { return chain_head_[op]; }

  std::string ToString() const;

 private:
  friend class TopologyBuilder;
  std::string name_;
  std::vector<OperatorDecl> ops_;
  std::vector<StreamEdge> edges_;
  std::vector<std::vector<StreamEdge>> in_edges_;   // consumer-major
  std::vector<std::vector<StreamEdge>> out_edges_;  // producer-major
  std::vector<int> spouts_;
  std::vector<int> sinks_;
  std::vector<int> topo_order_;
  std::vector<int> chain_head_;
  std::map<std::string, int> by_name_;
};

/// Fluent builder mirroring Storm's TopologyBuilder.
///
///   TopologyBuilder b("wc");
///   b.AddSpout("spout", spout_factory);
///   b.AddBolt("parser", parser_factory, 2).ShuffleFrom("spout");
///   b.AddBolt("counter", counter_factory).FieldsFrom("splitter", 0);
///   auto topo = std::move(b).Build();
class TopologyBuilder {
 public:
  /// Handle to declare a bolt's subscriptions and output streams.
  class BoltDeclarer {
   public:
    BoltDeclarer(TopologyBuilder* parent, int op_id)
        : parent_(parent), op_id_(op_id) {}

    /// Subscribes with shuffle grouping to `producer`'s stream.
    BoltDeclarer& ShuffleFrom(const std::string& producer,
                              const std::string& stream = "default");
    /// Subscribes with fields grouping on `key_field`.
    BoltDeclarer& FieldsFrom(const std::string& producer, size_t key_field,
                             const std::string& stream = "default");
    BoltDeclarer& BroadcastFrom(const std::string& producer,
                                const std::string& stream = "default");
    BoltDeclarer& GlobalFrom(const std::string& producer,
                             const std::string& stream = "default");

    /// Declares an extra named output stream; returns its stream id.
    BoltDeclarer& DeclareStream(const std::string& stream);

    /// Declares this bolt's behavior as a kernel chain (OperatorDecl::
    /// kernels).
    BoltDeclarer& WithKernels(std::vector<KernelDesc> kernels);

    /// Records fusion bookkeeping (OperatorDecl::{chain_members,
    /// chain_bolts}) for a fused vertex.
    BoltDeclarer& WithChain(std::vector<std::string> members,
                            std::vector<OperatorFactory> bolts);

   private:
    TopologyBuilder* parent_;
    int op_id_;
  };

  class SpoutDeclarer {
   public:
    SpoutDeclarer(TopologyBuilder* parent, int op_id)
        : parent_(parent), op_id_(op_id) {}
    SpoutDeclarer& DeclareStream(const std::string& stream);

    /// Records fusion bookkeeping for a spout-rooted fused chain: the
    /// head spout factory plus the member bolt factories.
    SpoutDeclarer& WithChain(std::vector<std::string> members,
                             SpoutFactory head,
                             std::vector<OperatorFactory> bolts);

   private:
    TopologyBuilder* parent_;
    int op_id_;
  };

  explicit TopologyBuilder(std::string name) : name_(std::move(name)) {}

  SpoutDeclarer AddSpout(const std::string& name, SpoutFactory factory,
                         int parallelism = 1);
  BoltDeclarer AddBolt(const std::string& name, OperatorFactory factory,
                       int parallelism = 1);

  /// Validates and freezes the DAG: names unique, subscriptions resolve,
  /// spouts have no inputs, every bolt has at least one input, graph is
  /// acyclic, every stream id referenced exists.
  StatusOr<Topology> Build() &&;

 private:
  friend class BoltDeclarer;
  friend class SpoutDeclarer;

  void DeclareStreamOn(int op_id, const std::string& stream);

  struct PendingSub {
    int consumer_op;
    std::string producer;
    std::string stream;
    GroupingType grouping;
    size_t key_field;
  };

  std::string name_;
  std::vector<OperatorDecl> ops_;
  std::vector<PendingSub> pending_;
  Status deferred_error_;  // first builder-time misuse, reported at Build
};

}  // namespace brisk::api

#include "api/topology.h"

#include <algorithm>
#include <queue>
#include <set>
#include <sstream>

namespace brisk::api {

const char* GroupingTypeName(GroupingType g) {
  switch (g) {
    case GroupingType::kShuffle:
      return "shuffle";
    case GroupingType::kFields:
      return "fields";
    case GroupingType::kBroadcast:
      return "broadcast";
    case GroupingType::kGlobal:
      return "global";
  }
  return "?";
}

StatusOr<uint16_t> OperatorDecl::StreamId(const std::string& stream) const {
  return ResolveStreamId(output_streams, name, stream);
}

StatusOr<int> Topology::OpId(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no operator named '" + name + "'");
  }
  return it->second;
}

std::string Topology::ToString() const {
  std::ostringstream os;
  os << "Topology '" << name_ << "' (" << ops_.size() << " operators)\n";
  for (const auto& op : ops_) {
    os << "  [" << op.id << "] " << op.name
       << (op.is_spout ? " (spout)" : "") << " x" << op.base_parallelism;
    for (const auto& sub : op.inputs) {
      os << "  <- " << ops_[sub.producer_op].name << "."
         << ops_[sub.producer_op].output_streams[sub.stream_id] << " ("
         << GroupingTypeName(sub.grouping) << ")";
    }
    os << "\n";
  }
  return os.str();
}

TopologyBuilder::SpoutDeclarer TopologyBuilder::AddSpout(
    const std::string& name, SpoutFactory factory, int parallelism) {
  OperatorDecl decl;
  decl.id = static_cast<int>(ops_.size());
  decl.name = name;
  decl.is_spout = true;
  decl.spout_factory = std::move(factory);
  decl.base_parallelism = parallelism;
  ops_.push_back(std::move(decl));
  return SpoutDeclarer(this, ops_.back().id);
}

TopologyBuilder::BoltDeclarer TopologyBuilder::AddBolt(
    const std::string& name, OperatorFactory factory, int parallelism) {
  OperatorDecl decl;
  decl.id = static_cast<int>(ops_.size());
  decl.name = name;
  decl.is_spout = false;
  decl.bolt_factory = std::move(factory);
  decl.base_parallelism = parallelism;
  ops_.push_back(std::move(decl));
  return BoltDeclarer(this, ops_.back().id);
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::ShuffleFrom(
    const std::string& producer, const std::string& stream) {
  parent_->pending_.push_back(
      {op_id_, producer, stream, GroupingType::kShuffle, 0});
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::FieldsFrom(
    const std::string& producer, size_t key_field,
    const std::string& stream) {
  parent_->pending_.push_back(
      {op_id_, producer, stream, GroupingType::kFields, key_field});
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::BroadcastFrom(
    const std::string& producer, const std::string& stream) {
  parent_->pending_.push_back(
      {op_id_, producer, stream, GroupingType::kBroadcast, 0});
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::GlobalFrom(
    const std::string& producer, const std::string& stream) {
  parent_->pending_.push_back(
      {op_id_, producer, stream, GroupingType::kGlobal, 0});
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::DeclareStream(
    const std::string& stream) {
  parent_->DeclareStreamOn(op_id_, stream);
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::WithKernels(
    std::vector<KernelDesc> kernels) {
  parent_->ops_[op_id_].kernels = std::move(kernels);
  return *this;
}

TopologyBuilder::BoltDeclarer& TopologyBuilder::BoltDeclarer::WithChain(
    std::vector<std::string> members, std::vector<OperatorFactory> bolts) {
  auto& decl = parent_->ops_[op_id_];
  decl.chain_members = std::move(members);
  decl.chain_bolts = std::move(bolts);
  return *this;
}

TopologyBuilder::SpoutDeclarer& TopologyBuilder::SpoutDeclarer::DeclareStream(
    const std::string& stream) {
  parent_->DeclareStreamOn(op_id_, stream);
  return *this;
}

TopologyBuilder::SpoutDeclarer& TopologyBuilder::SpoutDeclarer::WithChain(
    std::vector<std::string> members, SpoutFactory head,
    std::vector<OperatorFactory> bolts) {
  auto& decl = parent_->ops_[op_id_];
  decl.chain_members = std::move(members);
  decl.chain_spout = std::move(head);
  decl.chain_bolts = std::move(bolts);
  return *this;
}

void TopologyBuilder::DeclareStreamOn(int op_id, const std::string& stream) {
  auto& streams = ops_[op_id].output_streams;
  if (FindStreamId(streams, stream) >= 0) {
    // Builder-time misuse: recorded here, surfaced at Build() — the
    // declarer chain cannot report a Status mid-fluent-call.
    if (deferred_error_.ok()) {
      deferred_error_ = Status::AlreadyExists(
          "operator '" + ops_[op_id].name + "' declares stream '" + stream +
          "' twice");
    }
    return;
  }
  streams.push_back(stream);
}

StatusOr<Topology> TopologyBuilder::Build() && {
  if (!deferred_error_.ok()) return deferred_error_;
  if (ops_.empty()) {
    return Status::InvalidArgument("topology '" + name_ + "' is empty");
  }

  // Unique names.
  std::map<std::string, int> by_name;
  for (const auto& op : ops_) {
    if (op.name.empty()) {
      return Status::InvalidArgument("operator with empty name");
    }
    if (!by_name.emplace(op.name, op.id).second) {
      return Status::AlreadyExists("duplicate operator name '" + op.name +
                                   "'");
    }
    if (op.base_parallelism < 1) {
      return Status::InvalidArgument("operator '" + op.name +
                                     "' has parallelism < 1");
    }
  }

  Topology topo;
  topo.name_ = name_;
  topo.ops_ = ops_;
  topo.by_name_ = by_name;

  // Resolve subscriptions.
  for (const auto& sub : pending_) {
    auto it = by_name.find(sub.producer);
    if (it == by_name.end()) {
      return Status::NotFound("operator '" + ops_[sub.consumer_op].name +
                              "' subscribes to unknown producer '" +
                              sub.producer + "'");
    }
    const int producer_id = it->second;
    if (producer_id == sub.consumer_op) {
      return Status::InvalidArgument("operator '" + sub.producer +
                                     "' subscribes to itself");
    }
    Subscription s;
    s.producer_op = producer_id;
    BRISK_ASSIGN_OR_RETURN(
        s.stream_id, ResolveStreamId(ops_[producer_id].output_streams,
                                     sub.producer, sub.stream));
    s.grouping = sub.grouping;
    s.key_field = sub.key_field;
    topo.ops_[sub.consumer_op].inputs.push_back(s);

    StreamEdge e;
    e.producer_op = producer_id;
    e.stream_id = s.stream_id;
    e.consumer_op = sub.consumer_op;
    e.grouping = sub.grouping;
    e.key_field = sub.key_field;
    topo.edges_.push_back(e);
  }

  // Structural checks.
  for (const auto& op : topo.ops_) {
    if (op.is_spout) {
      if (!op.inputs.empty()) {
        return Status::InvalidArgument("spout '" + op.name +
                                       "' must not have inputs");
      }
      if (!op.spout_factory) {
        return Status::InvalidArgument("spout '" + op.name +
                                       "' has no factory");
      }
      topo.spouts_.push_back(op.id);
    } else {
      if (op.inputs.empty()) {
        return Status::InvalidArgument("bolt '" + op.name +
                                       "' has no inputs");
      }
      if (!op.bolt_factory) {
        return Status::InvalidArgument("bolt '" + op.name +
                                       "' has no factory");
      }
    }
  }
  if (topo.spouts_.empty()) {
    return Status::InvalidArgument("topology has no spout");
  }

  // Sinks: no out-edges.
  std::set<int> has_out;
  for (const auto& e : topo.edges_) has_out.insert(e.producer_op);
  for (const auto& op : topo.ops_) {
    if (!has_out.count(op.id)) topo.sinks_.push_back(op.id);
  }

  // Kahn's algorithm: topological order + cycle detection.
  const int n = topo.num_operators();
  std::vector<int> indegree(n, 0);
  for (const auto& e : topo.edges_) ++indegree[e.consumer_op];
  std::queue<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop();
    topo.topo_order_.push_back(u);
    for (const auto& e : topo.edges_) {
      if (e.producer_op == u && --indegree[e.consumer_op] == 0) {
        ready.push(e.consumer_op);
      }
    }
  }
  if (static_cast<int>(topo.topo_order_.size()) != n) {
    return Status::InvalidArgument("topology contains a cycle");
  }

  // Adjacency, both directions, so InEdges/OutEdges are O(1) lookups in
  // the optimizer's inner loops.
  topo.in_edges_.resize(n);
  topo.out_edges_.resize(n);
  for (const auto& e : topo.edges_) {
    topo.in_edges_[e.consumer_op].push_back(e);
    topo.out_edges_[e.producer_op].push_back(e);
  }

  // Chain heads, producers first so a chain inherits its head.
  topo.chain_head_.resize(n);
  for (const int op : topo.topo_order_) {
    const auto& in = topo.in_edges_[op];
    topo.chain_head_[op] = in.size() == 1 && topo.IsChainEdge(in[0])
                               ? topo.chain_head_[in[0].producer_op]
                               : op;
  }

  return topo;
}

bool Topology::IsChainEdge(const StreamEdge& e) const {
  return e.grouping == GroupingType::kShuffle && e.stream_id == 0 &&
         out_edges_[e.producer_op].size() == 1 &&
         in_edges_[e.consumer_op].size() == 1;
}

}  // namespace brisk::api

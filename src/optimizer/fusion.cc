#include "optimizer/fusion.h"

#include <algorithm>
#include <utility>

#include "api/pipeline.h"
#include "common/logging.h"

namespace brisk::opt {

namespace {

/// N member bolts executing back-to-back in one instance — the
/// interpreted lowering of a fused chain. Used whenever at least one
/// member is not kernel-backed (fully kernel-backed chains lower to
/// api::KernelBolt instead).
class FusedChainBolt : public api::Operator {
 public:
  explicit FusedChainBolt(
      const std::vector<api::OperatorFactory>& factories) {
    members_.reserve(factories.size());
    for (const auto& f : factories) members_.push_back(f());
  }

  Status Prepare(const api::OperatorContext& ctx) override {
    for (auto& m : members_) BRISK_RETURN_NOT_OK(m->Prepare(ctx));
    return Status::OK();
  }

  void Process(const Tuple& in, api::OutputCollector* out) override {
    ProcessFrom(0, in, out);
  }

  void Flush(api::OutputCollector* out) override {
    // Member i's final emissions still travel through members i+1..n —
    // the order a pairwise FusedBolt flushed in, generalized.
    for (size_t i = 0; i < members_.size(); ++i) {
      StepCollector step(this, i + 1, out);
      members_[i]->Flush(&step);
    }
  }

  std::vector<api::CheckpointEntry> SnapshotKeyedState() override {
    std::vector<api::CheckpointEntry> all;
    for (auto& m : members_) {
      auto part = m->SnapshotKeyedState();
      for (auto& e : part) all.push_back(std::move(e));
    }
    return all;
  }

  void RestoreKeyedState(std::vector<api::CheckpointEntry> entries) override {
    // Every member sees every entry; stateless members ignore them. At
    // most one chain member is stateful (a second aggregate would need
    // a fields-grouped input, which fusion legality excludes), so no
    // member ever decodes another's state.
    for (size_t i = 0; i + 1 < members_.size(); ++i) {
      members_[i]->RestoreKeyedState(entries);
    }
    members_.back()->RestoreKeyedState(std::move(entries));
  }

  /// Forwards emissions of member `next-1` into member `next` (or the
  /// real collector past the end); `next` 0 feeds the whole chain.
  /// Intermediate named streams collapse onto the chain: fusion
  /// legality restricts every producer but the last to its default
  /// stream.
  class StepCollector : public api::OutputCollector {
   public:
    StepCollector(FusedChainBolt* chain, size_t next,
                  api::OutputCollector* out)
        : chain_(chain), next_(next), out_(out) {}

    void Emit(Tuple t) override {
      if (next_ >= chain_->members_.size()) {
        out_->Emit(std::move(t));
      } else {
        chain_->ProcessFrom(next_, t, out_);
      }
    }
    void EmitTo(uint16_t stream_id, Tuple t) override {
      if (next_ >= chain_->members_.size()) {
        out_->EmitTo(stream_id, std::move(t));
      } else {
        chain_->ProcessFrom(next_, t, out_);
      }
    }

   private:
    FusedChainBolt* chain_;
    size_t next_;
    api::OutputCollector* out_;
  };

 private:
  void ProcessFrom(size_t idx, const Tuple& t, api::OutputCollector* out) {
    StepCollector step(this, idx + 1, out);
    members_[idx]->Process(t, &step);
  }

  std::vector<std::unique_ptr<api::Operator>> members_;
};

/// A spout fused with a chain of bolts (spout-rooted chains always run
/// interpreted: the spout produces row-wise, so there is no batch to
/// vectorize over before the first queue).
class FusedChainSpout : public api::Spout {
 public:
  FusedChainSpout(const api::SpoutFactory& head,
                  const std::vector<api::OperatorFactory>& bolts)
      : head_(head()),
        chain_(std::make_unique<FusedChainBolt>(bolts)) {}

  Status Prepare(const api::OperatorContext& ctx) override {
    BRISK_RETURN_NOT_OK(head_->Prepare(ctx));
    return chain_->Prepare(ctx);
  }

  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override {
    FusedChainBolt::StepCollector chain_in(chain_.get(), 0, out);
    return head_->NextBatch(max_tuples, &chain_in);
  }

  // Replay rides on the head spout; the fused bolts are downstream of
  // the replay point and simply re-process the replayed tuples.
  bool Replayable() const override { return head_->Replayable(); }
  bool Exhausted() const override { return head_->Exhausted(); }
  api::SourcePosition Position() const override { return head_->Position(); }
  bool Rewind(const api::SourcePosition& position) override {
    return head_->Rewind(position);
  }
  Status CheckpointGuard() const override {
    return head_->CheckpointGuard();
  }

 private:
  std::unique_ptr<api::Spout> head_;
  std::unique_ptr<FusedChainBolt> chain_;
};

/// Logical members a vertex stands for ({itself} when not fused).
std::vector<std::string> MembersOf(const api::OperatorDecl& op) {
  if (!op.chain_members.empty()) return op.chain_members;
  return {op.name};
}

/// Member bolt factories of a vertex, in chain order.
std::vector<api::OperatorFactory> BoltsOf(const api::OperatorDecl& op) {
  if (!op.chain_members.empty()) return op.chain_bolts;
  if (op.is_spout) return {};
  return {op.bolt_factory};
}

/// Re-declares metadata a rebuild would otherwise drop (kernel chains
/// survive greedy rounds through this).
void CarryDeclMetadata(api::TopologyBuilder::BoltDeclarer decl,
                       const api::OperatorDecl& op) {
  if (!op.kernels.empty()) decl.WithKernels(op.kernels);
  if (!op.chain_members.empty()) {
    decl.WithChain(op.chain_members, op.chain_bolts);
  }
}

}  // namespace

std::vector<FusionCandidate> FindFusionCandidates(const api::Topology& topo) {
  std::vector<FusionCandidate> out;
  for (const auto& op : topo.ops()) {
    const auto& out_edges = topo.OutEdges(op.id);
    if (out_edges.size() != 1 || !topo.IsChainEdge(out_edges[0])) continue;
    out.push_back({op.id, out_edges[0].consumer_op});
  }
  return out;
}

StatusOr<FusedApp> FuseOperators(const api::Topology& topo,
                                 const model::ProfileSet& profiles,
                                 const FusionCandidate& candidate,
                                 const FusionOptions& fusion) {
  const int p = candidate.producer_op;
  const int c = candidate.consumer_op;
  if (p < 0 || p >= topo.num_operators() || c < 0 ||
      c >= topo.num_operators()) {
    return Status::InvalidArgument("fusion candidate out of range");
  }
  // Revalidate legality against this topology.
  const auto legal = FindFusionCandidates(topo);
  if (std::none_of(legal.begin(), legal.end(), [&](const auto& f) {
        return f.producer_op == p && f.consumer_op == c;
      })) {
    return Status::FailedPrecondition(
        "fusing '" + topo.op(p).name + "' -> '" + topo.op(c).name +
        "' would not preserve semantics");
  }

  const auto& prod = topo.op(p);
  const auto& cons = topo.op(c);
  const std::string fused_name = prod.name + "+" + cons.name;

  // Chain composition: members flatten (fusing an already-fused vertex
  // extends its chain instead of nesting wrappers).
  std::vector<std::string> members = MembersOf(prod);
  for (auto& m : MembersOf(cons)) members.push_back(std::move(m));
  std::vector<api::OperatorFactory> member_bolts = BoltsOf(prod);
  for (auto& f : BoltsOf(cons)) member_bolts.push_back(std::move(f));

  // The chain compiles when it is consumer-side and every member is
  // kernel-backed: the kernel sequences concatenate into one pipeline.
  const bool compiled =
      !prod.is_spout && !prod.kernels.empty() && !cons.kernels.empty();
  std::vector<api::KernelDesc> fused_kernels;
  if (compiled) {
    fused_kernels = prod.kernels;
    for (const auto& k : cons.kernels) fused_kernels.push_back(k);
  }

  // Map old op id -> new operator name (the pair maps to fused_name).
  auto new_name = [&](int op) -> std::string {
    if (op == p || op == c) return fused_name;
    return topo.op(op).name;
  };

  // Rebuild the topology with the pair collapsed: the fused operator
  // inherits the producer's inputs and the consumer's outputs; the
  // internal p->c edge vanishes.
  api::TopologyBuilder b2(topo.name() + "-fused");
  auto declare_subs = [&](api::TopologyBuilder::BoltDeclarer decl,
                          int old_op) {
    const auto in_edges =
        old_op == p ? topo.InEdges(p) : topo.InEdges(old_op);
    for (const auto& e : in_edges) {
      const std::string producer_name = new_name(e.producer_op);
      // Stream id mapping: the fused operator's streams are the
      // consumer's; other operators keep their own.
      std::string stream;
      if (e.producer_op == c) {
        stream = cons.output_streams[e.stream_id];
      } else if (e.producer_op == p) {
        continue;  // the fused-away internal edge
      } else {
        stream = topo.op(e.producer_op).output_streams[e.stream_id];
      }
      switch (e.grouping) {
        case api::GroupingType::kShuffle:
          decl.ShuffleFrom(producer_name, stream);
          break;
        case api::GroupingType::kFields:
          decl.FieldsFrom(producer_name, e.key_field, stream);
          break;
        case api::GroupingType::kBroadcast:
          decl.BroadcastFrom(producer_name, stream);
          break;
        case api::GroupingType::kGlobal:
          decl.GlobalFrom(producer_name, stream);
          break;
      }
    }
  };

  for (const auto& op : topo.ops()) {
    if (op.id == c) continue;
    if (op.id == p) {
      if (prod.is_spout) {
        api::SpoutFactory head =
            prod.chain_spout ? prod.chain_spout : prod.spout_factory;
        auto decl = b2.AddSpout(
            fused_name,
            [head, member_bolts] {
              return std::make_unique<FusedChainSpout>(head, member_bolts);
            },
            prod.base_parallelism);
        for (size_t s = 1; s < cons.output_streams.size(); ++s) {
          decl.DeclareStream(cons.output_streams[s]);
        }
        decl.WithChain(members, head, member_bolts);
      } else {
        api::OperatorFactory factory;
        if (compiled) {
          factory = [ks = fused_kernels]() -> std::unique_ptr<api::Operator> {
            return std::make_unique<api::KernelBolt>(ks);
          };
        } else {
          factory = [member_bolts]() -> std::unique_ptr<api::Operator> {
            return std::make_unique<FusedChainBolt>(member_bolts);
          };
        }
        auto decl = b2.AddBolt(fused_name, std::move(factory),
                               prod.base_parallelism);
        for (size_t s = 1; s < cons.output_streams.size(); ++s) {
          decl.DeclareStream(cons.output_streams[s]);
        }
        decl.WithChain(members, member_bolts);
        if (compiled) decl.WithKernels(fused_kernels);
        declare_subs(decl, p);
      }
      continue;
    }
    if (op.is_spout) {
      auto decl = b2.AddSpout(op.name, op.spout_factory,
                              op.base_parallelism);
      for (size_t s = 1; s < op.output_streams.size(); ++s) {
        decl.DeclareStream(op.output_streams[s]);
      }
      if (!op.chain_members.empty()) {
        decl.WithChain(op.chain_members, op.chain_spout, op.chain_bolts);
      }
    } else {
      auto decl = b2.AddBolt(op.name, op.bolt_factory, op.base_parallelism);
      for (size_t s = 1; s < op.output_streams.size(); ++s) {
        decl.DeclareStream(op.output_streams[s]);
      }
      CarryDeclMetadata(decl, op);
      // Consumers of the fused pair re-point edges from c to the fused
      // name; declare_subs handles the renaming via new_name().
      declare_subs(decl, op.id);
    }
  }

  BRISK_ASSIGN_OR_RETURN(api::Topology fused, std::move(b2).Build());

  // Derived profile: per input tuple the fused instance runs the
  // producer once and the consumer sel(p) times. A compiled chain's
  // combined T_e shrinks by the measured vectorization discount.
  BRISK_ASSIGN_OR_RETURN(model::OperatorProfile pp, profiles.Get(prod.name));
  BRISK_ASSIGN_OR_RETURN(model::OperatorProfile cp, profiles.Get(cons.name));
  const double sel_p = pp.selectivity.empty() ? 1.0 : pp.selectivity[0];
  model::OperatorProfile fused_profile;
  fused_profile.te_cycles = pp.te_cycles + sel_p * cp.te_cycles;
  if (compiled) fused_profile.te_cycles *= fusion.compiled_te_discount;
  fused_profile.m_bytes = pp.m_bytes + sel_p * cp.m_bytes;
  fused_profile.output_bytes = cp.output_bytes;
  fused_profile.selectivity.clear();
  for (const double s : cp.selectivity) {
    fused_profile.selectivity.push_back(sel_p * s);
  }

  FusedApp result;
  result.fused_name = fused_name;
  result.members = std::move(members);
  result.compiled = compiled;
  for (const auto& [name, profile] : profiles.all()) {
    if (name == prod.name || name == cons.name) continue;
    result.profiles.Set(name, profile);
  }
  result.profiles.Set(fused_name, fused_profile);
  result.topology = std::make_shared<api::Topology>(std::move(fused));
  return result;
}

StatusOr<AutoFuseResult> AutoFuse(const api::Topology& topo,
                                  const model::ProfileSet& profiles,
                                  const hw::MachineSpec& machine,
                                  RlasOptions options, FusionOptions fusion) {
  AutoFuseResult result;
  result.topology = std::make_shared<api::Topology>(topo);
  result.profiles = profiles;

  RlasOptimizer optimizer(&machine, &result.profiles, options);
  BRISK_ASSIGN_OR_RETURN(RlasResult base,
                         optimizer.Optimize(*result.topology));
  result.baseline_throughput = base.model.throughput;
  result.fused_throughput = base.model.throughput;

  // Greedy loop: apply the best-improving fusion until none improves.
  while (true) {
    const auto candidates = FindFusionCandidates(*result.topology);
    double best_tput = result.fused_throughput;
    std::shared_ptr<const api::Topology> best_topo;
    model::ProfileSet best_profiles;
    bool best_compiled = false;
    for (const auto& candidate : candidates) {
      auto fused = FuseOperators(*result.topology, result.profiles,
                                 candidate, fusion);
      if (!fused.ok()) continue;
      RlasOptimizer opt(&machine, &fused->profiles, options);
      auto plan = opt.Optimize(*fused->topology);
      if (!plan.ok()) continue;
      if (plan->model.throughput > best_tput * 1.001) {
        best_tput = plan->model.throughput;
        best_topo = fused->topology;
        best_profiles = fused->profiles;
        best_compiled = fused->compiled;
      }
    }
    if (!best_topo) break;
    result.topology = std::move(best_topo);
    result.profiles = std::move(best_profiles);
    result.fused_throughput = best_tput;
    ++result.fusions_applied;
    if (best_compiled) ++result.compiled_chains;
  }
  return result;
}

}  // namespace brisk::opt

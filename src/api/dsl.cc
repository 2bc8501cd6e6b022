#include "api/dsl.h"

#include "api/pipeline.h"

namespace brisk::dsl {

namespace {

/// Synthesized Spout around a user source lambda. The factory runs at
/// Prepare so it sees the replica context (per-replica seeding); the
/// context's output_streams is the authoritative stream-name table.
class LambdaSpout final : public api::Spout {
 public:
  explicit LambdaSpout(SourceFactory factory)
      : factory_(std::move(factory)) {}

  Status Prepare(const api::OperatorContext& ctx) override {
    if (!factory_) {
      return Status::InvalidArgument("source '" + ctx.operator_name +
                                     "' has an empty factory");
    }
    streams_ = ctx.output_streams;
    fn_ = factory_(ctx);
    if (!fn_) {
      return Status::InvalidArgument("source factory for '" +
                                     ctx.operator_name +
                                     "' returned an empty function");
    }
    return Status::OK();
  }

  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override {
    Collector c(out, &streams_);
    return fn_(max_tuples, c);
  }

 private:
  SourceFactory factory_;
  SourceFn fn_;
  std::vector<std::string> streams_;
};

/// Synthesized Operator around a user process lambda.
class LambdaBolt final : public api::Operator {
 public:
  explicit LambdaBolt(ProcessFactory factory)
      : factory_(std::move(factory)) {}

  Status Prepare(const api::OperatorContext& ctx) override {
    if (!factory_) {
      return Status::InvalidArgument("operator '" + ctx.operator_name +
                                     "' has an empty factory");
    }
    streams_ = ctx.output_streams;
    fn_ = factory_(ctx);
    if (!fn_) {
      return Status::InvalidArgument("factory for '" + ctx.operator_name +
                                     "' returned an empty function");
    }
    return Status::OK();
  }

  void Process(const Tuple& in, api::OutputCollector* out) override {
    Collector c(out, &streams_);
    fn_(in, c);
  }

 private:
  ProcessFactory factory_;
  ProcessFn fn_;
  std::vector<std::string> streams_;
};

}  // namespace

bool Collector::EmitTo(const std::string& stream, Tuple t) {
  const int id = api::FindStreamId(*streams_, stream);
  if (id < 0) return false;
  out_->EmitTo(static_cast<uint16_t>(id), std::move(t));
  return true;
}

Stream Stream::Attach(const std::string& name, ProcessFactory factory,
                      api::GroupingType grouping, size_t key_field) const {
  Pipeline::Node node;
  node.name = name;
  node.process = std::move(factory);
  node.subs.push_back({node_, stream_, grouping, key_field});
  const int id = pipe_->AddNode(std::move(node));
  return Stream(pipe_, id, "default");
}

Stream Stream::AttachKernel(const std::string& name, api::KernelDesc kernel,
                            api::GroupingType grouping,
                            size_t key_field) const {
  Pipeline::Node node;
  node.name = name;
  node.kernels.push_back(std::move(kernel));
  node.subs.push_back({node_, stream_, grouping, key_field});
  const int id = pipe_->AddNode(std::move(node));
  return Stream(pipe_, id, "default");
}

Stream Stream::Process(const std::string& name, ProcessFactory factory) const {
  return Attach(name, std::move(factory), grouping_, key_field_);
}

Stream Stream::Map(const std::string& name, api::KernelDesc kernel) const {
  return AttachKernel(name, std::move(kernel), grouping_, key_field_);
}

Stream Stream::Filter(const std::string& name, api::KernelDesc kernel) const {
  return AttachKernel(name, std::move(kernel), grouping_, key_field_);
}

Stream Stream::FlatMap(const std::string& name, api::KernelDesc kernel) const {
  return AttachKernel(name, std::move(kernel), grouping_, key_field_);
}

Stream Stream::FlatMap(const std::string& name, ProcessFn fn) const {
  return Process(name, [fn = std::move(fn)](const api::OperatorContext&) {
    return fn;  // copied per replica: mutable captures are replica-local
  });
}

Stream Stream::Map(const std::string& name, MapFn fn) const {
  // An empty MapFn stays empty, so it fails KernelBolt::Prepare.
  std::function<void(Tuple&)> row;
  if (fn) {
    row = [fn = std::move(fn)](Tuple& t) {
      Tuple out = fn(t);
      if (out.origin_ts_ns == 0) out.origin_ts_ns = t.origin_ts_ns;
      t = std::move(out);
    };
  }
  return Map(name, api::MapOf(std::move(row), name));
}

Stream Stream::Filter(const std::string& name, FilterFn fn) const {
  return Filter(name, api::FilterOf(std::move(fn), 1.0, name));
}

KeyedStream Stream::KeyBy(size_t field) const {
  return KeyedStream(*this, field);
}

Stream Stream::Broadcast() const {
  Stream s = *this;
  s.grouping_ = api::GroupingType::kBroadcast;
  return s;
}

Stream Stream::Global() const {
  Stream s = *this;
  s.grouping_ = api::GroupingType::kGlobal;
  return s;
}

Stream Stream::Shuffle() const {
  Stream s = *this;
  s.grouping_ = api::GroupingType::kShuffle;
  return s;
}

Stream Stream::Sink(const std::string& name, SinkFn fn) const {
  return Process(name, [fn = std::move(fn)](const api::OperatorContext&) {
    return ProcessFn(
        [fn](const Tuple& in, Collector&) { fn(in); });  // terminal
  });
}

Stream Stream::Operate(const std::string& name,
                       api::OperatorFactory factory) const {
  Pipeline::Node node;
  node.name = name;
  node.bolt = std::move(factory);
  node.subs.push_back({node_, stream_, grouping_, key_field_});
  const int id = pipe_->AddNode(std::move(node));
  return Stream(pipe_, id, "default");
}

Stream Stream::ToFile(const std::string& name,
                      io::EgressOptions options) const {
  return Operate(name,
                 [options = std::move(options)]()
                     -> std::unique_ptr<api::Operator> {
                   return std::make_unique<io::EgressSink>(options);
                 });
}

Stream Stream::ToFile(const std::string& name, std::string path,
                      io::RecordCodec codec) const {
  return ToFile(name, io::EgressOptions::File(std::move(path), codec));
}

Stream Stream::ToSocket(const std::string& name, std::string host,
                        uint16_t port, io::RecordCodec codec) const {
  auto options = io::EgressOptions::Socket(std::move(host), port, codec);
  return Operate(name,
                 [options = std::move(options)]()
                     -> std::unique_ptr<api::Operator> {
                   return std::make_unique<io::EgressSink>(options);
                 });
}

Stream Stream::Parallelism(int n) const {
  pipe_->nodes_[node_].parallelism = n;
  return *this;
}

Stream Stream::SideOutput(const std::string& stream) const {
  auto& streams = pipe_->nodes_[node_].streams;
  if (api::FindStreamId(streams, stream) < 0) streams.push_back(stream);
  return Stream(pipe_, node_, stream);
}

Stream Stream::Merge(const Stream& input) const {
  Pipeline::Node& node = pipe_->nodes_[node_];
  if (input.pipe_ == pipe_) {
    node.subs.push_back(
        {input.node_, input.stream_, input.grouping_, input.key_field_});
  } else if (pipe_->deferred_error_.ok()) {
    pipe_->deferred_error_ = Status::InvalidArgument(
        "operator '" + node.name + "' merges a stream from another pipeline");
  }
  return *this;
}

Stream Stream::Merge(const KeyedStream& input) const {
  Stream keyed = input.base_;
  keyed.grouping_ = api::GroupingType::kFields;
  keyed.key_field_ = input.key_field_;
  return Merge(keyed);
}

Stream Pipeline::Source(const std::string& name, SourceFactory factory) {
  Node node;
  node.name = name;
  node.is_source = true;
  node.source = std::move(factory);
  return Stream(this, AddNode(std::move(node)), "default");
}

Stream Pipeline::Source(const std::string& name, SourceFn fn) {
  return Source(name, SourceFactory([fn = std::move(fn)](
                          const api::OperatorContext&) { return fn; }));
}

Stream Pipeline::Source(const std::string& name, api::SpoutFactory spout) {
  Node node;
  node.name = name;
  node.is_source = true;
  node.spout = std::move(spout);
  return Stream(this, AddNode(std::move(node)), "default");
}

Stream Pipeline::FromFile(const std::string& name,
                          io::FileSourceOptions options) {
  return Source(name, api::SpoutFactory(
                          [options = std::move(options)]()
                              -> std::unique_ptr<api::Spout> {
                            return std::make_unique<io::FileSource>(options);
                          }));
}

Stream Pipeline::FromSocket(const std::string& name,
                            std::shared_ptr<io::TcpListener> listener,
                            io::TcpSourceOptions options) {
  return Source(name, api::SpoutFactory(
                          [listener = std::move(listener),
                           options = std::move(options)]()
                              -> std::unique_ptr<api::Spout> {
                            return std::make_unique<io::TcpSource>(listener,
                                                                   options);
                          }));
}

Stream Pipeline::FromSocket(const std::string& name,
                            const std::string& bind_addr, uint16_t port,
                            io::TcpSourceOptions options) {
  return FromSocket(name, std::make_shared<io::TcpListener>(bind_addr, port),
                    std::move(options));
}

StatusOr<api::Topology> Pipeline::Build() && {
  if (!deferred_error_.ok()) return deferred_error_;
  api::TopologyBuilder b(name_);
  for (auto& node : nodes_) {
    if (node.is_source) {
      api::SpoutFactory factory;
      if (node.spout) {
        factory = std::move(node.spout);
      } else {
        factory =
            [src = std::move(node.source)]() -> std::unique_ptr<api::Spout> {
          return std::make_unique<LambdaSpout>(src);
        };
      }
      auto declarer = b.AddSpout(node.name, std::move(factory),
                                 node.parallelism);
      for (size_t i = 1; i < node.streams.size(); ++i) {
        declarer.DeclareStream(node.streams[i]);
      }
    } else {
      api::OperatorFactory factory;
      if (node.bolt) {
        factory = std::move(node.bolt);
      } else if (!node.kernels.empty()) {
        factory =
            [ks = node.kernels]() -> std::unique_ptr<api::Operator> {
          return std::make_unique<api::KernelBolt>(ks);
        };
      } else {
        factory =
            [pf = std::move(node.process)]() -> std::unique_ptr<api::Operator> {
          return std::make_unique<LambdaBolt>(pf);
        };
      }
      auto declarer =
          b.AddBolt(node.name, std::move(factory), node.parallelism);
      if (!node.kernels.empty()) {
        declarer.WithKernels(std::move(node.kernels));
      }
      for (size_t i = 1; i < node.streams.size(); ++i) {
        declarer.DeclareStream(node.streams[i]);
      }
      for (const auto& sub : node.subs) {
        const std::string& producer = nodes_[sub.producer].name;
        switch (sub.grouping) {
          case api::GroupingType::kShuffle:
            declarer.ShuffleFrom(producer, sub.stream);
            break;
          case api::GroupingType::kFields:
            declarer.FieldsFrom(producer, sub.key_field, sub.stream);
            break;
          case api::GroupingType::kBroadcast:
            declarer.BroadcastFrom(producer, sub.stream);
            break;
          case api::GroupingType::kGlobal:
            declarer.GlobalFrom(producer, sub.stream);
            break;
        }
      }
    }
  }
  return std::move(b).Build();
}

}  // namespace brisk::dsl

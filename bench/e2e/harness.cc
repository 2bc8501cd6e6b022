#include "harness.h"

#include <algorithm>
#include <bitset>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "api/job.h"
#include "apps/linear_road.h"
#include "apps/spike_detection.h"
#include "apps/word_count.h"
#include "common/rng.h"
#include "engine/checkpoint.h"
#include "engine/runtime.h"
#include "hardware/numa_emulator.h"
#include "io/mmap_source.h"
#include "model/perf_model.h"
#include "optimizer/rlas.h"
#include "report.h"

namespace brisk::e2e {

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

SteadyClock::time_point After(SteadyClock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Job-level seed (0 would mean "unseeded" to the engine).
uint64_t JobSeed(uint64_t seed) { return DeriveSeed(seed, -1, 0) | 1; }

// The file workload's corpus: ~26 MB of text, enough keyed state
// (100k words) for multi-megabyte checkpoints.
constexpr uint64_t kCorpusLines = 400000;
constexpr uint64_t kCorpusVocabulary = 100000;

// A traced run samples SnapshotStats() into counter tracks this often.
constexpr auto kSamplePeriod = std::chrono::milliseconds(100);

}  // namespace

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    // One tray of the paper's Server A, and Job's default CI machine.
    const hw::MachineSpec tray =
        hw::MachineSpec::Symmetric(4, 18, 1.2, 50, 307.7, 54.3, 13.2);
    const hw::MachineSpec small =
        hw::MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
    // Paced rates sit at 12-15% of each workload's saturated sink rate.
    // Near 40% the median latency is mostly queueing, which swings with
    // how much CPU a shared host leaves the run (run-to-run spread
    // 0.15-0.35 measured on 4 vCPUs); at these rates it is the
    // per-hop cost of the engine itself.
    return std::vector<Workload>{
        {"wc_tray", App::kWordCount, "tray", tray, 1, 50e3, 0.0, true},
        {"sd_small", App::kSpikeDetection, "small", small, 2, 300e3, 0.0,
         false},
        {"lr_tray", App::kLinearRoad, "tray", tray, 1, 50e3, 0.0, false},
        {"wc_file_ckpt", App::kFileWordCount, "small", small, 2, 50e3, 0.5,
         true},
    };
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

StatusOr<AppInstance> BuildApp(const Workload& workload, uint64_t seed,
                               const std::string& corpus_path) {
  AppInstance app;
  app.telemetry = std::make_shared<SinkTelemetry>();
  auto keep = [&app](api::Topology topo) {
    app.topology = std::make_shared<const api::Topology>(std::move(topo));
  };
  switch (workload.app) {
    case App::kWordCount: {
      BRISK_ASSIGN_OR_RETURN(api::Topology t,
                             apps::BuildWordCountDsl(app.telemetry));
      keep(std::move(t));
      app.profiles = apps::WordCountProfiles();
      break;
    }
    case App::kSpikeDetection: {
      BRISK_ASSIGN_OR_RETURN(api::Topology t,
                             apps::BuildSpikeDetectionDsl(app.telemetry));
      keep(std::move(t));
      app.profiles = apps::SpikeDetectionProfiles();
      break;
    }
    case App::kLinearRoad: {
      // The LR spout seeds from its params, not the job seed.
      apps::LinearRoadParams params;
      params.seed += seed;
      BRISK_ASSIGN_OR_RETURN(api::Topology t,
                             apps::BuildLinearRoad(app.telemetry, params));
      keep(std::move(t));
      app.profiles = apps::LinearRoadProfiles(params);
      break;
    }
    case App::kFileWordCount: {
      io::FileSourceOptions source;
      source.path = corpus_path;
      source.partition = io::FileSourceOptions::Partition::kRange;
      source.loop = true;
      BRISK_ASSIGN_OR_RETURN(
          api::Topology t,
          apps::BuildFileWordCountDsl(app.telemetry, source).Build());
      keep(std::move(t));
      app.profiles = apps::WordCountProfiles();
      break;
    }
  }
  return app;
}

namespace {

/// Writes the file workload's seeded corpus: kCorpusLines lines of ten
/// words drawn uniformly from a kCorpusVocabulary-word dictionary.
Status WriteCorpus(const std::string& path, uint64_t seed) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot write corpus " + path);
  Rng rng(DeriveSeed(seed, -2, 0));
  std::string chunk;
  chunk.reserve(1 << 20);
  for (uint64_t l = 0; l < kCorpusLines; ++l) {
    for (int w = 0; w < 10; ++w) {
      if (w) chunk.push_back(' ');
      chunk.push_back('w');
      chunk += std::to_string(rng.NextBounded(kCorpusVocabulary));
    }
    chunk.push_back('\n');
    if (chunk.size() >= (1u << 20) - 128) {
      out << chunk;
      chunk.clear();
    }
  }
  out << chunk;
  out.close();
  if (!out) return Status::Unavailable("short write to corpus " + path);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Source decorator
// ---------------------------------------------------------------------------

SourceControl::SourceControl(double rate_tps, uint64_t limit_per_replica,
                             std::function<int64_t()> clock)
    : rate_tps_(rate_tps), limit_(limit_per_replica), clock_(std::move(clock)) {}

std::shared_ptr<GenStats> SourceControl::Register() {
  auto stats = std::make_shared<GenStats>();
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.push_back(stats);
  return stats;
}

size_t SourceControl::replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size();
}

uint64_t SourceControl::Produced() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& r : replicas_) {
    n += r->produced.load(std::memory_order_relaxed);
  }
  return n;
}

double SourceControl::MaxLagMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t lag = 0;
  for (const auto& r : replicas_) {
    lag = std::max(lag, r->max_lag_ns.load(std::memory_order_relaxed));
  }
  return static_cast<double>(lag) / 1e6;
}

namespace {

/// Forwards a source's emissions, stamping tuple k with its due time.
class Stamper final : public api::OutputCollector {
 public:
  Stamper(api::OutputCollector* out, const PaceSchedule* schedule,
          uint64_t first_index)
      : out_(out), schedule_(schedule), next_(first_index) {}

  void Emit(Tuple t) override { out_->Emit(Stamp(std::move(t))); }
  void EmitTo(uint16_t stream_id, Tuple t) override {
    out_->EmitTo(stream_id, Stamp(std::move(t)));
  }
  uint64_t next() const { return next_; }

 private:
  Tuple Stamp(Tuple t) {
    if (schedule_ != nullptr) t.origin_ts_ns = schedule_->DueNs(next_);
    ++next_;
    return t;
  }

  api::OutputCollector* out_;
  const PaceSchedule* schedule_;
  uint64_t next_;
};

}  // namespace

PacedSpout::PacedSpout(std::unique_ptr<api::Spout> inner,
                       std::shared_ptr<SourceControl> control)
    : inner_(std::move(inner)),
      control_(std::move(control)),
      stats_(control_->Register()) {}

Status PacedSpout::Prepare(const api::OperatorContext& ctx) {
  schedule_.rate_tps =
      control_->rate_tps() / static_cast<double>(std::max(1, ctx.num_replicas));
  return inner_->Prepare(ctx);
}

size_t PacedSpout::NextBatch(size_t max_tuples, api::OutputCollector* out) {
  if (done_) return 0;
  uint64_t want = max_tuples;
  const uint64_t limit = control_->limit_per_replica();
  if (limit > 0) {
    if (produced_ >= limit) {
      done_ = true;
      return 0;
    }
    want = std::min(want, limit - produced_);
  }
  const bool paced = schedule_.rate_tps > 0.0;
  if (paced) {
    const int64_t now = control_->Now();
    if (!started_) {
      schedule_.t0_ns = now;  // the schedule starts with the engine
      started_ = true;
    }
    const uint64_t due = schedule_.DueCount(now);
    if (due <= produced_) return 0;  // nothing due: idle, not exhausted
    want = std::min(want, due - produced_);
    if (control_->recording.load(std::memory_order_relaxed)) {
      const int64_t lag = now - schedule_.DueNs(produced_);
      if (lag > stats_->max_lag_ns.load(std::memory_order_relaxed)) {
        stats_->max_lag_ns.store(lag, std::memory_order_relaxed);
      }
    }
  }
  Stamper stamper(out, paced ? &schedule_ : nullptr, produced_);
  const size_t got = inner_->NextBatch(want, &stamper);
  produced_ = stamper.next();
  stats_->produced.store(produced_, std::memory_order_relaxed);
  if (got == 0 && inner_->Exhausted()) done_ = true;
  return got;
}

// ---------------------------------------------------------------------------
// Sink decorator
// ---------------------------------------------------------------------------

std::shared_ptr<SinkSlot> SinkControl::Register(bool* drop_one) {
  auto slot = std::make_shared<SinkSlot>();
  slot->latency_ns.resize(static_cast<size_t>(windows_));
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(slot);
  *drop_one = drop_one_ && slots_.size() == 1;
  return slot;
}

Histogram SinkControl::Latency(int window) const {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram h;
  for (const auto& s : slots_) h.Merge(s->latency_ns[window]);
  return h;
}

uint64_t SinkControl::Tuples() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& s : slots_) n += s->tuples;
  return n;
}

KeyTallies SinkControl::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  KeyTallies merged;
  for (const auto& s : slots_) {
    for (const auto& [key, t] : s->keys) {
      KeyTally& m = merged[key];
      m.count += t.count;
      m.duplicates += t.duplicates;
      if (m.seen.size() < t.seen.size()) m.seen.resize(t.seen.size(), 0);
      for (size_t i = 0; i < t.seen.size(); ++i) {
        m.duplicates += std::bitset<64>(m.seen[i] & t.seen[i]).count();
        m.seen[i] |= t.seen[i];
      }
    }
  }
  return merged;
}

RecordingSink::RecordingSink(std::unique_ptr<api::Operator> inner,
                             std::shared_ptr<SinkControl> control)
    : inner_(std::move(inner)), control_(std::move(control)) {
  slot_ = control_->Register(&drop_next_);
}

void RecordingSink::Process(const Tuple& in, api::OutputCollector* out) {
  if (drop_next_) {
    drop_next_ = false;
    return;
  }
  const int window = control_->window.load(std::memory_order_relaxed);
  if (window >= 0 && in.origin_ts_ns > 0) {
    slot_->latency_ns[static_cast<size_t>(window)].Add(
        static_cast<double>(apps::NowNs() - in.origin_ts_ns));
  }
  ++slot_->tuples;
  if (control_->group_keys()) Tally(in);
  inner_->Process(in, out);
}

void RecordingSink::Tally(const Tuple& in) {
  std::string key;
  if (!in.fields.empty()) {
    const Field& f = in.fields[0];
    if (f.is_string()) {
      key = f.AsString();
    } else if (f.is_int()) {
      key = "#" + std::to_string(f.AsInt());
    } else if (f.is_double()) {
      key = "~" + std::to_string(f.AsDouble());
    }
  }
  KeyTally& t = slot_->keys[key];
  ++t.count;
  if (!control_->word_sequences()) return;
  if (in.fields.size() < 2 || !in.fields[1].is_int() ||
      in.fields[1].AsInt() < 1) {
    ++t.duplicates;  // not a running count at all
    return;
  }
  const auto c = static_cast<uint64_t>(in.fields[1].AsInt());
  const size_t word = c / 64;
  const uint64_t bit = uint64_t{1} << (c % 64);
  if (t.seen.size() <= word) t.seen.resize(word + 1, 0);
  if (t.seen[word] & bit) {
    ++t.duplicates;
  } else {
    t.seen[word] |= bit;
  }
}

namespace {

/// Mismatched tuples between a run and its reference: per key,
/// |count - reference count|, summed over the union of keys.
uint64_t CountMismatches(const KeyTallies& run, const KeyTallies& reference) {
  uint64_t diff = 0;
  for (const auto& [key, t] : run) {
    const auto it = reference.find(key);
    const uint64_t ref = it == reference.end() ? 0 : it->second.count;
    diff += t.count > ref ? t.count - ref : ref - t.count;
  }
  for (const auto& [key, t] : reference) {
    if (run.find(key) == run.end()) diff += t.count;
  }
  return diff;
}

/// Running-count violations: duplicates plus counts in 1..n that never
/// arrived, summed over keys.
uint64_t SequenceViolations(const KeyTallies& tallies) {
  uint64_t bad = 0;
  for (const auto& [key, t] : tallies) {
    uint64_t present = 0;  // distinct counts in 1..n that arrived
    for (uint64_t c = 1; c <= t.count; ++c) {
      const size_t word = c / 64;
      if (word < t.seen.size() && (t.seen[word] >> (c % 64) & 1)) ++present;
    }
    bad += t.duplicates + (t.count - present);
  }
  return bad;
}

}  // namespace

// ---------------------------------------------------------------------------
// Topology rebuild
// ---------------------------------------------------------------------------

StatusOr<api::Topology> Rebuild(const api::Topology& topo,
                                std::shared_ptr<SourceControl> source,
                                std::shared_ptr<SinkControl> sink) {
  api::TopologyBuilder b(topo.name());
  const std::vector<int>& sinks = topo.sinks();
  for (const api::OperatorDecl& op : topo.ops()) {
    if (op.is_spout) {
      api::SpoutFactory factory = op.spout_factory;
      if (source != nullptr) {
        factory = [inner = op.spout_factory,
                   source]() -> std::unique_ptr<api::Spout> {
          return std::make_unique<PacedSpout>(inner(), source);
        };
      }
      auto d = b.AddSpout(op.name, std::move(factory), op.base_parallelism);
      for (size_t s = 1; s < op.output_streams.size(); ++s) {
        d.DeclareStream(op.output_streams[s]);
      }
      if (!op.chain_members.empty()) {
        d.WithChain(op.chain_members, op.chain_spout, op.chain_bolts);
      }
      continue;
    }
    api::OperatorFactory factory = op.bolt_factory;
    if (sink != nullptr &&
        std::find(sinks.begin(), sinks.end(), op.id) != sinks.end()) {
      factory = [inner = op.bolt_factory,
                 sink]() -> std::unique_ptr<api::Operator> {
        return std::make_unique<RecordingSink>(inner(), sink);
      };
    }
    auto d = b.AddBolt(op.name, std::move(factory), op.base_parallelism);
    for (const api::Subscription& sub : op.inputs) {
      const api::OperatorDecl& producer = topo.op(sub.producer_op);
      const std::string& stream = producer.output_streams[sub.stream_id];
      switch (sub.grouping) {
        case api::GroupingType::kShuffle:
          d.ShuffleFrom(producer.name, stream);
          break;
        case api::GroupingType::kFields:
          d.FieldsFrom(producer.name, sub.key_field, stream);
          break;
        case api::GroupingType::kBroadcast:
          d.BroadcastFrom(producer.name, stream);
          break;
        case api::GroupingType::kGlobal:
          d.GlobalFrom(producer.name, stream);
          break;
      }
    }
    for (size_t s = 1; s < op.output_streams.size(); ++s) {
      d.DeclareStream(op.output_streams[s]);
    }
    if (!op.kernels.empty()) d.WithKernels(op.kernels);
    if (!op.chain_members.empty()) {
      d.WithChain(op.chain_members, op.chain_bolts);
    }
  }
  return std::move(b).Build();
}

Status SameStructure(const api::Topology& a, const api::Topology& b) {
  auto differ = [&](const std::string& what) {
    return Status::FailedPrecondition("topology '" + a.name() +
                                      "' rebuilt with a different " + what);
  };
  if (a.name() != b.name()) return differ("name");
  if (a.num_operators() != b.num_operators()) return differ("operator count");
  for (int i = 0; i < a.num_operators(); ++i) {
    const api::OperatorDecl& x = a.op(i);
    const api::OperatorDecl& y = b.op(i);
    const std::string at = " at operator '" + x.name + "'";
    if (x.name != y.name) return differ("operator name" + at);
    if (x.is_spout != y.is_spout) return differ("spout flag" + at);
    if (x.base_parallelism != y.base_parallelism) {
      return differ("parallelism" + at);
    }
    if (x.output_streams != y.output_streams) return differ("streams" + at);
    if (x.inputs.size() != y.inputs.size()) return differ("input count" + at);
    for (size_t s = 0; s < x.inputs.size(); ++s) {
      const api::Subscription& p = x.inputs[s];
      const api::Subscription& q = y.inputs[s];
      if (p.producer_op != q.producer_op || p.stream_id != q.stream_id ||
          p.grouping != q.grouping || p.key_field != q.key_field) {
        return differ("subscription" + at);
      }
    }
    if (x.kernels.size() != y.kernels.size()) return differ("kernels" + at);
    if (x.chain_members != y.chain_members) return differ("chain" + at);
  }
  if (a.edges().size() != b.edges().size()) return differ("edge count");
  for (size_t e = 0; e < a.edges().size(); ++e) {
    const api::StreamEdge& p = a.edges()[e];
    const api::StreamEdge& q = b.edges()[e];
    if (p.producer_op != q.producer_op || p.consumer_op != q.consumer_op ||
        p.stream_id != q.stream_id || p.grouping != q.grouping ||
        p.key_field != q.key_field) {
      return differ("edge");
    }
  }
  if (a.spouts() != b.spouts() || a.sinks() != b.sinks() ||
      a.topological_order() != b.topological_order()) {
    return differ("spout/sink/topological order");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

const Metric* WorkloadResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

/// A running job: either deployed through Job::Deploy, or through the
/// same layer calls made one by one (the traced path), or a reference
/// runtime with a hand-made plan.
struct Deployed {
  std::unique_ptr<Job::Deployment> job;
  // Declared before `runtime`, which points at it.
  std::unique_ptr<hw::NumaEmulator> numa;
  std::unique_ptr<engine::BriskRuntime> runtime;

  model::ExecutionPlan plan;
  double predicted_tps = 0.0;
  double optimize_s = 0.0;
  uint64_t nodes_explored = 0;
  int scaling_iterations = 0;

  engine::BriskRuntime& rt() { return job ? job->runtime() : *runtime; }
  engine::RunStats Stop() { return job ? job->Stop().stats : runtime->Stop(); }
};

/// Samples SnapshotStats() into trace counter tracks while active.
class Sampler {
 public:
  Sampler(Tracer* tracer, engine::BriskRuntime* rt,
          const SinkTelemetry* telemetry)
      : tracer_(tracer), rt_(rt), telemetry_(telemetry) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void SetActive(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kSamplePeriod, [this] { return stop_; })) {
      if (!active_.load(std::memory_order_relaxed)) continue;
      lock.unlock();
      Sample();
      lock.lock();
    }
  }

  void Sample() {
    const engine::RunStats s = rt_->SnapshotStats();
    const double ts = tracer_->NowUs();
    tracer_->Counter("sink", ts,
                     {{"tuples", static_cast<double>(telemetry_->count())}});
    tracer_->Counter("engine", ts,
                     {{"consumed", static_cast<double>(s.total_consumed)},
                      {"emitted", static_cast<double>(s.total_emitted)}});
    tracer_->Counter(
        "executor", ts,
        {{"parks", static_cast<double>(s.executor.parks)},
         {"wakes", static_cast<double>(s.executor.wakes)},
         {"steals", static_cast<double>(s.executor.steals_intra +
                                        s.executor.steals_cross)}});
  }

  Tracer* tracer_;
  engine::BriskRuntime* rt_;
  const SinkTelemetry* telemetry_;
  std::atomic<bool> active_{true};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;  // last: starts after everything it reads
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Channels the plan wires across sockets, as a share of all channels.
double CrossSocketChannelShare(const api::Topology& topo,
                               const model::ExecutionPlan& plan) {
  uint64_t all = 0;
  uint64_t cross = 0;
  for (const api::StreamEdge& e : topo.edges()) {
    const int consumers = e.grouping == api::GroupingType::kGlobal
                              ? 1
                              : plan.replication(e.consumer_op);
    for (int p = 0; p < plan.replication(e.producer_op); ++p) {
      const int from = plan.SocketOf(plan.InstanceId(e.producer_op, p));
      for (int c = 0; c < consumers; ++c) {
        ++all;
        if (plan.SocketOf(plan.InstanceId(e.consumer_op, c)) != from) ++cross;
      }
    }
  }
  return Ratio(static_cast<double>(cross), static_cast<double>(all));
}

/// Counter deltas of one operator, summed over measured windows.
struct OpDelta {
  uint64_t tuples_in = 0;
  uint64_t batches_in = 0;
  uint64_t batches_out = 0;
  uint64_t batches_recycled = 0;
  uint64_t parks = 0;
  uint64_t busy_ns = 0;
  uint64_t tuples_vec = 0;

  void Add(const engine::TaskStats& x, const engine::TaskStats& y) {
    tuples_in += y.tuples_in - x.tuples_in;
    batches_in += y.batches_in - x.batches_in;
    batches_out += y.batches_out - x.batches_out;
    batches_recycled += y.batches_recycled - x.batches_recycled;
    parks += y.backpressure_parks - x.backpressure_parks;
    busy_ns += y.busy_ns - x.busy_ns;
    tuples_vec += y.tuples_vec - x.tuples_vec;
  }
};

/// Engine counters summed over one phase's measured windows.
struct PhaseLedger {
  double window_s = 0.0;
  double capacity_ns = 0.0;  ///< Σ workers × window
  std::vector<OpDelta> ops;  ///< by topology operator id
  uint64_t steals_intra = 0;
  uint64_t steals_cross = 0;
  uint64_t steal_failures = 0;
  uint64_t repatriations = 0;
  uint64_t parks = 0;
  uint64_t wakes = 0;

  void Add(const engine::RunStats& begin, const engine::RunStats& end,
           double seconds) {
    ops.resize(end.op_totals.size());
    for (size_t op = 0; op < ops.size(); ++op) {
      ops[op].Add(begin.op_totals[op], end.op_totals[op]);
    }
    const engine::ExecutorStats& x = begin.executor;
    const engine::ExecutorStats& y = end.executor;
    steals_intra += y.steals_intra - x.steals_intra;
    steals_cross += y.steals_cross - x.steals_cross;
    steal_failures += y.steal_failures - x.steal_failures;
    repatriations += y.repatriations - x.repatriations;
    parks += y.parks - x.parks;
    wakes += y.wakes - x.wakes;
    window_s += seconds;
    capacity_ns += y.threads * seconds * 1e9;
  }

  /// Tuples per inbound batch over every bolt.
  double TuplesPerBatch(const api::Topology& topo) const {
    uint64_t tuples = 0;
    uint64_t batches = 0;
    for (size_t op = 0; op < ops.size(); ++op) {
      if (topo.op(static_cast<int>(op)).is_spout) continue;
      tuples += ops[op].tuples_in;
      batches += ops[op].batches_in;
    }
    return Ratio(static_cast<double>(tuples), static_cast<double>(batches));
  }
};

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Median of the faster half of `v`. A deployment runs on one thread,
/// and on a shared host that thread runs at full speed or about 1.5x
/// slower depending on the core it lands on, so the deployment times
/// of one run are bimodal and their plain median flips between the
/// modes. Work added to deployment slows every deployment, so it still
/// shows in the faster half.
double FasterHalfMedian(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize((v.size() + 1) / 2);
  return MedianOf(std::move(v));
}

class Runner {
 public:
  Runner(const Workload& workload, const RunOptions& options)
      : w_(workload), o_(options), tracer_(!options.trace_path.empty()) {}

  ~Runner() {
    if (!corpus_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(corpus_path_, ec);
    }
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  StatusOr<WorkloadResult> RunAll() {
    BRISK_RETURN_NOT_OK(PrepareCorpus());
    // The two phases alternate deployments, so each one's samples span
    // the whole run and a slow spell of the host lands on both alike.
    for (int r = 0; r < o_.rounds(); ++r) {
      {
        Tracer::Scope phase(&tracer_, "saturated", "phase");
        BRISK_RETURN_NOT_OK(SaturatedRound(r == 0 ? RunOptions::kFirstWarmupS
                                                  : RunOptions::kWarmupS));
      }
      Tracer::Scope phase(&tracer_, "paced", "phase");
      BRISK_RETURN_NOT_OK(PacedRound());
    }
    // Paced deployments hold fewer batches in flight than saturated
    // ones, so this is the saturated peak.
    result_.Add("rss_peak_mb", "MiB", PeakRssMb());
    BRISK_RETURN_NOT_OK(Correctness());
    Finish();
    return std::move(result_);
  }

  StatusOr<WorkloadResult> CorrectnessOnly() {
    BRISK_RETURN_NOT_OK(PrepareCorpus());
    BRISK_RETURN_NOT_OK(Correctness());
    return std::move(result_);
  }

 private:
  engine::EngineConfig Config() const {
    engine::EngineConfig c = engine::EngineConfig::Brisk();
    c.numa_emulation = true;
    c.workers_per_socket = w_.workers_per_socket;
    c.seed = JobSeed(o_.seed);
    return c;
  }

  Status PrepareCorpus() {
    if (w_.app != App::kFileWordCount) return Status::OK();
    std::error_code ec;
    std::filesystem::create_directories(o_.tmpdir, ec);
    corpus_path_ = o_.tmpdir + "/corpus-" + w_.name + "-" +
                   std::to_string(o_.seed) + ".txt";
    return WriteCorpus(corpus_path_, o_.seed);
  }

  /// Job::Deploy; `setup` (nullable) collects its wall time.
  StatusOr<Deployed> DeployJob(const AppInstance& app,
                               std::shared_ptr<const api::Topology> topo,
                               std::vector<double>* setup) {
    Job job = Job::Of(std::move(topo));
    job.WithMachine(w_.machine)
        .WithConfig(Config())
        .WithProfiles(app.profiles)
        .WithTelemetry(app.telemetry);
    Deployed d;
    double seconds = 0.0;
    {
      Tracer::Scope span(&tracer_, "Job::Deploy", "setup", &seconds);
      BRISK_ASSIGN_OR_RETURN(d.job, job.Deploy());
    }
    if (setup != nullptr) setup->push_back(seconds);
    const JobReport& report = d.job->report();
    d.plan = report.plan;
    d.predicted_tps = report.model.throughput;
    d.optimize_s = report.optimize_seconds;
    d.scaling_iterations = report.scaling_iterations;
    return d;
  }

  /// Job::Deploy's layer calls made one by one, each in a span.
  StatusOr<Deployed> DeployTraced(const AppInstance& app) {
    Deployed d;
    double optimize_s = 0.0;
    double numa_s = 0.0;
    double create_s = 0.0;
    double start_s = 0.0;
    {
      Tracer::Scope span(&tracer_, "RlasOptimizer::Optimize", "deploy",
                         &optimize_s);
      const opt::RlasOptimizer optimizer(&w_.machine, &app.profiles);
      BRISK_ASSIGN_OR_RETURN(opt::RlasResult r,
                             optimizer.Optimize(*app.topology));
      d.plan = std::move(r.plan);
      d.optimize_s = r.optimize_seconds;
      d.nodes_explored = r.nodes_explored;
      d.scaling_iterations = r.scaling_iterations;
    }
    {
      Tracer::Scope span(&tracer_, "NumaEmulator", "deploy", &numa_s);
      d.numa = std::make_unique<hw::NumaEmulator>(w_.machine);
    }
    {
      Tracer::Scope span(&tracer_, "BriskRuntime::Create", "deploy",
                         &create_s);
      BRISK_ASSIGN_OR_RETURN(
          d.runtime, engine::BriskRuntime::Create(app.topology.get(), d.plan,
                                                  Config(), d.numa.get()));
    }
    app.telemetry->Reset();
    {
      Tracer::Scope span(&tracer_, "BriskRuntime::Start", "deploy", &start_s);
      BRISK_RETURN_NOT_OK(d.runtime->Start());
    }
    {
      Tracer::Scope span(&tracer_, "PerfModel::Evaluate", "model");
      const model::PerfModel perf(&w_.machine, &app.profiles);
      BRISK_ASSIGN_OR_RETURN(
          model::ModelResult m,
          perf.Evaluate(d.plan, opt::PlacementOptions{}.input_rate_tps));
      d.predicted_tps = m.throughput;
    }
    create_s_.push_back(create_s);
    start_s_.push_back(start_s);
    traced_deploy_s_.push_back(optimize_s + numa_s + create_s + start_s);
    return d;
  }

  engine::RunStats StopAndCount(Deployed* d) {
    engine::RunStats stats;
    {
      Tracer::Scope span(&tracer_, "BriskRuntime::Stop", "stop");
      stats = d->Stop();
    }
    ++result_.attempted;
    if (stats.drain_timed_out) {
      ++result_.failed;
      result_.notes.push_back("an engine drain timed out");
    }
    return stats;
  }

  void Checkpoint(engine::BriskRuntime& rt) {
    ++result_.attempted;
    StatusOr<engine::JobCheckpoint> cp = Status::Unavailable("not taken");
    {
      Tracer::Scope span(&tracer_, "BriskRuntime::Checkpoint", "checkpoint");
      cp = rt.Checkpoint();
    }
    if (!cp.ok()) {
      ++result_.failed;
      result_.notes.push_back("Checkpoint() failed: " +
                              cp.status().ToString());
      return;
    }
    std::vector<uint8_t> bytes;
    double encode_s = 0.0;
    {
      Tracer::Scope span(&tracer_, "SerializeCheckpoint", "checkpoint",
                         &encode_s);
      engine::SerializeCheckpoint(*cp, &bytes);
    }
    ckpt_pause_ms_.push_back(cp->pause_seconds * 1e3);
    ckpt_encode_ms_.push_back(encode_s * 1e3);
    ckpt_state_mb_.push_back(static_cast<double>(bytes.size()) / (1 << 20));
  }

  void StartCadence() {
    next_ckpt_ = After(SteadyClock::now(), w_.checkpoint_interval_s);
  }

  /// Sleeps until `until`, checkpointing on the workload's cadence.
  void HoldUntil(engine::BriskRuntime& rt, SteadyClock::time_point until) {
    for (;;) {
      SteadyClock::time_point wake = until;
      if (w_.checkpoint_interval_s > 0.0) wake = std::min(wake, next_ckpt_);
      std::this_thread::sleep_until(wake);
      if (w_.checkpoint_interval_s > 0.0 &&
          SteadyClock::now() >= next_ckpt_) {
        Checkpoint(rt);
        next_ckpt_ = After(SteadyClock::now(), w_.checkpoint_interval_s);
      }
      if (SteadyClock::now() >= until) return;
    }
  }

  /// One saturated deployment: the app's own topology, unpaced sources.
  Status SaturatedRound(double warmup_s) {
    BRISK_ASSIGN_OR_RETURN(AppInstance app,
                           BuildApp(w_, o_.seed, corpus_path_));
    const io::MappingCounters maps_before = io::GetMappingCounters();
    Deployed d;
    if (tracer_.enabled()) {
      BRISK_ASSIGN_OR_RETURN(d, DeployTraced(app));
    } else {
      BRISK_ASSIGN_OR_RETURN(d, DeployJob(app, app.topology, &setup_s_));
    }
    engine::BriskRuntime& rt = d.rt();
    std::unique_ptr<Sampler> sampler;
    if (tracer_.enabled()) {
      sampler = std::make_unique<Sampler>(&tracer_, &rt, app.telemetry.get());
    }
    StartCadence();
    HoldUntil(rt, After(SteadyClock::now(), warmup_s));

    const io::MappingCounters maps = io::GetMappingCounters();
    map_calls_.push_back(
        static_cast<double>(maps.map_calls - maps_before.map_calls));
    mapped_mb_ = static_cast<double>(maps.mapped_bytes) / (1 << 20);
    const engine::RunStats begin = rt.SnapshotStats();
    const SteadyClock::time_point t_begin = SteadyClock::now();
    uint64_t last_count = app.telemetry->count();
    SteadyClock::time_point last_t = t_begin;
    for (int i = 0; i < RunOptions::kWindowsPerRound; ++i) {
      // Traced runs alternate sampled and quiet slices; the difference
      // of their medians is the tracing overhead.
      const bool sampled = slices_++ % 2 == 1;
      if (sampler) sampler->SetActive(sampled);
      HoldUntil(rt, After(t_begin, (i + 1) * RunOptions::kWindowS));
      const uint64_t count = app.telemetry->count();
      const SteadyClock::time_point now = SteadyClock::now();
      const double tps =
          static_cast<double>(count - last_count) / SecondsBetween(last_t, now);
      slice_tps_.push_back(tps);
      (sampled ? sampled_tps_ : quiet_tps_).push_back(tps);
      last_count = count;
      last_t = now;
    }
    const engine::RunStats end = rt.SnapshotStats();
    saturated_.Add(begin, end, SecondsBetween(t_begin, SteadyClock::now()));
    workers_.push_back(end.executor.threads);
    if (sampler) sampler->SetActive(true);
    Checkpoint(rt);  // checkpoint cost under load, on every workload
    sampler.reset();
    drain_s_.push_back(StopAndCount(&d).drain_seconds);

    topology_ = app.topology;
    plan_ = d.plan;
    predicted_tps_ = d.predicted_tps;
    optimize_s_.push_back(d.optimize_s);
    nodes_explored_ = d.nodes_explored;
    scaling_iterations_ = d.scaling_iterations;
    return Status::OK();
  }

  /// One paced deployment: the rebuilt topology with open-loop sources.
  Status PacedRound() {
    BRISK_ASSIGN_OR_RETURN(AppInstance app,
                           BuildApp(w_, o_.seed, corpus_path_));
    const int windows = RunOptions::kWindowsPerRound;
    auto source =
        std::make_shared<SourceControl>(w_.paced_rate_tps, 0, apps::NowNs);
    auto sink = std::make_shared<SinkControl>(windows, false, false, false);
    BRISK_ASSIGN_OR_RETURN(api::Topology paced,
                           Rebuild(*app.topology, source, sink));
    BRISK_ASSIGN_OR_RETURN(
        Deployed d,
        DeployJob(app, std::make_shared<const api::Topology>(std::move(paced)),
                  &setup_s_));
    engine::BriskRuntime& rt = d.rt();
    std::unique_ptr<Sampler> sampler;
    if (tracer_.enabled()) {
      sampler = std::make_unique<Sampler>(&tracer_, &rt, app.telemetry.get());
    }
    StartCadence();
    HoldUntil(rt, After(SteadyClock::now(), RunOptions::kSettleS));

    const engine::RunStats begin = rt.SnapshotStats();
    const uint64_t produced_begin = source->Produced();
    const SteadyClock::time_point t_begin = SteadyClock::now();
    source->recording.store(true);
    for (int i = 0; i < windows; ++i) {
      sink->window.store(i);
      HoldUntil(rt, After(t_begin, (i + 1) * RunOptions::kWindowS));
    }
    sink->window.store(-1);
    source->recording.store(false);
    const double window_s = SecondsBetween(t_begin, SteadyClock::now());
    const uint64_t produced_end = source->Produced();
    const engine::RunStats end = rt.SnapshotStats();
    sampler.reset();
    StopAndCount(&d);

    for (int i = 0; i < windows; ++i) {
      const Histogram h = sink->Latency(i);
      window_p50_ms_.push_back(h.Percentile(0.5) / 1e6);
      window_p99_ms_.push_back(h.Percentile(0.99) / 1e6);
      latency_.Merge(h);
    }
    offered_tuples_ += produced_end - produced_begin;
    lag_max_ms_ = std::max(lag_max_ms_, source->MaxLagMs());
    paced_.Add(begin, end, window_s);
    return Status::OK();
  }

  /// Waits until every source replica produced its bounded share, then
  /// stops; returns the wall time from `started` to stopped.
  StatusOr<double> RunBounded(Deployed* d, const SourceControl& source,
                              const SteadyClock::time_point started) {
    const uint64_t expected = source.limit_per_replica() * source.replicas();
    const SteadyClock::time_point deadline = After(started, 120.0);
    while (source.Produced() < expected) {
      if (SteadyClock::now() > deadline) {
        return Status::DeadlineExceeded("bounded pass did not finish");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    StopAndCount(d);
    return SecondsBetween(started, SteadyClock::now());
  }

  Status Correctness() {
    Tracer::Scope phase(&tracer_, "correctness", "phase");
    const uint64_t limit = o_.events_per_replica;

    // The workload's own plan (RLAS, NUMA emulation, four workers).
    BRISK_ASSIGN_OR_RETURN(AppInstance app,
                           BuildApp(w_, o_.seed, corpus_path_));
    auto source = std::make_shared<SourceControl>(0.0, limit, apps::NowNs);
    auto sink = std::make_shared<SinkControl>(0, true, w_.word_sequences,
                                              o_.drop_one_sink_tuple);
    BRISK_ASSIGN_OR_RETURN(api::Topology bounded,
                           Rebuild(*app.topology, source, sink));
    auto topo = std::make_shared<const api::Topology>(std::move(bounded));
    BRISK_ASSIGN_OR_RETURN(Deployed d, DeployJob(app, topo, nullptr));
    BRISK_ASSIGN_OR_RETURN(const double run_s,
                           RunBounded(&d, *source, SteadyClock::now()));
    std::vector<int> replication(static_cast<size_t>(topo->num_operators()), 1);
    for (const int op : topo->spouts()) replication[op] = d.plan.replication(op);

    // Reference: same sources and spout replication, every other
    // operator once, one worker, no NUMA emulation.
    BRISK_ASSIGN_OR_RETURN(AppInstance ref_app,
                           BuildApp(w_, o_.seed, corpus_path_));
    auto ref_source = std::make_shared<SourceControl>(0.0, limit, apps::NowNs);
    auto ref_sink =
        std::make_shared<SinkControl>(0, true, w_.word_sequences, false);
    BRISK_ASSIGN_OR_RETURN(api::Topology ref_bounded,
                           Rebuild(*ref_app.topology, ref_source, ref_sink));
    auto ref_topo =
        std::make_shared<const api::Topology>(std::move(ref_bounded));
    BRISK_ASSIGN_OR_RETURN(
        model::ExecutionPlan ref_plan,
        model::ExecutionPlan::Create(ref_topo.get(), replication));
    ref_plan.PlaceAllOn(0);
    engine::EngineConfig ref_config = engine::EngineConfig::Brisk();
    ref_config.workers_per_socket = 1;
    ref_config.seed = JobSeed(o_.seed);
    Deployed ref;
    BRISK_ASSIGN_OR_RETURN(ref.runtime,
                           engine::BriskRuntime::Create(ref_topo.get(), ref_plan,
                                                        ref_config, nullptr));
    const SteadyClock::time_point ref_started = SteadyClock::now();
    BRISK_RETURN_NOT_OK(ref.runtime->Start());
    BRISK_ASSIGN_OR_RETURN(const double ref_s,
                           RunBounded(&ref, *ref_source, ref_started));

    const KeyTallies run_keys = sink->Keys();
    const KeyTallies ref_keys = ref_sink->Keys();
    const uint64_t ref_tuples = ref_sink->Tuples();
    const uint64_t mismatched = CountMismatches(run_keys, ref_keys);
    uint64_t violations = 0;
    if (w_.word_sequences) {
      violations = SequenceViolations(run_keys) + SequenceViolations(ref_keys);
    }
    result_.attempted += ref_tuples;
    result_.failed += mismatched + violations;
    if (ref_tuples == 0) {
      ++result_.failed;
      result_.notes.push_back("the reference pass delivered nothing");
    }
    if (mismatched + violations > 0) {
      result_.notes.push_back(
          std::to_string(mismatched) + " sink tuples differ from the "
          "reference, " + std::to_string(violations) +
          " running-count violations");
    }
    const double run_tps = static_cast<double>(sink->Tuples()) / run_s;
    const double ref_tps = static_cast<double>(ref_tuples) / ref_s;
    result_.Add("ref.single_thread_tps", "tuples/s", ref_tps);
    result_.Add("scaling.speedup", "ratio", Ratio(run_tps, ref_tps));
    return Status::OK();
  }

  void Finish() {
    const api::Topology& topo = *topology_;
    const double throughput = MedianOf(slice_tps_);
    result_.Add("throughput_tps", "tuples/s", throughput);
    // Percentiles of every latency the paced phase recorded.
    result_.Add("latency_p50_ms", "ms", latency_.Percentile(0.5) / 1e6);
    result_.Add("latency_p99_ms", "ms", latency_.Percentile(0.99) / 1e6);
    const double setup_s = FasterHalfMedian(setup_s_);
    result_.Add("setup_s", "s", setup_s);

    // Per-operator ledger over the saturated windows.
    OpDelta all;
    std::string hot;
    uint64_t hot_busy = 0;
    for (int op = 0; op < topo.num_operators(); ++op) {
      const OpDelta& od = saturated_.ops[static_cast<size_t>(op)];
      OpCost c;
      c.name = topo.op(op).name;
      c.tuples_in = od.tuples_in;
      c.ns_per_tuple = Ratio(static_cast<double>(od.busy_ns),
                             static_cast<double>(od.tuples_in));
      c.busy_share =
          Ratio(static_cast<double>(od.busy_ns), saturated_.capacity_ns);
      c.bp_parks_per_ktuple = Ratio(1e3 * static_cast<double>(od.parks),
                                    static_cast<double>(od.tuples_in));
      result_.ops.push_back(c);
      all.tuples_in += od.tuples_in;
      all.batches_out += od.batches_out;
      all.batches_recycled += od.batches_recycled;
      all.busy_ns += od.busy_ns;
      all.tuples_vec += od.tuples_vec;
      // The hot operator: the busiest bolt besides parser and sink.
      const bool is_sink = std::find(topo.sinks().begin(), topo.sinks().end(),
                                     op) != topo.sinks().end();
      if (!topo.op(op).is_spout && !is_sink && c.name != "parser" &&
          od.busy_ns >= hot_busy) {
        hot_busy = od.busy_ns;
        hot = c.name;
      }
    }
    result_.notes.push_back("op.hot is '" + hot + "'");
    for (const OpCost& c : result_.ops) {
      const std::string role =
          c.name == "spout" || c.name == "parser" || c.name == "sink" ? c.name
          : c.name == hot                                             ? "hot"
                                                                      : "";
      if (role.empty()) continue;
      result_.Add("op." + role + ".ns_per_tuple", "ns", c.ns_per_tuple);
      result_.Add("op." + role + ".busy_share", "ratio", c.busy_share);
      if (role != "sink") {
        result_.Add("op." + role + ".bp_parks_per_ktuple", "1/ktuple",
                    c.bp_parks_per_ktuple);
      }
    }
    const double window_s = saturated_.window_s;
    result_.Add("ledger.op_busy_share", "ratio",
                Ratio(static_cast<double>(all.busy_ns), saturated_.capacity_ns));
    result_.Add("api.vectorized_ratio", "ratio",
                Ratio(static_cast<double>(all.tuples_vec),
                      static_cast<double>(all.tuples_in)));
    result_.Add("engine.tuples_per_batch", "tuples",
                saturated_.TuplesPerBatch(topo));
    result_.Add("engine.tuples_per_batch_paced", "tuples",
                paced_.TuplesPerBatch(topo));
    result_.Add("engine.recycle_ratio", "ratio",
                Ratio(static_cast<double>(all.batches_recycled),
                      static_cast<double>(all.batches_out)));
    result_.Add("engine.batches_per_s", "1/s",
                static_cast<double>(all.batches_out) / window_s);
    result_.Add("engine.drain_s", "s", MedianOf(drain_s_));

    const double steals =
        static_cast<double>(saturated_.steals_intra + saturated_.steals_cross);
    const double fails = static_cast<double>(saturated_.steal_failures);
    result_.Add("executor.workers", "count", MedianOf(workers_));
    result_.Add("executor.steals_per_s", "1/s", steals / window_s);
    result_.Add("executor.cross_steal_share", "ratio",
                Ratio(static_cast<double>(saturated_.steals_cross), steals));
    result_.Add("executor.steal_fail_ratio", "ratio",
                Ratio(fails, fails + steals));
    result_.Add("executor.repatriations_per_s", "1/s",
                static_cast<double>(saturated_.repatriations) / window_s);
    const double parks = static_cast<double>(paced_.parks);
    result_.Add("executor.parks_per_s_paced", "1/s", parks / paced_.window_s);
    result_.Add("executor.wake_ratio_paced", "ratio",
                Ratio(static_cast<double>(paced_.wakes), parks));
    for (const double w : workers_) {
      if (w != 4) {
        result_.notes.push_back("a deployment ran on " +
                                std::to_string(static_cast<int>(w)) +
                                " workers, not 4");
        break;
      }
    }

    result_.Add("optimizer.optimize_s", "s", FasterHalfMedian(optimize_s_));
    result_.Add("optimizer.scaling_iterations", "count", scaling_iterations_);
    result_.Add("optimizer.instances", "count", plan_.num_instances());
    result_.Add("optimizer.cross_socket_channel_share", "ratio",
                CrossSocketChannelShare(topo, plan_));
    result_.Add("model.predicted_tps", "tuples/s", predicted_tps_);
    result_.Add("model.measured_over_predicted", "ratio",
                Ratio(throughput, predicted_tps_));
    result_.Add("io.map_calls", "count", MedianOf(map_calls_));
    result_.Add("io.mapped_mb", "MiB", mapped_mb_);

    const double n = static_cast<double>(latency_.count());
    // The highest percentile with at least ten samples beyond it.
    const double tail_q = n > 10.0 ? 1.0 - 10.0 / n : 0.5;
    result_.Add("sink.latency_samples", "count", n);
    result_.Add("sink.latency_tail_q", "ratio", tail_q);
    result_.Add("sink.latency_tail_ms", "ms", latency_.Percentile(tail_q) / 1e6);
    const double offered =
        static_cast<double>(offered_tuples_) / paced_.window_s;
    result_.Add("gen.offered_tps", "tuples/s", offered);
    result_.Add("gen.lag_max_ms", "ms", lag_max_ms_);
    if (std::fabs(offered - w_.paced_rate_tps) > 0.01 * w_.paced_rate_tps) {
      result_.notes.push_back("the generator offered " +
                              std::to_string(offered) +
                              " tuples/s, more than 1% off its rate");
    }

    result_.Add("ckpt.pause_ms_p50", "ms", MedianOf(ckpt_pause_ms_));
    result_.Add("ckpt.pause_ms_max", "ms", Max(ckpt_pause_ms_));
    result_.Add("ckpt.encode_ms", "ms", MedianOf(ckpt_encode_ms_));
    result_.Add("ckpt.state_mb", "MiB", MedianOf(ckpt_state_mb_));
    result_.Add("ckpt.count", "count",
                static_cast<double>(ckpt_pause_ms_.size()));

    result_.samples = {
        {"saturated.slice_tps", slice_tps_},
        {"paced.window_p50_ms", window_p50_ms_},
        {"paced.window_p99_ms", window_p99_ms_},
        {"setup.deploy_s", setup_s_},
    };

    if (tracer_.enabled()) {
      const double deploy_s = FasterHalfMedian(traced_deploy_s_);
      result_.Add("optimizer.nodes_explored", "count",
                  static_cast<double>(nodes_explored_));
      result_.Add("engine.create_s", "s", FasterHalfMedian(create_s_));
      result_.Add("engine.start_s", "s", FasterHalfMedian(start_s_));
      result_.Add("trace.deploy_span_s", "s", deploy_s);
      result_.Add("trace.deploy_gap_pct", "%",
                  100.0 * Ratio(deploy_s - setup_s, setup_s));
      const double quiet = MedianOf(quiet_tps_);
      result_.Add("trace.overhead_pct", "%",
                  100.0 * Ratio(quiet - MedianOf(sampled_tps_), quiet));
      const Status written = tracer_.Write(o_.trace_path);
      if (!written.ok()) result_.notes.push_back(written.ToString());
    }
  }

  const Workload& w_;
  const RunOptions& o_;
  Tracer tracer_;
  WorkloadResult result_;
  std::string corpus_path_;
  SteadyClock::time_point next_ckpt_;

  // Saturated phase.
  std::shared_ptr<const api::Topology> topology_;
  model::ExecutionPlan plan_;
  PhaseLedger saturated_;
  std::vector<double> slice_tps_;
  std::vector<double> sampled_tps_;
  std::vector<double> quiet_tps_;
  int slices_ = 0;
  std::vector<double> workers_;
  std::vector<double> drain_s_;
  std::vector<double> map_calls_;
  double mapped_mb_ = 0.0;
  double predicted_tps_ = 0.0;
  std::vector<double> optimize_s_;
  uint64_t nodes_explored_ = 0;
  int scaling_iterations_ = 0;

  // Deployments.
  std::vector<double> setup_s_;
  std::vector<double> traced_deploy_s_;
  std::vector<double> create_s_;
  std::vector<double> start_s_;

  // Paced phase.
  PhaseLedger paced_;
  std::vector<double> window_p50_ms_;
  std::vector<double> window_p99_ms_;
  Histogram latency_;
  uint64_t offered_tuples_ = 0;
  double lag_max_ms_ = 0.0;

  // Checkpoints.
  std::vector<double> ckpt_pause_ms_;
  std::vector<double> ckpt_encode_ms_;
  std::vector<double> ckpt_state_mb_;
};

}  // namespace

StatusOr<WorkloadResult> RunWorkload(const Workload& workload,
                                     const RunOptions& options) {
  Runner runner(workload, options);
  return runner.RunAll();
}

StatusOr<WorkloadResult> RunCorrectnessOnly(const Workload& workload,
                                            const RunOptions& options) {
  Runner runner(workload, options);
  return runner.CorrectnessOnly();
}

}  // namespace brisk::e2e

#include "apps/linear_road.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/dsl.h"

namespace brisk::apps {

namespace {

constexpr int kAvgWindow = 32;
constexpr double kSmoothing = 0.25;
constexpr int kStopsForAccident = 4;
constexpr int64_t kCongestionThreshold = 50;  // vehicles per segment

// Aggregate bodies (the state is one key's), then per-replica Process
// factories (each call builds one replica with its own state).

/// The distinct vehicles of one segment: a bitmap over the spout's ids
/// [0, num_vehicles), grown on demand, plus an overflow set for ids
/// outside that range. The count stays exact for every int64 and no id
/// can force a large allocation.
struct VehicleSet {
  std::vector<uint64_t> bits;
  std::unordered_set<int64_t> overflow;
  int64_t count = 0;

  void Insert(int64_t id, int64_t num_vehicles) {
    if (id < 0 || id >= num_vehicles) {
      count += overflow.insert(id).second ? 1 : 0;
      return;
    }
    const auto word = static_cast<size_t>(id >> 6);
    if (word >= bits.size()) bits.resize(word + 1);
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((bits[word] & bit) == 0) {
      bits[word] |= bit;
      ++count;
    }
  }
};

/// Checkpoint codec [count, #overflow, overflow ids..., bitmap words...].
Tuple EncodeVehicleSet(const VehicleSet& v) {
  Tuple t;
  t.fields.reserve(2 + v.overflow.size() + v.bits.size());
  t.fields.emplace_back(v.count);
  t.fields.emplace_back(v.overflow.size());
  for (const int64_t id : v.overflow) t.fields.emplace_back(id);
  for (const uint64_t w : v.bits) t.fields.emplace_back(w);
  return t;
}

VehicleSet DecodeVehicleSet(const Tuple& t) {
  VehicleSet v;
  v.count = t.fields[0].AsInt();
  const size_t n = std::min<size_t>(t.fields[1].AsInt(), t.fields.size() - 2);
  for (size_t i = 2; i < 2 + n; ++i) v.overflow.insert(t.fields[i].AsInt());
  for (size_t i = 2 + n; i < t.fields.size(); ++i) {
    v.bits.push_back(static_cast<uint64_t>(t.fields[i].AsInt()));
  }
  return v;
}

/// Average speed of a segment over its last kAvgWindow reports.
void AvgSpeed(MeanWindow& w, const Tuple& in, api::RowEmitter& out) {
  const double avg = w.Push(in.GetDouble(3), kAvgWindow);
  out.Emit(Tuple{Field(kLrAvgSpeed), in.fields[2], Field(avg)});
}

/// Exponentially smoothed average; NaN (unseeded) takes the first.
void LastAvgSpeed(double& smoothed, const Tuple& in, api::RowEmitter& out) {
  const double avg = in.GetDouble(2);
  smoothed = std::isnan(smoothed)
                 ? avg
                 : kSmoothing * avg + (1.0 - kSmoothing) * smoothed;
  out.Emit(Tuple{Field(kLrLasSpeed), in.fields[1], Field(smoothed)});
}

/// A vehicle's kStopsForAccident-th consecutive stop: an accident.
void AccidentDetect(int& stops, const Tuple& in, api::RowEmitter& out) {
  if (in.GetDouble(3) != 0.0) {
    stops = 0;
  } else if (++stops == kStopsForAccident) {
    out.Emit(Tuple{Field(kLrAccident), in.fields[2]});
  }
}

/// count_vehicle: distinct vehicles per segment; emits the running
/// count.
auto CountVehicle(int64_t num_vehicles) {
  return [num_vehicles](VehicleSet& vehicles, const Tuple& in,
                        api::RowEmitter& out) {
    vehicles.Insert(in.GetInt(1), num_vehicles);
    out.Emit(Tuple{Field(kLrCount), in.fields[2], Field(vehicles.count)});
  };
}

/// dispatcher: position reports on the default stream, account
/// queries on the two side outputs (ids resolved here, at Prepare; an
/// undeclared stream fails Prepare with an empty body).
dsl::ProcessFn Dispatcher(const api::OperatorContext& ctx) {
  auto balance = ctx.StreamId("balance_stream");
  auto daily = ctx.StreamId("daily_exp_request");
  if (!balance.ok() || !daily.ok()) return nullptr;
  return [balance = *balance, daily = *daily](const Tuple& in,
                                              dsl::Collector& out) {
    const int64_t type = in.GetInt(0);
    if (type == kLrPosition) {
      out.Emit(in);
    } else if (type == kLrBalance) {
      out.EmitTo(balance, in);
    } else if (type == kLrDaily) {
      out.EmitTo(daily, in);
    }  // else malformed: drop
  };
}

/// accident_notify: notifies vehicles entering a segment with a known
/// accident (rare: Table 8 lists selectivity ~0).
dsl::ProcessFn AccidentNotify(const api::OperatorContext&) {
  return [accidents = std::set<int64_t>()](const Tuple& in,
                                           dsl::Collector& out) mutable {
    if (in.GetInt(0) == kLrAccident) {
      accidents.insert(in.GetInt(1));
    } else if (accidents.count(in.GetInt(2))) {
      out.Emit(in, {Field(kLrNotify), in.fields[1], in.fields[2]});
    }
  };
}

/// toll_notify: tolls from congestion (counts), speed (las) and
/// accident state; one toll notification per position, count and las
/// input (Table 8), none per accident.
struct TollNotify {
  std::unordered_map<int64_t, double> seg_avg_speed;
  std::unordered_map<int64_t, int64_t> seg_count;
  std::set<int64_t> accident_segments;

  void operator()(const Tuple& in, dsl::Collector& out) {
    int64_t segment = 0;
    switch (in.GetInt(0)) {
      case kLrAccident:
        accident_segments.insert(in.GetInt(1));
        return;
      case kLrLasSpeed:
        segment = in.GetInt(1);
        seg_avg_speed[segment] = in.GetDouble(2);
        break;
      case kLrCount:
        segment = in.GetInt(1);
        seg_count[segment] = in.GetInt(2);
        break;
      case kLrPosition:
        segment = in.GetInt(2);
        break;
      default:
        return;
    }
    // Toll: quadratic in congestion above the threshold, zero when the
    // segment flows freely or has an accident (classic LR formula).
    const int64_t cars = seg_count.count(segment) ? seg_count[segment] : 0;
    const double avg_speed =
        seg_avg_speed.count(segment) ? seg_avg_speed[segment] : 100.0;
    double toll = 0.0;
    if (cars > kCongestionThreshold && avg_speed < 40.0 &&
        !accident_segments.count(segment)) {
      const double over = static_cast<double>(cars - kCongestionThreshold);
      toll = 2.0 * over * over;
    }
    out.Emit(in, {Field(kLrToll), Field(segment), Field(toll)});
  }
};

/// Queries update state and emit nothing (selectivity ~0, Table 8).
dsl::ProcessFn DailyExpense(const api::OperatorContext&) {
  return [expenses = std::unordered_map<int64_t, double>()](
             const Tuple& in, dsl::Collector&) mutable {
    expenses[in.GetInt(1) * 128 + in.GetInt(2)] += 1.0;
  };
}

dsl::ProcessFn AccountBalance(const api::OperatorContext&) {
  return [balances = std::unordered_map<int64_t, double>()](
             const Tuple& in, dsl::Collector&) mutable {
    balances[in.GetInt(1)] += 0.0;  // touch account state
  };
}

}  // namespace

Status LinearRoadSpout::Prepare(const api::OperatorContext& ctx) {
  rng_ = Rng(params_.seed + 0x2545f491ULL * (ctx.replica_index + 1));
  return Status::OK();
}

size_t LinearRoadSpout::NextBatch(size_t max_tuples,
                                  api::OutputCollector* out) {
  const int64_t now = NowNs();
  for (size_t i = 0; i < max_tuples; ++i) {
    Tuple t;
    const double kind = rng_.NextDouble();
    const auto vehicle =
        static_cast<int64_t>(rng_.NextBounded(params_.num_vehicles));
    if (kind < params_.balance_fraction) {
      t.fields = {Field(kLrBalance), Field(vehicle)};
    } else if (kind < params_.balance_fraction + params_.daily_fraction) {
      t.fields = {Field(kLrDaily), Field(vehicle),
                  Field(static_cast<int64_t>(rng_.NextBounded(70)))};
    } else {
      const auto segment =
          static_cast<int64_t>(rng_.NextBounded(params_.num_segments));
      const double speed = rng_.NextBernoulli(params_.stop_probability)
                               ? 0.0
                               : 30.0 + rng_.NextDouble() * 70.0;
      t.fields = {Field(kLrPosition), Field(vehicle), Field(segment),
                  Field(speed),
                  Field(static_cast<int64_t>(rng_.NextBounded(4)))};
    }
    t.origin_ts_ns = now;
    out->Emit(std::move(t));
  }
  return max_tuples;
}

StatusOr<api::Topology> BuildLinearRoad(std::shared_ptr<SinkTelemetry> sink,
                                        LinearRoadParams params) {
  dsl::Pipeline p("linear-road");
  const dsl::Stream dispatcher =
      p.Source("spout", api::SpoutFactory([params] {
                 return std::make_unique<LinearRoadSpout>(params);
               }))
          .Filter("parser", ParserKeeps)
          .Process("dispatcher", Dispatcher);
  const dsl::Stream balance = dispatcher.SideOutput("balance_stream");
  const dsl::Stream daily = dispatcher.SideOutput("daily_exp_request");
  const dsl::Stream las_avg_speed =
      dispatcher.KeyBy(2)  // by segment
          .Aggregate<MeanWindow>("avg_speed", {}, AvgSpeed, EncodeMeanWindow,
                                 DecodeMeanWindow)
          .KeyBy(1)
          .Aggregate<double>("las_avg_speed",
                             std::numeric_limits<double>::quiet_NaN(),
                             LastAvgSpeed);
  const dsl::Stream accident_detect =
      dispatcher.KeyBy(1)  // by vehicle
          .Aggregate<int>("accident_detect", 0, AccidentDetect);
  const dsl::Stream count_vehicle =
      dispatcher.KeyBy(2)  // by segment
          .Aggregate<VehicleSet>("count_vehicle", {},
                                 CountVehicle(params.num_vehicles),
                                 EncodeVehicleSet, DecodeVehicleSet);
  const dsl::Stream accident_notify =
      accident_detect.Broadcast()
          .Process("accident_notify", AccidentNotify)
          .Merge(dispatcher);
  const dsl::Stream toll_notify =
      accident_detect.Broadcast()
          .Process("toll_notify",
                   [](const api::OperatorContext&) { return TollNotify(); })
          .Merge(dispatcher.KeyBy(2))
          .Merge(count_vehicle.KeyBy(1))
          .Merge(las_avg_speed.KeyBy(1));
  const dsl::Stream daily_expense =
      daily.Process("daily_expense", DailyExpense);
  const dsl::Stream account_balance =
      balance.Process("account_balance", AccountBalance);
  toll_notify
      .Sink("sink",
            [sink](const Tuple& in) {
              sink->RecordTuple(in.origin_ts_ns, NowNs());
            })
      .Merge(accident_notify)
      .Merge(daily_expense)
      .Merge(account_balance);
  return std::move(p).Build();
}

model::ProfileSet LinearRoadProfiles(const LinearRoadParams& params) {
  using model::OperatorProfile;
  model::ProfileSet p;
  constexpr double kReportBytes = 44.0;

  p.Set("spout", OperatorProfile::Simple(/*te=*/420, /*m=*/2.0 * kReportBytes,
                                         /*out=*/kReportBytes, /*sel=*/1.0));
  p.Set("parser", OperatorProfile::Simple(/*te=*/480, /*m=*/kReportBytes,
                                          /*out=*/kReportBytes, /*sel=*/1.0));

  {
    // Dispatcher: three output streams with Table 8 selectivities
    // (position ≈ 0.99, balance ≈ 0.005, daily ≈ 0.005).
    OperatorProfile d;
    d.te_cycles = 900;
    d.m_bytes = 2.0 * kReportBytes;
    const double pos = 1.0 - params.balance_fraction - params.daily_fraction;
    d.output_bytes = {kReportBytes, 20.0, 24.0};
    d.selectivity = {pos, params.balance_fraction, params.daily_fraction};
    p.Set("dispatcher", d);
  }
  p.Set("avg_speed", OperatorProfile::Simple(/*te=*/1400, /*m=*/520.0,
                                             /*out=*/24.0, /*sel=*/1.0));
  p.Set("las_avg_speed", OperatorProfile::Simple(/*te=*/700, /*m=*/96.0,
                                                 /*out=*/24.0, /*sel=*/1.0));
  p.Set("accident_detect",
        OperatorProfile::Simple(/*te=*/1100, /*m=*/128.0,
                                /*out=*/16.0, /*sel=*/0.001));
  p.Set("count_vehicle", OperatorProfile::Simple(/*te=*/1000, /*m=*/256.0,
                                                 /*out=*/24.0, /*sel=*/1.0));
  p.Set("accident_notify",
        OperatorProfile::Simple(/*te=*/600, /*m=*/64.0,
                                /*out=*/24.0, /*sel=*/0.0005));
  p.Set("toll_notify", OperatorProfile::Simple(/*te=*/1300, /*m=*/256.0,
                                               /*out=*/24.0, /*sel=*/1.0));
  p.Set("daily_expense", OperatorProfile::Simple(/*te=*/2000, /*m=*/320.0,
                                                 /*out=*/32.0, /*sel=*/0.0));
  p.Set("account_balance",
        OperatorProfile::Simple(/*te=*/1500, /*m=*/256.0,
                                /*out=*/32.0, /*sel=*/0.0));
  p.Set("sink", OperatorProfile::Simple(/*te=*/120, /*m=*/24.0,
                                        /*out=*/8.0, /*sel=*/0.0));
  return p;
}

}  // namespace brisk::apps

// Linear Road (LR), Fig. 18(c) — the most complex benchmark topology:
//
//   Spout -> Parser -> Dispatcher -+-> AvgSpeed -> LastAvgSpeed -+
//                                  |-> AccidentDetect ---+       |
//                                  |-> CountVehicle --+  |       |
//                                  |   (position) ----+--+-------+-> TollNotify -> Sink
//                                  |   (position) --------+-> AccidentNotify -> Sink
//                                  |-> DailyExpense  -> Sink
//                                  +-> AccountBalance -> Sink
//
// Stream selectivities follow Table 8 (position ≈ 0.99 of input;
// balance/daily requests ≈ 0; toll notifications per position, count
// and last-average-speed tuple; accident/notify/daily/balance outputs
// ≈ 0).
#pragma once

#include <memory>

#include "api/operator.h"
#include "api/topology.h"
#include "apps/common_ops.h"
#include "common/rng.h"
#include "model/operator_profile.h"

namespace brisk::apps {

/// First field of every LR tuple: what kind of event it carries.
enum LrTupleType : int64_t {
  kLrPosition = 0,   ///< [type, vehicle, segment, speed, lane]
  kLrBalance = 1,    ///< [type, vehicle]
  kLrDaily = 2,      ///< [type, vehicle, day]
  kLrAvgSpeed = 3,   ///< [type, segment, avg]
  kLrLasSpeed = 4,   ///< [type, segment, smoothed_avg]
  kLrAccident = 5,   ///< [type, segment]
  kLrCount = 6,      ///< [type, segment, vehicles]
  kLrToll = 7,       ///< [type, vehicle_or_segment, toll]
  kLrNotify = 8,     ///< [type, vehicle, segment]
};

struct LinearRoadParams {
  int num_vehicles = 20000;
  int num_segments = 100;
  double balance_fraction = 0.005;  ///< share of balance queries
  double daily_fraction = 0.005;    ///< share of daily-expense queries
  double stop_probability = 0.004;  ///< chance a car reports speed 0
  uint64_t seed = 47;
};

/// Raw event source mixing position reports with rare account queries.
class LinearRoadSpout : public api::Spout {
 public:
  explicit LinearRoadSpout(LinearRoadParams params)
      : params_(params), rng_(params.seed) {}

  Status Prepare(const api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override;

 private:
  LinearRoadParams params_;
  Rng rng_;
};

/// The LR dataflow as a dsl::Pipeline program. The parser filter and
/// the four Aggregates run compiled; the other bolts are interpreted
/// Process/Sink verbs. The dispatcher routes
/// position reports on its default stream and account queries on the
/// "balance_stream" and "daily_exp_request" side outputs. avg_speed,
/// las_avg_speed, accident_detect and count_vehicle keep per-key state
/// in Aggregates, so it migrates with their key and is checkpointed;
/// toll_notify and the sink Merge four inputs each.
StatusOr<api::Topology> BuildLinearRoad(std::shared_ptr<SinkTelemetry> sink,
                                        LinearRoadParams params = {});

model::ProfileSet LinearRoadProfiles(const LinearRoadParams& params = {});

}  // namespace brisk::apps

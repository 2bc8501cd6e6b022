// Typed kernel descriptors — the vocabulary compiled pipelines are
// built from.
//
// A KernelDesc describes one stage of a fused chain in both of the
// forms the engine can execute:
//
//   * row-wise closures (`filter_row` / `map_row` / `expand_row`) —
//     every stage has one. CompiledPipeline::RunRow runs them a tuple
//     at a time (interpreted fusion, spout-side chains, property
//     tests), and RunBatch loops them over a JumboTuple's live rows;
//   * optional batch closures (`filter_batch` / `map_batch`) — dense
//     loops over one JumboTuple under a SelectionVector, which RunBatch
//     prefers. Only the constant-folding constructors (FilterCmpConst,
//     MapNumConst) supply one; a closure constructor's batch form would
//     be the same loop RunBatch already runs over the row closure.
//
// A chain of descriptors is therefore executable either way with
// identical semantics; the randomized equivalence test in
// tests/api/kernel_pipeline_test.cc holds the two paths to the exact
// same output sequence.
//
// Descriptors are plain copyable values: the dsl layer attaches them
// to topology nodes, the fusion pass concatenates them across fused
// operators, and each engine replica compiles its own private copy
// (aggregate state is created per replica via `make_aggregate`).
//
// Keyed state lives in a KeyedStateTable, keyed by the grouping Field
// itself. TypedAggregate holds one per replica; it is the one keyed
// aggregate, behind both AggregateOf and dsl::KeyedStream::Aggregate.
// Every table carries a checkpoint codec, which moves state through
// checkpoints and live migrations alike.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/operator.h"
#include "common/column_batch.h"
#include "common/tuple.h"

namespace brisk::api {

enum class KernelKind : uint8_t { kMap, kFilter, kFlatMap, kAggregate };

/// Comparison / arithmetic vocabulary for the constant-folding
/// constructors (the cases a bench or simple parser chain needs; use
/// the closure constructors for anything richer).
enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };
enum class NumOp : uint8_t { kAdd, kSub, kMul };

/// Row sink for expanding kernels (FlatMap bodies, aggregate
/// emissions). Emitted tuples with an unset origin timestamp inherit
/// the input row's — the same rule dsl::Collector::Derive applies.
class RowEmitter {
 public:
  virtual ~RowEmitter() = default;
  virtual void Emit(Tuple t) = 0;
};

/// Per-replica keyed aggregate execution state. Update order is the
/// batch's ascending row order in both execution modes, so state
/// evolution is identical between interpreted and compiled runs.
class AggregateExec {
 public:
  virtual ~AggregateExec() = default;
  virtual void UpdateRow(const Tuple& in, RowEmitter& out) = 0;
  /// Keyed-state hooks, mirroring api::Operator's contract: Snapshot
  /// copies state without clearing it, Restore replaces it.
  virtual std::vector<CheckpointEntry> SnapshotKeyedState() = 0;
  virtual void RestoreKeyedState(std::vector<CheckpointEntry> entries) = 0;
};

/// One pipeline stage. `kind` picks which members are meaningful:
/// filters carry filter_row (+ optional filter_batch), maps carry
/// map_row (+ optional map_batch), flatmaps carry expand_row, and
/// aggregates carry key_field + make_aggregate.
///
/// Batch closures may only *clear* selection bits and may read any
/// row (dead rows hold valid, if stale, tuples); clearing bits of the
/// word currently being iterated by ForEachSet is safe because the
/// walk snapshots each word.
struct KernelDesc {
  KernelKind kind = KernelKind::kMap;
  /// Human-readable stage label for JobReport / bench output.
  std::string debug;
  /// Expected output:input ratio, feeding the fused cost model.
  double selectivity_hint = 1.0;

  std::function<bool(const Tuple&)> filter_row;
  std::function<void(JumboTuple&, SelectionVector&)> filter_batch;

  std::function<void(Tuple&)> map_row;
  std::function<void(JumboTuple&, const SelectionVector&)> map_batch;

  std::function<void(const Tuple&, RowEmitter&)> expand_row;

  /// Aggregates: tuple field the state is keyed by, and a factory for
  /// the per-replica execution state.
  int key_field = -1;
  std::function<std::unique_ptr<AggregateExec>()> make_aggregate;
};

/// Filter from an arbitrary keep-predicate.
KernelDesc FilterOf(std::function<bool(const Tuple&)> pred,
                    double selectivity_hint = 1.0, std::string debug = "filter");

/// In-place one-to-one transform from an arbitrary closure.
KernelDesc MapOf(std::function<void(Tuple&)> fn, std::string debug = "map");

/// Expanding transform (0..n outputs per input).
KernelDesc FlatMapOf(std::function<void(const Tuple&, RowEmitter&)> fn,
                     double selectivity_hint = 1.0,
                     std::string debug = "flatmap");

/// `keep row iff fields[col] <op> literal` with a dense batch loop.
KernelDesc FilterCmpConst(size_t col, CmpOp op, int64_t literal,
                          double selectivity_hint = 0.5);

/// `fields[col] = fields[col] <op> literal` (int64, wrap-around
/// arithmetic) with a dense batch loop.
KernelDesc MapNumConst(size_t col, NumOp op, int64_t literal);

/// Key identity of keyed state: two Fields are one key only when they
/// have the same kind and equal int64 bits, bitwise-equal double bits
/// or equal string bytes. So 0, 0.0, -0.0 and "0" are four keys and a
/// NaN is one key per bit pattern, matching the bytes HashField routes
/// fields grouping on.
struct FieldKeyEq {
  static uint64_t Bits(const Field& f) {
    if (f.is_int()) return static_cast<uint64_t>(f.AsInt());
    const double d = f.AsDouble();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  }
  bool operator()(const Field& a, const Field& b) const {
    if (a.index() != b.index()) return false;
    return a.is_string() ? a.AsString() == b.AsString() : Bits(a) == Bits(b);
  }
};

/// Table-local hash for FieldKeyEq: a 64-bit finalizer (MurmurHash3's
/// fmix64) over scalar bits, std::hash over string bytes. Cheaper per
/// lookup than the router's byte-wise HashField.
struct FieldKeyHash {
  size_t operator()(const Field& f) const {
    if (f.is_string()) return std::hash<std::string_view>()(f.AsString());
    uint64_t x = FieldKeyEq::Bits(f);
    x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
    x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return static_cast<size_t>(x ^ (x >> 33));
  }
};

/// The one-field checkpoint codec of an arithmetic State: integers
/// travel as int64, floating point as double.
template <typename State>
Tuple EncodeArithmetic(const State& s) {
  if constexpr (std::is_floating_point_v<State>) {
    return Tuple{Field(static_cast<double>(s))};
  } else {
    return Tuple{Field(static_cast<int64_t>(s))};
  }
}

template <typename State>
State DecodeArithmetic(const Tuple& t) {
  if constexpr (std::is_floating_point_v<State>) {
    return static_cast<State>(t.fields[0].AsDouble());
  } else {
    return static_cast<State>(t.fields[0].AsInt());
  }
}

/// One replica's keyed state: one `State` (copied from `init`) per
/// distinct grouping Field. The per-tuple lookup hashes the field in
/// place and copies it only when the key is first seen.
///
/// Every table carries a checkpoint codec (it must round-trip the
/// State bit-exactly). Snapshot copies the entries through it; Restore
/// replaces the table's contents with decoded entries. Checkpoints and
/// live migrations both move state this way: the engine re-buckets
/// snapshotted entries by the fields-grouping hash and restores each
/// bucket into its owner replica.
template <typename State>
class KeyedStateTable {
 public:
  using Encoder = std::function<Tuple(const State&)>;
  using Decoder = std::function<State(const Tuple&)>;

  KeyedStateTable(State init, Encoder encode, Decoder decode)
      : init_(std::move(init)),
        encode_(std::move(encode)),
        decode_(std::move(decode)) {}

  /// The state of `key`, created from `init` the first time.
  State& At(const Field& key) {
    return states_.try_emplace(key, init_).first->second;
  }

  /// Copies every entry out (state keeps running).
  std::vector<CheckpointEntry> Snapshot() const {
    std::vector<CheckpointEntry> out;
    out.reserve(states_.size());
    for (const auto& [k, v] : states_) out.push_back({k, encode_(v)});
    return out;
  }

  /// Replaces every entry with `entries`.
  void Restore(std::vector<CheckpointEntry> entries) {
    states_.clear();
    states_.reserve(entries.size());
    for (auto& e : entries) {
      states_.insert_or_assign(std::move(e.key), decode_(e.state));
    }
  }

 private:
  State init_;
  Encoder encode_;
  Decoder decode_;
  std::unordered_map<Field, State, FieldKeyHash, FieldKeyEq> states_;
};

/// Keyed aggregate over `State`: `fn` updates the key's state from
/// each row and decides what to emit. Moves through checkpoints and
/// live migrations through its KeyedStateTable.
template <typename State>
class TypedAggregate final : public AggregateExec {
 public:
  using Fn = std::function<void(State&, const Tuple&, RowEmitter&)>;

  TypedAggregate(size_t key_field, KeyedStateTable<State> table, Fn fn)
      : key_field_(key_field), table_(std::move(table)), fn_(std::move(fn)) {}

  void UpdateRow(const Tuple& in, RowEmitter& out) override {
    fn_(table_.At(in.fields[key_field_]), in, out);
  }
  std::vector<CheckpointEntry> SnapshotKeyedState() override {
    return table_.Snapshot();
  }
  void RestoreKeyedState(std::vector<CheckpointEntry> entries) override {
    table_.Restore(std::move(entries));
  }

 private:
  size_t key_field_;
  KeyedStateTable<State> table_;
  Fn fn_;
};

/// Keyed aggregate descriptor with an explicit checkpoint codec, which
/// States richer than a single arithmetic value (windows, sketches)
/// must pass: `encode` must capture the state bit-exactly — recovery
/// and migration tests hold restored replicas to never-crashed
/// behavior.
template <typename State>
KernelDesc AggregateOf(
    size_t key_field, State init,
    std::function<void(State&, const Tuple&, RowEmitter&)> fn,
    std::function<Tuple(const State&)> encode,
    std::function<State(const Tuple&)> decode, double selectivity_hint = 1.0,
    std::string debug = "aggregate") {
  KernelDesc d;
  d.kind = KernelKind::kAggregate;
  d.debug = std::move(debug);
  d.selectivity_hint = selectivity_hint;
  d.key_field = static_cast<int>(key_field);
  // Each replica starts from a copy of this empty table.
  KeyedStateTable<State> table(std::move(init), std::move(encode),
                               std::move(decode));
  d.make_aggregate = [key_field, table = std::move(table),
                      fn = std::move(fn)]() -> std::unique_ptr<AggregateExec> {
    return std::make_unique<TypedAggregate<State>>(key_field, table, fn);
  };
  return d;
}

/// Keyed aggregate descriptor for an arithmetic State, which carries
/// the one-field codec.
template <typename State>
KernelDesc AggregateOf(
    size_t key_field, State init,
    std::function<void(State&, const Tuple&, RowEmitter&)> fn,
    double selectivity_hint = 1.0, std::string debug = "aggregate") {
  static_assert(std::is_arithmetic_v<State>,
                "a non-arithmetic State needs a checkpoint codec");
  return AggregateOf<State>(key_field, std::move(init), std::move(fn),
                            EncodeArithmetic<State>, DecodeArithmetic<State>,
                            selectivity_hint, std::move(debug));
}

}  // namespace brisk::api

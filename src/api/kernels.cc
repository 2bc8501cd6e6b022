#include "api/kernels.h"

namespace brisk::api {

namespace {

bool CmpInt(int64_t v, CmpOp op, int64_t k) {
  switch (op) {
    case CmpOp::kLt:
      return v < k;
    case CmpOp::kLe:
      return v <= k;
    case CmpOp::kGt:
      return v > k;
    case CmpOp::kGe:
      return v >= k;
    case CmpOp::kEq:
      return v == k;
    case CmpOp::kNe:
      return v != k;
  }
  return false;
}

// Wrap-around int64 arithmetic: evaluated in uint64 so overflow is
// defined (and UBSan-clean) on every input.
int64_t NumInt(int64_t v, NumOp op, int64_t k) {
  const uint64_t a = static_cast<uint64_t>(v);
  const uint64_t b = static_cast<uint64_t>(k);
  switch (op) {
    case NumOp::kAdd:
      return static_cast<int64_t>(a + b);
    case NumOp::kSub:
      return static_cast<int64_t>(a - b);
    case NumOp::kMul:
      return static_cast<int64_t>(a * b);
  }
  return v;
}

const char* CmpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
  }
  return "?";
}

const char* NumName(NumOp op) {
  switch (op) {
    case NumOp::kAdd:
      return "+";
    case NumOp::kSub:
      return "-";
    case NumOp::kMul:
      return "*";
  }
  return "?";
}

}  // namespace

KernelDesc FilterOf(std::function<bool(const Tuple&)> pred,
                    double selectivity_hint, std::string debug) {
  KernelDesc d;
  d.kind = KernelKind::kFilter;
  d.debug = std::move(debug);
  d.selectivity_hint = selectivity_hint;
  d.filter_row = std::move(pred);
  return d;
}

KernelDesc MapOf(std::function<void(Tuple&)> fn, std::string debug) {
  KernelDesc d;
  d.kind = KernelKind::kMap;
  d.debug = std::move(debug);
  d.map_row = std::move(fn);
  return d;
}

KernelDesc FlatMapOf(std::function<void(const Tuple&, RowEmitter&)> fn,
                     double selectivity_hint, std::string debug) {
  KernelDesc d;
  d.kind = KernelKind::kFlatMap;
  d.debug = std::move(debug);
  d.selectivity_hint = selectivity_hint;
  d.expand_row = std::move(fn);
  return d;
}

KernelDesc FilterCmpConst(size_t col, CmpOp op, int64_t literal,
                          double selectivity_hint) {
  KernelDesc d;
  d.kind = KernelKind::kFilter;
  d.debug = "filter(f" + std::to_string(col) + CmpName(op) +
            std::to_string(literal) + ")";
  d.selectivity_hint = selectivity_hint;
  d.filter_row = [col, op, literal](const Tuple& t) {
    return CmpInt(t.fields[col].AsInt(), op, literal);
  };
  // Dense loop over live rows; the CmpOp switch hoists out of the loop
  // once the compiler clones the lambda per op value at -O2.
  d.filter_batch = [col, op, literal](JumboTuple& b, SelectionVector& sel) {
    Tuple* rows = b.tuples.data();
    sel.ForEachSet([&](size_t i) {
      if (!CmpInt(rows[i].fields[col].AsInt(), op, literal)) sel.Clear(i);
    });
  };
  return d;
}

KernelDesc MapNumConst(size_t col, NumOp op, int64_t literal) {
  KernelDesc d;
  d.kind = KernelKind::kMap;
  d.debug = "map(f" + std::to_string(col) + NumName(op) +
            std::to_string(literal) + ")";
  d.map_row = [col, op, literal](Tuple& t) {
    t.fields[col] = Field(NumInt(t.fields[col].AsInt(), op, literal));
  };
  d.map_batch = [col, op, literal](JumboTuple& b, const SelectionVector& sel) {
    Tuple* rows = b.tuples.data();
    sel.ForEachSet([&](size_t i) {
      Field& f = rows[i].fields[col];
      f = Field(NumInt(f.AsInt(), op, literal));
    });
  };
  return d;
}

}  // namespace brisk::api

#include "apps/common_ops.h"

#include <chrono>

namespace brisk::apps {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tuple EncodeMeanWindow(const MeanWindow& w) {
  Tuple t;
  t.fields.reserve(w.values.size() + 1);
  t.fields.emplace_back(w.sum);
  for (const double v : w.values) t.fields.emplace_back(v);
  return t;
}

MeanWindow DecodeMeanWindow(const Tuple& t) {
  MeanWindow w;
  w.sum = t.fields[0].AsDouble();
  for (size_t i = 1; i < t.fields.size(); ++i) {
    w.values.push_back(t.fields[i].AsDouble());
  }
  return w;
}

}  // namespace brisk::apps

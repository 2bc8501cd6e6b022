// Reporting plumbing for the end-to-end benchmark: a small JSON value
// (result files, BENCHMARK.json, the baseline), the quartile rule the
// regression gate uses, the host fingerprint every result carries, and
// a Chrome trace-event recorder whose output the Perfetto UI opens.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace brisk::e2e {

/// JSON document model: just enough for the benchmark's own files.
/// Objects keep insertion order so written files diff cleanly.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;                         // kArray
  std::vector<std::pair<std::string, Json>> members;  // kObject

  Json() = default;
  Json(bool b) : type(Type::kBool), boolean(b) {}
  Json(double v) : type(Type::kNumber), number(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(int64_t v) : Json(static_cast<double>(v)) {}
  Json(uint64_t v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type(Type::kString), str(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json Object() {
    Json j;
    j.type = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type = Type::kArray;
    return j;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;
  /// Sets (or replaces) an object member and returns it.
  Json& Set(const std::string& key, Json value);
  Json& Push(Json value) {
    items.push_back(std::move(value));
    return items.back();
  }

  /// Compact serialization (doubles keep all 17 significant digits;
  /// non-finite numbers serialize as null).
  std::string Dump() const;

  static StatusOr<Json> Parse(std::string_view text);
};

StatusOr<Json> ReadJsonFile(const std::string& path);
Status WriteTextFile(const std::string& path, const std::string& text);

/// First quartile, median and third quartile, computed exactly like
/// Python's statistics.quantiles(values, n=4) ("exclusive" method) and
/// statistics.median, so the gate and the external acceptance check
/// agree to the last digit. A single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / |median|, 0 when the median is 0.
  double SpreadShare() const;
};
Quartiles QuartilesOf(std::vector<double> values);
double MedianOf(std::vector<double> values);

/// Host fingerprint: nproc, CPU model, compiler, build type, kernel and
/// the checkout's HEAD commit (read from .git at run time; "unknown"
/// outside a git checkout).
Json HostFingerprint();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Chrome trace-event recorder (the JSON array format the Perfetto UI
/// and chrome://tracing open). Thread-safe; events stay in memory and
/// are written once at the end. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Microseconds since the tracer was created.
  double NowUs() const;

  /// Complete span ("X" event). Every span is on one track, where the
  /// viewer nests each span under the span that caused it.
  void Span(const std::string& name, const std::string& cat, double start_us,
            double end_us);

  /// Counter sample ("C" event): one track per series name.
  void Counter(const std::string& name, double ts_us,
               const std::vector<std::pair<std::string, double>>& series);

  Status Write(const std::string& path) const;

  /// RAII span. Also times the scope when tracing is off: `seconds`
  /// (nullable) receives the duration at scope exit.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string cat,
          double* seconds = nullptr)
        : tracer_(tracer),
          name_(std::move(name)),
          cat_(std::move(cat)),
          seconds_(seconds),
          start_us_(tracer->NowUs()) {}
    ~Scope() {
      const double end_us = tracer_->NowUs();
      if (seconds_ != nullptr) *seconds_ = (end_us - start_us_) / 1e6;
      tracer_->Span(name_, cat_, start_us_, end_us);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    std::string cat_;
    double* seconds_;
    double start_us_;
  };

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Json> events_;  // guarded by mu_
};

}  // namespace brisk::e2e

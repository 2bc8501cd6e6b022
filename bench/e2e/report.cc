#include "report.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace brisk::e2e {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

const Json* Json::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Set(const std::string& key, Json value) {
  type = Type::kObject;
  for (auto& [k, v] : members) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members.emplace_back(key, std::move(value));
  return members.back().second;
}

namespace {

void DumpString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.type) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.boolean ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      if (!std::isfinite(j.number)) {
        *out += "null";
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", j.number);
      *out += buf;
      break;
    }
    case Json::Type::kString:
      DumpString(j.str, out);
      break;
    case Json::Type::kArray:
      out->push_back('[');
      for (size_t i = 0; i < j.items.size(); ++i) {
        if (i) out->push_back(',');
        DumpTo(j.items[i], out);
      }
      out->push_back(']');
      break;
    case Json::Type::kObject:
      out->push_back('{');
      for (size_t i = 0; i < j.members.size(); ++i) {
        if (i) out->push_back(',');
        DumpString(j.members[i].first, out);
        out->push_back(':');
        DumpTo(j.members[i].second, out);
      }
      out->push_back('}');
      break;
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  StatusOr<Json> Document() {
    BRISK_ASSIGN_OR_RETURN(Json v, Value(0));
    SkipSpace();
    if (pos_ != s_.size()) return Error("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  StatusOr<Json> Value(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Error("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return ObjectValue(depth);
    if (c == '[') return ArrayValue(depth);
    if (c == '"') {
      BRISK_ASSIGN_OR_RETURN(std::string str, String());
      return Json(std::move(str));
    }
    if (Consume("true")) return Json(true);
    if (Consume("false")) return Json(false);
    if (Consume("null")) return Json();
    return Number();
  }

  StatusOr<Json> ObjectValue(int depth) {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected key");
      BRISK_ASSIGN_OR_RETURN(std::string key, String());
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Error("expected ':'");
      ++pos_;
      BRISK_ASSIGN_OR_RETURN(Json v, Value(depth + 1));
      obj.members.emplace_back(std::move(key), std::move(v));
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return obj;
      }
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<Json> ArrayValue(int depth) {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      BRISK_ASSIGN_OR_RETURN(Json v, Value(depth + 1));
      arr.items.push_back(std::move(v));
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> String() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          // The benchmark's files are ASCII; keep BMP escapes as UTF-8.
          if (pos_ + 4 > s_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          out.push_back(e);  // \" \\ \/
      }
    }
    return Error("unterminated string");
  }

  StatusOr<Json> Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("unexpected character");
    const std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Error("bad number");
    return Json(v);
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).Document();
}

StatusOr<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = Json::Parse(ss.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().ToString());
  }
  return parsed;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot write " + path);
  out << text;
  out.close();
  if (!out) return Status::Unavailable("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Quartiles
// ---------------------------------------------------------------------------

double Quartiles::SpreadShare() const {
  return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  q.median = MedianOf(values);
  const long ld = static_cast<long>(values.size());
  if (ld < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  // statistics.quantiles(method="exclusive"), n = 4.
  const long n = 4;
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                  values[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  q.q1 = cut[0];
  q.q3 = cut[2];
  return q;
}

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r' ||
                           line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// What `git rev-parse HEAD` prints, read straight from .git so no
/// process is spawned and nothing outside the checkout is consulted.
std::string GitHead() {
  const std::string head = ReadFirstLine(".git/HEAD");
  if (head.empty()) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head;  // detached
  const std::string ref = head.substr(5);
  const std::string loose = ReadFirstLine(".git/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(".git/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

}  // namespace

Json HostFingerprint() {
  Json f = Json::Object();
  f.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  f.Set("cpu_model", CpuModel());
#ifdef BRISK_E2E_COMPILER
  f.Set("compiler", BRISK_E2E_COMPILER);
#endif
#ifdef BRISK_E2E_BUILD_TYPE
  f.Set("build_type", BRISK_E2E_BUILD_TYPE);
#endif
  struct utsname u {};
  if (uname(&u) == 0) {
    f.Set("kernel", std::string(u.sysname) + " " + u.release);
  }
  f.Set("git_head", GitHead());
  return f;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Span(const std::string& name, const std::string& cat,
                  double start_us, double end_us) {
  if (!enabled_) return;
  Json e = Json::Object();
  e.Set("name", name);
  e.Set("cat", cat);
  e.Set("ph", "X");
  e.Set("ts", start_us);
  e.Set("dur", end_us - start_us);
  e.Set("pid", 1);
  e.Set("tid", 1);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void Tracer::Counter(
    const std::string& name, double ts_us,
    const std::vector<std::pair<std::string, double>>& series) {
  if (!enabled_) return;
  Json e = Json::Object();
  e.Set("name", name);
  e.Set("ph", "C");
  e.Set("ts", ts_us);
  e.Set("pid", 1);
  Json args = Json::Object();
  for (const auto& [k, v] : series) args.Set(k, v);
  e.Set("args", std::move(args));
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

Status Tracer::Write(const std::string& path) const {
  Json doc = Json::Object();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Json events = Json::Array();
    events.items = events_;
    doc.Set("traceEvents", std::move(events));
  }
  doc.Set("displayTimeUnit", "ms");
  return WriteTextFile(path, doc.Dump());
}

}  // namespace brisk::e2e

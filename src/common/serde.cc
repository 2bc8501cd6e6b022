#include "common/serde.h"

#include <cstring>

namespace brisk {

namespace {

template <typename T>
void PutRaw(const T& v, std::vector<uint8_t>* out) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool GetRaw(const std::vector<uint8_t>& buf, size_t* offset, T* v) {
  if (*offset + sizeof(T) > buf.size()) return false;
  std::memcpy(v, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

enum FieldTag : uint8_t { kInt = 0, kDouble = 1, kString = 2 };

/// Smallest encoding of one field: a tag plus an empty string's length.
constexpr size_t kMinFieldBytes = sizeof(uint8_t) + sizeof(uint32_t);

}  // namespace

void SerializeTuple(const Tuple& t, std::vector<uint8_t>* out) {
  PutRaw(t.origin_ts_ns, out);
  PutRaw(t.stream_id, out);
  PutRaw(static_cast<uint32_t>(t.fields.size()), out);
  for (const auto& f : t.fields) {
    const auto tag = static_cast<uint8_t>(f.index());
    PutRaw(tag, out);
    switch (f.index()) {
      case 0:
        PutRaw(f.AsInt(), out);
        break;
      case 1:
        PutRaw(f.AsDouble(), out);
        break;
      case 2: {
        const std::string_view s = f.AsString();
        PutRaw(static_cast<uint32_t>(s.size()), out);
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

StatusOr<Tuple> DeserializeTuple(const std::vector<uint8_t>& buf,
                                 size_t* offset) {
  Tuple t;
  uint32_t nfields = 0;
  if (!GetRaw(buf, offset, &t.origin_ts_ns) ||
      !GetRaw(buf, offset, &t.stream_id) ||
      !GetRaw(buf, offset, &nfields)) {
    return Status::OutOfRange("truncated tuple header");
  }
  if (nfields > (buf.size() - *offset) / kMinFieldBytes) {
    return Status::OutOfRange("field count exceeds the buffer");
  }
  t.fields.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    uint8_t tag = 0;
    if (!GetRaw(buf, offset, &tag)) {
      return Status::OutOfRange("truncated field tag");
    }
    switch (tag) {
      case kInt: {
        int64_t v;
        if (!GetRaw(buf, offset, &v)) {
          return Status::OutOfRange("truncated int field");
        }
        t.fields.emplace_back(v);
        break;
      }
      case kDouble: {
        double v;
        if (!GetRaw(buf, offset, &v)) {
          return Status::OutOfRange("truncated double field");
        }
        t.fields.emplace_back(v);
        break;
      }
      case kString: {
        uint32_t len;
        if (!GetRaw(buf, offset, &len)) {
          return Status::OutOfRange("truncated string length");
        }
        if (*offset + len > buf.size()) {
          return Status::OutOfRange("truncated string payload");
        }
        t.fields.emplace_back(std::string_view(
            reinterpret_cast<const char*>(buf.data() + *offset), len));
        *offset += len;
        break;
      }
      default:
        return Status::InvalidArgument("unknown field tag " +
                                       std::to_string(tag));
    }
  }
  return t;
}

}  // namespace brisk

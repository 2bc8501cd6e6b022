#include "engine/checkpoint.h"

#include <cstring>

#include "common/serde.h"
#include "common/tuple.h"

namespace brisk::engine {

namespace {

constexpr uint32_t kMagic = 0x32504342;  // "BCP2" — positions carry a kind

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

bool GetU32(const std::vector<uint8_t>& buf, size_t* off, uint32_t* v) {
  if (*off + 4 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= uint32_t(buf[*off + i]) << (8 * i);
  *off += 4;
  return true;
}

bool GetU64(const std::vector<uint8_t>& buf, size_t* off, uint64_t* v) {
  if (*off + 8 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= uint64_t(buf[*off + i]) << (8 * i);
  *off += 8;
  return true;
}

/// Fails a count the bytes left in `buf` cannot hold at `min_bytes`
/// per element, before anything is reserved for it.
Status CheckCount(const std::vector<uint8_t>& buf, size_t off, uint32_t count,
                  size_t min_bytes) {
  if (count <= (buf.size() - off) / min_bytes) return Status::OK();
  return Status::InvalidArgument("checkpoint count exceeds the buffer");
}

/// Keys ride the tuple codec as single-field tuples, so every Field
/// alternative (int/double/string) round-trips without a second codec.
void PutField(const Field& f, std::vector<uint8_t>* out) {
  Tuple t;
  t.fields.push_back(f);
  SerializeTuple(t, out);
}

StatusOr<Field> GetField(const std::vector<uint8_t>& buf, size_t* off) {
  auto t = DeserializeTuple(buf, off);
  if (!t.ok()) return t.status();
  if (t.value().fields.size() != 1) {
    return Status::Internal("checkpoint key tuple is not single-field");
  }
  return t.value().fields[0];
}

}  // namespace

void SerializeCheckpoint(const JobCheckpoint& cp, std::vector<uint8_t>* out) {
  out->clear();
  PutU32(kMagic, out);
  PutU32(static_cast<uint32_t>(cp.epoch), out);
  PutU32(static_cast<uint32_t>(cp.state.size()), out);
  for (const auto& s : cp.state) {
    PutU32(static_cast<uint32_t>(s.op), out);
    PutU32(static_cast<uint32_t>(s.replica), out);
    PutU32(static_cast<uint32_t>(s.entries.size()), out);
    for (const auto& e : s.entries) {
      PutField(e.key, out);
      SerializeTuple(e.state, out);
    }
  }
  PutU32(static_cast<uint32_t>(cp.positions.size()), out);
  for (const auto& p : cp.positions) {
    PutU32(static_cast<uint32_t>(p.op), out);
    PutU32(static_cast<uint32_t>(p.replica), out);
    PutU32(static_cast<uint32_t>(p.position.kind), out);
    PutU64(p.position.offset, out);
    PutU32(p.replayable ? 1 : 0, out);
  }
}

StatusOr<JobCheckpoint> DeserializeCheckpoint(
    const std::vector<uint8_t>& buf, const model::ExecutionPlan& plan) {
  size_t off = 0;
  uint32_t magic = 0, epoch = 0, n_state = 0;
  if (!GetU32(buf, &off, &magic) || magic != kMagic) {
    return Status::InvalidArgument("not a checkpoint buffer (bad magic)");
  }
  if (!GetU32(buf, &off, &epoch) || !GetU32(buf, &off, &n_state)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  BRISK_RETURN_NOT_OK(CheckCount(buf, off, n_state, 12));  // 3 x u32
  JobCheckpoint cp;
  cp.epoch = static_cast<int>(epoch);
  cp.plan = plan;
  cp.state.reserve(n_state);
  for (uint32_t i = 0; i < n_state; ++i) {
    uint32_t op = 0, replica = 0, n_entries = 0;
    if (!GetU32(buf, &off, &op) || !GetU32(buf, &off, &replica) ||
        !GetU32(buf, &off, &n_entries)) {
      return Status::InvalidArgument("truncated checkpoint state header");
    }
    BRISK_RETURN_NOT_OK(  // each entry is a key and a state tuple
        CheckCount(buf, off, n_entries, 2 * kMinTupleBytes));
    ReplicaStateSnapshot s;
    s.op = static_cast<int>(op);
    s.replica = static_cast<int>(replica);
    s.entries.reserve(n_entries);
    for (uint32_t j = 0; j < n_entries; ++j) {
      auto key = GetField(buf, &off);
      if (!key.ok()) return key.status();
      auto state = DeserializeTuple(buf, &off);
      if (!state.ok()) return state.status();
      s.entries.push_back(
          {std::move(key).value(), std::move(state).value()});
    }
    cp.state.push_back(std::move(s));
  }
  uint32_t n_pos = 0;
  if (!GetU32(buf, &off, &n_pos)) {
    return Status::InvalidArgument("truncated checkpoint positions");
  }
  // op, replica, kind, offset (u64), replayable.
  BRISK_RETURN_NOT_OK(CheckCount(buf, off, n_pos, 24));
  cp.positions.reserve(n_pos);
  for (uint32_t i = 0; i < n_pos; ++i) {
    uint32_t op = 0, replica = 0, kind = 0, replayable = 0;
    uint64_t offset = 0;
    if (!GetU32(buf, &off, &op) || !GetU32(buf, &off, &replica) ||
        !GetU32(buf, &off, &kind) || !GetU64(buf, &off, &offset) ||
        !GetU32(buf, &off, &replayable)) {
      return Status::InvalidArgument("truncated checkpoint position entry");
    }
    if (kind > static_cast<uint32_t>(
                   api::SourcePosition::Kind::kByteOffset)) {
      return Status::InvalidArgument("unknown checkpoint position kind");
    }
    cp.positions.push_back(
        {static_cast<int>(op), static_cast<int>(replica),
         {static_cast<api::SourcePosition::Kind>(kind), offset},
         replayable != 0});
  }
  if (off != buf.size()) {
    return Status::InvalidArgument("trailing bytes after checkpoint payload");
  }
  return cp;
}

}  // namespace brisk::engine

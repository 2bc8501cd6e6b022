// Tuple (de)serialization.
//
// BriskStream itself never serializes (pass-by-reference, §5.1); this
// codec exists to reproduce the *overhead* that distributed DSPSs
// (Storm/Flink) pay on every tuple. The legacy execution modes run each
// tuple through Serialize+Deserialize to charge that cost for real.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"

namespace brisk {

/// Smallest encoding of one tuple: the header (origin timestamp,
/// stream id, field count) with zero fields.
inline constexpr size_t kMinTupleBytes =
    sizeof(int64_t) + sizeof(uint16_t) + sizeof(uint32_t);

/// Appends a length-prefixed binary encoding of `t` to `out`.
void SerializeTuple(const Tuple& t, std::vector<uint8_t>* out);

/// Decodes one tuple starting at `*offset`; advances `*offset` past it.
StatusOr<Tuple> DeserializeTuple(const std::vector<uint8_t>& buf,
                                 size_t* offset);

/// Serializes a whole batch (per-tuple headers duplicated, as a
/// distributed DSPS would on the wire).
void SerializeBatch(const std::vector<Tuple>& tuples,
                    std::vector<uint8_t>* out);

/// Decodes `count` tuples from `buf`.
StatusOr<std::vector<Tuple>> DeserializeBatch(const std::vector<uint8_t>& buf,
                                              size_t count);

}  // namespace brisk

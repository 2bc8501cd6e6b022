// Tuple (de)serialization.
//
// BriskStream's data plane never serializes (pass-by-reference, §5.1);
// this codec is for what crosses a process boundary: the io layer's
// wire and file formats and the checkpoint encoding.
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

}  // namespace brisk

#pragma once

#include "common/json.h"
#include "net/pack.h"

/// \file json_codec.h
/// Binary encoding for common::Json documents crossing the transport.
/// The unit document (store ingest, submissions) is written in this
/// format straight from its typed record by pilot/unit_record.h, which
/// shares the tags below. Numbers travel as their IEEE-754 bit
/// pattern, so a document survives the wire bit-exactly — unlike a
/// dump()/parse() text round trip, whose %.10g formatting would perturb
/// computed durations and with them the simulation's event timing.
///
/// Layout: tag u8 (0 null, 1 false, 2 true, 3 number, 4 string,
/// 5 array, 6 object), then the payload; arrays and objects carry a u32
/// count. Object keys are written in map order (sorted), so equal
/// documents have equal encodings.

namespace hoh::net {

/// The first byte of every encoded value.
enum class JsonTag : std::uint8_t {
  kNull = 0,
  kFalse = 1,
  kTrue = 2,
  kNumber = 3,
  kString = 4,
  kArray = 5,
  kObject = 6,
};

inline void pack_tag(Packer& p, JsonTag tag) {
  p.u8(static_cast<std::uint8_t>(tag));
}

void pack_json(Packer& p, const common::Json& doc);

/// Throws CodecError on truncation, an unknown tag, or nesting deeper
/// than 64 levels (a corrupt count field must not recurse unboundedly).
common::Json unpack_json(Unpacker& u);

}  // namespace hoh::net

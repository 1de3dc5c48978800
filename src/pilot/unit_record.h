#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "pilot/descriptions.h"
#include "pilot/states.h"

/// \file unit_record.h
/// One Compute-Unit as the StateStore keeps it, and the one codec of the
/// unit document — the paper's MongoDB document the Unit-Manager and the
/// agents hand units over through (U.2/U.3):
///
///   {"description": {...}, "pilot": "<pilot id>", "state": "<state>"}
///
/// The document's fields are listed once (unit_record.cpp); the binary
/// codec walks that list. The binary form is byte for byte what
/// net::pack_json writes for the Json document: keys in std::map order,
/// numbers as f64, empty lists left out. So the StoreIngest and
/// SubmitRequest wire images are those of the Json document, while no
/// Json value is built on the way, and the Json forms below are those
/// bytes read by the generic Json codec.

namespace hoh::pilot {

/// A unit document, typed.
struct UnitRecord {
  UnitState state = UnitState::kNew;
  std::string pilot;
  ComputeUnitDescription description;
};

/// The binary unit document (StoreIngest payload).
std::vector<std::uint8_t> pack_unit_document(const UnitRecord& unit);

/// Decodes exactly one binary unit document. Throws net::CodecError on
/// truncation, trailing bytes, a wrong tag or value type, a missing or
/// unexpected key, or an unknown state name.
UnitRecord unpack_unit_document(const std::vector<std::uint8_t>& bytes);

/// The binary description alone (SubmitRequest payload); same rules.
std::vector<std::uint8_t> pack_unit_description(
    const ComputeUnitDescription& desc);
ComputeUnitDescription unpack_unit_description(
    const std::vector<std::uint8_t>& bytes);

/// Json forms, for introspection (StateStore::get/find_all on "unit")
/// and the text round trip; not on any hot path. unit_from_json
/// applies the unpacker's rules (throws net::CodecError).
common::Json unit_to_json(const ComputeUnitDescription& desc);
ComputeUnitDescription unit_from_json(const common::Json& doc);
common::Json unit_document_json(const UnitRecord& unit);

}  // namespace hoh::pilot

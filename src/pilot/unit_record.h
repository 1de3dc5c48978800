#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "pilot/descriptions.h"
#include "pilot/states.h"

/// \file unit_record.h
/// One Compute-Unit as the StateStore keeps it, and the unit document —
/// the paper's MongoDB document the Unit-Manager and the agents hand
/// units over through (U.2/U.3). The document is the record's fields()
/// list packed by net::Packer like any message (DESIGN.md §13): the
/// state as one byte, the pilot id, then the description's fields in
/// declaration order. Numbers keep their bits, so a duration crosses
/// the wire bit-exactly.

namespace hoh::pilot {

/// A unit document, typed.
struct UnitRecord {
  UnitState state = UnitState::kNew;
  std::string pilot;
  ComputeUnitDescription description;

  static auto fields(auto& m) {
    return std::tie(m.state, m.pilot, m.description);
  }
};

/// The binary unit document (StoreIngest payload).
std::vector<std::uint8_t> pack_unit_document(const UnitRecord& unit);

/// Decodes exactly one binary unit document. Throws net::CodecError on
/// truncation, trailing bytes, a bool byte other than 0 or 1, an int
/// out of range, a byte no state has, or a malformed URL.
UnitRecord unpack_unit_document(const std::vector<std::uint8_t>& bytes);

/// The binary description alone (SubmitRequest payload); same rules.
std::vector<std::uint8_t> pack_unit_description(
    const ComputeUnitDescription& desc);
ComputeUnitDescription unpack_unit_description(
    const std::vector<std::uint8_t>& bytes);

}  // namespace hoh::pilot

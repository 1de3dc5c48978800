#pragma once

#include <cstdint>
#include <memory>
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
///
/// A description does not change after submit, so it is held read-only
/// and shared: one copy per side of the wire, decoded once.

namespace hoh::pilot {

/// A unit's dense session-wide index: the store appends a unit at its
/// first put (pilot/state_store.h). Inside the process the index is the
/// unit's key; its string id stays at the edges (the wire, traces, the
/// schedule digest).
using UnitIndex = std::uint32_t;

/// A shared, immutable description.
using SharedDescription = std::shared_ptr<const ComputeUnitDescription>;

/// The description of a record nobody gave one (a default description,
/// allocated once).
const SharedDescription& default_description();

/// A unit document, typed.
struct UnitRecord {
  UnitState state = UnitState::kNew;
  std::string pilot;
  SharedDescription description = default_description();

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

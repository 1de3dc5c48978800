#include "pilot/unit_record.h"

#include "net/pack.h"

namespace hoh::pilot {

namespace {

template <typename T>
T unpack(const std::vector<std::uint8_t>& bytes) {
  net::Unpacker u(bytes);
  T value;
  net::unpack_fields(u, value);
  return value;
}

}  // namespace

const SharedDescription& default_description() {
  static const SharedDescription description =
      std::make_shared<const ComputeUnitDescription>();
  return description;
}

std::vector<std::uint8_t> pack_unit_document(const UnitRecord& unit) {
  return net::pack_exact(unit);
}

UnitRecord unpack_unit_document(const std::vector<std::uint8_t>& bytes) {
  return unpack<UnitRecord>(bytes);
}

std::vector<std::uint8_t> pack_unit_description(
    const ComputeUnitDescription& desc) {
  return net::pack_exact(desc);
}

ComputeUnitDescription unpack_unit_description(
    const std::vector<std::uint8_t>& bytes) {
  return unpack<ComputeUnitDescription>(bytes);
}

}  // namespace hoh::pilot

#include "pilot/unit_record.h"

#include "net/pack.h"

namespace hoh::pilot {

namespace {

template <typename T>
std::vector<std::uint8_t> pack(const T& value) {
  net::Packer p;
  net::pack_fields(p, value);
  return p.take();
}

template <typename T>
T unpack(const std::vector<std::uint8_t>& bytes) {
  net::Unpacker u(bytes);
  T value;
  net::unpack_fields(u, value);
  return value;
}

}  // namespace

std::vector<std::uint8_t> pack_unit_document(const UnitRecord& unit) {
  return pack(unit);
}

UnitRecord unpack_unit_document(const std::vector<std::uint8_t>& bytes) {
  return unpack<UnitRecord>(bytes);
}

std::vector<std::uint8_t> pack_unit_description(
    const ComputeUnitDescription& desc) {
  return pack(desc);
}

ComputeUnitDescription unpack_unit_description(
    const std::vector<std::uint8_t>& bytes) {
  return unpack<ComputeUnitDescription>(bytes);
}

}  // namespace hoh::pilot

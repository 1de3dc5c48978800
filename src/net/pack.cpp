#include "net/pack.h"

namespace hoh::net {

void ByteVector::write(const std::uint8_t* data, std::size_t n) {
  bytes.insert(bytes.end(), data, data + n);
}

}  // namespace hoh::net

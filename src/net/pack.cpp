#include "net/pack.h"

namespace hoh::net {

void Packer::append(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

}  // namespace hoh::net

// Negative fixture: src/net/ (the codec / transport layer) is the
// wire-encoding rule's one exemption, so the raw-memory copy below must
// NOT be flagged.
#include <cstring>

namespace fixture_net {

inline void pack(unsigned char* out, const unsigned char* in, unsigned n) {
  std::memcpy(out, in, n);  // wire-exempt path: clean
}

}  // namespace fixture_net

// Negative fixture: src/common/random.* is the seeded RNG facade and the
// determinism rules' one exemption (DET_FILE_ALLOWLIST), so the entropy
// source below must NOT be flagged.
#include <random>

namespace fixture_random {

inline unsigned entropy() {
  std::random_device rd;  // allowlisted file: clean
  return rd();
}

}  // namespace fixture_random

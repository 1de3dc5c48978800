// Negative fixture: this path mirrors a THREAD_ALLOWLIST entry, so the
// pool may own raw std::thread workers.
#include <thread>
#include <vector>

namespace fixture_pool {

struct WorkerPool {
  std::vector<std::thread> workers_;  // allowlisted file: clean
};

}  // namespace fixture_pool

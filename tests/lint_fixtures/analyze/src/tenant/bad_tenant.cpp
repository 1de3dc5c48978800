// tenant-threading fixture: the tenant subsystem is deterministic
// engine-driven code, so atomics and futures are banned outright. The
// mutexes below guard nothing: guard-missing fires on the class member
// and on the namespace-scope one alike (annotation coverage is one rule
// for every file, not a tenant special case).
#include <atomic>

namespace fixture {

struct Gateway {
  std::atomic<int> counter_{0};                     // EXPECT: tenant-threading
  common::Mutex mu_;                                // EXPECT: guard-missing
  int queued_ = 0;
};

common::Mutex g_registry_mu;                        // EXPECT: guard-missing
std::future<int> g_pending;                         // EXPECT: tenant-threading

}  // namespace fixture

// Clean fixture for lock-order call resolution: a member function named
// like a std:: or global function lends its acquisitions to neither.
// Wire::exchange really nests Store::mu_ inside Wire::mu_; were the
// std::exchange and ::shutdown calls below read as calls into Wire, each
// would close a false Store::mu_ <-> Wire::mu_ cycle.
#include <utility>

namespace fixture_qualified {

struct Store;

struct Wire {
  common::Mutex mu_;
  int seq_ HOH_GUARDED_BY(mu_) = 0;
  int exchange(Store& store);
  void shutdown();
};

struct Store {
  common::Mutex mu_;
  int value_ HOH_GUARDED_BY(mu_) = 0;
  int read();
  int take();
  void close(int fd);
};

int Wire::exchange(Store& store) {
  common::MutexLock lock(mu_);
  ++seq_;
  return store.read();
}

void Wire::shutdown() {
  common::MutexLock lock(mu_);
  seq_ = 0;
}

int Store::read() {
  common::MutexLock lock(mu_);
  return value_;
}

int Store::take() {
  common::MutexLock lock(mu_);
  return std::exchange(value_, 0);
}

void Store::close(int fd) {
  common::MutexLock lock(mu_);
  ::shutdown(fd, 2);
  value_ = 0;
}

}  // namespace fixture_qualified

// Clean fixture for lock-order call resolution: `obj.f()` enters only a
// class that declares f, and only obj's class when its type is known.
// Journal::flush really nests Ledger::mu_ inside Journal::mu_; were the
// stream's flush() below read as Journal::flush, it would close a false
// Ledger::mu_ <-> Journal::mu_ cycle.
#include <sstream>

namespace fixture_member_call {

struct Ledger;

struct Journal {
  common::Mutex mu_;
  int lines_ HOH_GUARDED_BY(mu_) = 0;
  void flush(Ledger& ledger);
};

struct Ledger {
  common::Mutex mu_;
  int posts_ HOH_GUARDED_BY(mu_) = 0;
  void record();
  void post();
};

void Journal::flush(Ledger& ledger) {
  common::MutexLock lock(mu_);
  ++lines_;
  ledger.record();
}

void Ledger::record() {
  common::MutexLock lock(mu_);
  ++posts_;
}

void Ledger::post() {
  common::MutexLock lock(mu_);
  std::ostringstream out;
  out << posts_;
  out.flush();
}

}  // namespace fixture_member_call

// Known-bad fixture for the hoh_analyze conc-* rules. Not compiled —
// consumed by tools/analyze/test_rules.py, which asserts each rule fires
// exactly on the lines annotated `EXPECT: <rule>`.
#include <mutex>
#include <thread>

namespace fixture {

void bad() {
  std::mutex m;                                     // EXPECT: conc-naked-primitive
  std::lock_guard<std::mutex> lock(m);              // EXPECT: conc-naked-primitive
  std::condition_variable cv;                       // EXPECT: conc-naked-primitive
  std::thread t([] {});                             // EXPECT: conc-raw-thread
  t.detach();                                       // EXPECT: conc-detach
}

struct Pool {
  template <typename F>
  void submit(F f);
  void go();
  void kick() {
    submit([this] { go(); });                       // EXPECT: conc-this-capture
  }
  void kick_split() {
    enqueue([n = 1,                                 // EXPECT: conc-this-capture
             this] { go(); });
  }
  template <typename F>
  void enqueue(F f);
};

void bad_ptr(std::thread* t) { t->detach(); }      // EXPECT: conc-raw-thread, conc-detach

inline unsigned cores() {
  return std::thread::hardware_concurrency();  // exempt query: clean
}

inline int hits() {
  std::atomic<int> n{0};  // atomics are banned only under src/tenant/: clean
  return n.load();
}

}  // namespace fixture

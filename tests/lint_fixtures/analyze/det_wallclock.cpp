// Known-bad fixture for hoh_analyze rule det-wallclock. Not compiled —
// consumed by tools/analyze/test_rules.py, which asserts each rule
// fires exactly on the lines annotated `EXPECT: <rule>`.
#include <chrono>
#include <ctime>

namespace fixture_wall {

double bad_wallclock() {
  auto a = std::chrono::system_clock::now();        // EXPECT: det-wallclock
  auto b = std::chrono::steady_clock::now();        // EXPECT: det-wallclock
  auto c = std::chrono::high_resolution_clock::now();  // EXPECT: det-wallclock
  struct timespec ts;
  clock_gettime(0, &ts);                            // EXPECT: det-wallclock
  std::clock();                                     // EXPECT: det-wallclock
  (void)a;
  (void)b;
  (void)c;
  return 0.0;
}

double fine_sim_time(double now) {
  return now;  // sim::Engine::now() flows in as a parameter: clean
}

}  // namespace fixture_wall

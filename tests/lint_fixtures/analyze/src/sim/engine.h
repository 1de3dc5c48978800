// conc-periodic-budget fixture: this path has a PERIODIC_BUDGET of 1, so
// the first schedule_periodic site is within budget, the second is over.
namespace fixture {

struct Engine;

inline void wire(Engine& e) {
  e.schedule_periodic(1.0, [] {});  // within budget: clean
  e.schedule_periodic(2.0, [] {});                  // EXPECT: conc-periodic-budget
}

}  // namespace fixture

// conc-periodic-budget fixture: no PERIODIC_BUDGET entry for this path,
// so a single schedule_periodic call site is already a violation.
namespace fixture {

struct Engine2;

inline void wire_zero(Engine2& e) {
  e.schedule_periodic(1.0, [] {});                  // EXPECT: conc-periodic-budget
}

}  // namespace fixture

// Known-bad fixture for hoh_analyze rule state-write: lifecycle enum
// stores outside the designated gates. A declaration with an initializer
// and the gate functions themselves stay clean.
namespace fixture_state {

enum class UnitState { kNew, kDone };
enum class PilotState { kNew, kRunning };

struct UnitRec {
  UnitState state = UnitState::kNew;
};

struct Rogue {
  void flip(UnitRec& unit) {
    unit.state = UnitState::kDone;                  // EXPECT: state-write
  }
  void forward(UnitRec& unit, UnitState next) {
    unit.state = next;                              // EXPECT: state-write
  }
  void pilot_write(PilotState next) {
    state_ = next;                                  // EXPECT: state-write
  }
  void local_decl_ok() {
    UnitState state = UnitState::kNew;  // declaration, not a store: clean
    (void)state;
  }
  PilotState state_ = PilotState::kNew;
};

struct Agent {
  // Byte-identical body to Rogue::flip, but this is a designated gate
  // (Agent::set_unit_state routes through StateStore::set_unit_state).
  void set_unit_state(UnitRec& unit, UnitState state) {
    unit.state = state;  // gate function: clean
  }
};

}  // namespace fixture_state

#include "pilot/states.h"

#include <iterator>
#include <string_view>

#include "common/error.h"
#include "pilot/descriptions.h"
#include "pilot/transitions.h"

namespace hoh::pilot {

namespace {

// Indexed by enumerator; the order matches the enum declarations.
constexpr std::string_view kPilotStateNames[] = {
    "New", "PendingLaunch", "Launching", "Active", "Done", "Canceled",
    "Failed"};
constexpr std::string_view kUnitStateNames[] = {
    "New",          "UmgrScheduling", "PendingAgent",  "AgentScheduling",
    "StagingInput", "Executing",      "StagingOutput", "Done",
    "Canceled",     "Failed"};
constexpr std::string_view kBackendNames[] = {"plain", "yarn-mode1",
                                              "yarn-mode2", "spark-mode1"};
static_assert(std::size(kPilotStateNames) == kPilotStateCount);
static_assert(std::size(kUnitStateNames) == kUnitStateCount);

template <typename State, std::size_t N>
State from_name(const std::string_view (&names)[N], const std::string& name,
                const char* kind) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<State>(i);
  }
  throw common::StateError(std::string("unknown ") + kind +
                           " state: " + name);
}

}  // namespace

std::string to_string(PilotState state) {
  return std::string(kPilotStateNames[static_cast<std::size_t>(state)]);
}

std::string to_string(UnitState state) {
  return std::string(kUnitStateNames[static_cast<std::size_t>(state)]);
}

std::string to_string(AgentBackend backend) {
  return std::string(kBackendNames[static_cast<std::size_t>(backend)]);
}

PilotState pilot_state_from_string(const std::string& name) {
  return from_name<PilotState>(kPilotStateNames, name, "pilot");
}

UnitState unit_state_from_string(const std::string& name) {
  return from_name<UnitState>(kUnitStateNames, name, "unit");
}

}  // namespace hoh::pilot

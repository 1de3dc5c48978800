#pragma once

#include <cstdint>
#include <string>

/// \file states.h
/// Lifecycle state models for Pilots and Compute-Units, following the
/// RADICAL-Pilot state diagrams (paper SS-III-B / Fig. 3).

namespace hoh::pilot {

/// Pilot lifecycle. kActive means the agent is up and pulling units.
enum class PilotState {
  kNew,
  kPendingLaunch,  // placeholder job queued at the batch system
  kLaunching,      // batch job running, agent bootstrapping (P.1-P.2)
  kActive,         // agent ready, processing Compute-Units
  kDone,
  kCanceled,
  kFailed,
};

std::string to_string(PilotState state);

/// Inverse of to_string; throws common::StateError on unknown names.
PilotState pilot_state_from_string(const std::string& name);

constexpr bool is_final(PilotState s) {
  return s == PilotState::kDone || s == PilotState::kCanceled ||
         s == PilotState::kFailed;
}

/// Compute-Unit lifecycle (U.1-U.7 in the paper's Fig. 3).
enum class UnitState {
  kNew,
  kUmgrScheduling,    // U.1: assigned to a pilot by the Unit-Manager
  kPendingAgent,      // U.2: queued in the shared state store
  kAgentScheduling,   // U.4: in the agent scheduler's queue
  kStagingInput,      // stage-in worker moving input files
  kExecuting,         // U.6: payload running (possibly inside YARN/Spark)
  kStagingOutput,     // stage-out worker moving results
  kDone,
  kCanceled,
  kFailed,
};

std::string to_string(UnitState state);

/// Inverse of to_string; throws common::StateError on unknown names.
UnitState unit_state_from_string(const std::string& name);

/// A unit state's wire form (net/pack.h): its enumerator, one byte.
constexpr std::uint8_t to_wire(UnitState state) {
  return static_cast<std::uint8_t>(state);
}

/// Inverse of to_wire; throws common::StateError on a byte no state has.
void from_wire(std::uint8_t wire, UnitState& state);

constexpr bool is_final(UnitState s) {
  return s == UnitState::kDone || s == UnitState::kCanceled ||
         s == UnitState::kFailed;
}

}  // namespace hoh::pilot

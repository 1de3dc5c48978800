#pragma once

#include <cstddef>
#include <string>

#include "common/error.h"
#include "pilot/states.h"

/// \file transitions.h
/// Compile-time lifecycle-transition tables for PilotState and UnitState,
/// mirroring the paper's Fig. 3 (pilot steps P.1-P.2, unit steps U.1-U.7)
/// plus the elasticity edges PR 1 added (a drain-timeout preempt requeues
/// an Executing unit back to AgentScheduling). The tables are constexpr
/// adjacency matrices with static_assert-checked structural properties:
/// final states are sinks and every state is reachable from kNew. The
/// validate_transition() gate is wired into StateStore::set_unit_state (every
/// unit state write the agents and the Unit-Manager make) and
/// Pilot::set_state, so an illegal jump — e.g. kDone -> kExecuting after
/// a drain-timeout requeue races a completion — throws StateError loudly
/// instead of corrupting the lifecycle silently.

namespace hoh::pilot {

inline constexpr std::size_t kPilotStateCount = 7;
inline constexpr std::size_t kUnitStateCount = 10;

constexpr std::size_t state_index(PilotState s) {
  return static_cast<std::size_t>(s);
}
constexpr std::size_t state_index(UnitState s) {
  return static_cast<std::size_t>(s);
}

// clang-format off

/// Pilot lifecycle edges (row = from, column = to). Column order matches
/// the enum: New, PendingLaunch, Launching, Active, Done, Canceled, Failed.
inline constexpr bool kPilotTransitions[kPilotStateCount][kPilotStateCount] = {
    //                 New    PendL  Launch Active Done   Cancel Failed
    /* New          */ {false, true,  false, false, false, true,  true },
    /* PendingLaunch*/ {false, false, true,  false, true,  true,  true },
    /* Launching    */ {false, false, false, true,  true,  true,  true },
    /* Active       */ {false, false, false, false, true,  true,  true },
    /* Done         */ {false, false, false, false, false, false, false},
    /* Canceled     */ {false, false, false, false, false, false, false},
    /* Failed       */ {false, false, false, false, false, false, false},
};

/// Compute-Unit lifecycle edges (U.1-U.7). Column order matches the enum:
/// New, UmgrScheduling, PendingAgent, AgentScheduling, StagingInput,
/// Executing, StagingOutput, Done, Canceled, Failed.
///
/// The AgentScheduling back-edges from StagingInput/Executing are the
/// drain-timeout preempt: the agent withdraws the unit from a leaving
/// node and requeues it, so escalation costs wasted work, never units.
///
/// The single Failed -> PendingAgent edge is the fault-recovery requeue:
/// the Unit-Manager re-dispatches a unit that died with its pilot onto a
/// surviving pilot (within its retry budget). Failed is deliberately the
/// only final state with an out-edge — Done and Canceled stay sinks, so
/// finished or user-canceled work can never be re-executed.
inline constexpr bool kUnitTransitions[kUnitStateCount][kUnitStateCount] = {
    //                 New    Umgr   PendA  AgentS StageI Exec   StageO Done   Cancel Failed
    /* New          */ {false, true,  true,  false, false, false, false, false, true,  true },
    /* UmgrSchedul. */ {false, false, true,  false, false, false, false, false, true,  true },
    /* PendingAgent */ {false, false, false, true,  false, false, false, false, true,  true },
    /* AgentSchedul.*/ {false, false, false, false, true,  true,  false, false, true,  true },
    /* StagingInput */ {false, false, false, true,  false, true,  false, false, true,  true },
    /* Executing    */ {false, false, false, true,  false, false, true,  true,  true,  true },
    /* StagingOutput*/ {false, false, false, false, false, false, false, true,  true,  true },
    /* Done         */ {false, false, false, false, false, false, false, false, false, false},
    /* Canceled     */ {false, false, false, false, false, false, false, false, false, false},
    /* Failed       */ {false, false, true,  false, false, false, false, false, false, false},
};

// clang-format on

/// True when \p from -> \p to is a legal edge. Self-transitions on
/// non-final states are legal no-ops (a requeued unit that never left
/// AgentScheduling re-announces its state); final states are sinks.
constexpr bool transition_allowed(PilotState from, PilotState to) {
  if (from == to) return !is_final(from);
  return kPilotTransitions[state_index(from)][state_index(to)];
}

constexpr bool transition_allowed(UnitState from, UnitState to) {
  if (from == to) return !is_final(from);
  return kUnitTransitions[state_index(from)][state_index(to)];
}

namespace detail {

/// Constexpr reachability closure from state 0 (kNew) over an N x N
/// adjacency matrix: true iff every state is reachable.
template <std::size_t N>
constexpr bool all_reachable_from_new(const bool (&adj)[N][N]) {
  bool reached[N] = {};
  reached[0] = true;
  // N rounds of relaxation reach any node a path exists to.
  for (std::size_t round = 0; round < N; ++round) {
    for (std::size_t u = 0; u < N; ++u) {
      if (!reached[u]) continue;
      for (std::size_t v = 0; v < N; ++v) {
        if (adj[u][v]) reached[v] = true;
      }
    }
  }
  for (std::size_t v = 0; v < N; ++v) {
    if (!reached[v]) return false;
  }
  return true;
}

template <std::size_t N>
constexpr bool row_is_sink(const bool (&adj)[N][N], std::size_t row) {
  for (std::size_t v = 0; v < N; ++v) {
    if (adj[row][v]) return false;
  }
  return true;
}

/// Number of out-edges from \p row.
template <std::size_t N>
constexpr std::size_t row_degree(const bool (&adj)[N][N], std::size_t row) {
  std::size_t n = 0;
  for (std::size_t v = 0; v < N; ++v) {
    if (adj[row][v]) ++n;
  }
  return n;
}

/// Every non-final state can reach at least one final state directly or
/// transitively (no livelock corner in the table itself).
template <std::size_t N>
constexpr bool can_reach(const bool (&adj)[N][N], std::size_t from,
                         std::size_t to) {
  bool reached[N] = {};
  reached[from] = true;
  for (std::size_t round = 0; round < N; ++round) {
    for (std::size_t u = 0; u < N; ++u) {
      if (!reached[u]) continue;
      for (std::size_t v = 0; v < N; ++v) {
        if (adj[u][v]) reached[v] = true;
      }
    }
  }
  return reached[to];
}

}  // namespace detail

// --- structural properties, checked at compile time -----------------------

static_assert(detail::all_reachable_from_new(kPilotTransitions),
              "every PilotState must be reachable from kNew");
static_assert(detail::all_reachable_from_new(kUnitTransitions),
              "every UnitState must be reachable from kNew");

static_assert(detail::row_is_sink(kPilotTransitions,
                                  state_index(PilotState::kDone)) &&
                  detail::row_is_sink(kPilotTransitions,
                                      state_index(PilotState::kCanceled)) &&
                  detail::row_is_sink(kPilotTransitions,
                                      state_index(PilotState::kFailed)),
              "final PilotStates must be sinks");
static_assert(detail::row_is_sink(kUnitTransitions,
                                  state_index(UnitState::kDone)) &&
                  detail::row_is_sink(kUnitTransitions,
                                      state_index(UnitState::kCanceled)),
              "Done/Canceled UnitStates must be sinks");
static_assert(detail::row_degree(kUnitTransitions,
                                 state_index(UnitState::kFailed)) == 1 &&
                  transition_allowed(UnitState::kFailed,
                                     UnitState::kPendingAgent),
              "kFailed's only out-edge must be the recovery requeue "
              "(Failed -> PendingAgent)");
static_assert(!transition_allowed(UnitState::kDone,
                                  UnitState::kPendingAgent) &&
                  !transition_allowed(UnitState::kCanceled,
                                      UnitState::kPendingAgent),
              "only failed units may be requeued — never finished or "
              "user-canceled ones");

static_assert(detail::can_reach(kUnitTransitions,
                                state_index(UnitState::kNew),
                                state_index(UnitState::kDone)),
              "the happy path New -> ... -> Done must exist");
static_assert(detail::can_reach(kPilotTransitions,
                                state_index(PilotState::kNew),
                                state_index(PilotState::kDone)),
              "the happy path New -> ... -> Done must exist");
static_assert(transition_allowed(UnitState::kExecuting,
                                 UnitState::kAgentScheduling),
              "drain-timeout preempt (Executing -> AgentScheduling) must be "
              "a legal requeue edge");
static_assert(!transition_allowed(UnitState::kDone, UnitState::kExecuting),
              "a finished unit must never re-execute (the requeue race the "
              "gate exists to catch)");

// --- runtime gate ---------------------------------------------------------

/// Throws common::StateError when \p from -> \p to is illegal. \p what
/// names the entity for the error message ("unit.0003", "pilot.0001").
inline void validate_transition(PilotState from, PilotState to,
                                const std::string& what) {
  if (transition_allowed(from, to)) return;
  throw common::StateError("illegal pilot state transition " + what + ": " +
                           to_string(from) + " -> " + to_string(to));
}

inline void validate_transition(UnitState from, UnitState to,
                                const std::string& what) {
  if (transition_allowed(from, to)) return;
  throw common::StateError("illegal unit state transition " + what + ": " +
                           to_string(from) + " -> " + to_string(to));
}

}  // namespace hoh::pilot

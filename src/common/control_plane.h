#pragma once

/// \file control_plane.h
/// The middleware runs one control plane, the event-driven watch plane
/// (DESIGN.md §10): store watches, lease timers and demand-driven
/// scheduler passes. The enum has a single value; the inert fields that
/// carry it (AgentConfig::control_plane, YarnConfig::control_plane,
/// UnitManager::set_control_plane) remain only so the outside-in
/// benchmark in perfbench/ keeps compiling unchanged.

namespace hoh::common {

enum class ControlPlane { kWatch };

}  // namespace hoh::common

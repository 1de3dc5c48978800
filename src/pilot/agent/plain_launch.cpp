#include <algorithm>
#include <map>

#include "pilot/agent/agent.h"

/// \file plain_launch.cpp
/// The plain Launch Method: a continuous first-fit scheduler over the
/// allocation's node ledgers, gang allocation for MPI units that no
/// single node can host, and the fork/mpiexec spawn. Its LRM only parses
/// the batch environment.

namespace hoh::pilot {

class PlainLaunch final : public LaunchMethod {
 public:
  using LaunchMethod::LaunchMethod;

  void bootstrap(std::function<void()> on_done) override { on_done(); }

  bool admit(UnitRec& unit) override;
  void launch(const std::shared_ptr<UnitRec>& unit) override;
  void release(UnitRec& unit) override;

  void grow(const std::shared_ptr<cluster::Node>& /*node*/) override {
    topology_changed();
  }
  void remove(const std::vector<std::string>& /*names*/) override {
    topology_changed();
  }
  bool on_draining_node(const UnitRec& unit) const override {
    return unit.state == UnitState::kExecuting && unit.exec_event.valid() &&
           std::any_of(unit.pieces.begin(), unit.pieces.end(),
                       [this](const auto& piece) {
                         return agent_.node_draining(piece.first->name());
                       });
  }

 private:
  bool try_gang_allocate(UnitRec& unit);
  /// A release on \p node may re-open capacity below the cursor, which
  /// moves back to the node's index.
  void note_node_release(const cluster::Node* node);
  void topology_changed() {
    cursor_ = 0;
    node_pos_stale_ = true;
  }

  /// First-fit cursor: every non-draining node below it has zero free
  /// cores, so a dispatch scan starts at the cursor — the 10k-node
  /// dispatch burst is O(units), not O(units * nodes). Releases move it
  /// back; topology changes reset it.
  std::size_t cursor_ = 0;
  std::map<const cluster::Node*, std::size_t> node_pos_;
  bool node_pos_stale_ = true;
};

bool PlainLaunch::admit(UnitRec& unit) {
  // Continuous scheduler: first node with enough free cores+memory. The
  // cursor first advances past exhausted nodes.
  const cluster::ResourceRequest req{unit.desc->cores, unit.desc->memory_mb};
  const auto& nodes = agent_.allocation_.nodes();
  if (cursor_ > nodes.size()) cursor_ = 0;
  while (cursor_ < nodes.size() && nodes[cursor_]->free_cores() == 0 &&
         !agent_.node_draining(nodes[cursor_]->name())) {
    ++cursor_;
  }
  const std::size_t start = unit.desc->cores > 0 ? cursor_ : 0;
  for (std::size_t i = start; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    if (agent_.node_draining(node->name())) continue;
    if (node->allocate(req)) {
      unit.pieces.emplace_back(node.get(), req);
      agent_.record_placed(unit, node->name());
      return true;
    }
  }
  // MPI units gang-schedule across nodes when no single node can host
  // them (mpiexec spans the allocation).
  if (!unit.desc->is_mpi || !try_gang_allocate(unit)) return false;
  std::string names;
  for (const auto& [node, piece] : unit.pieces) {
    if (!names.empty()) names += ",";
    names += node->name();
  }
  agent_.record_placed(unit, names);
  return true;
}

bool PlainLaunch::try_gang_allocate(UnitRec& unit) {
  // Greedy: walk nodes taking as many cores as each offers, memory split
  // proportionally to the cores taken. All-or-nothing. A gang always
  // spans two or more nodes: one node able to take every core would
  // have taken the whole unit in the first-fit scan.
  int remaining = unit.desc->cores;
  std::vector<std::pair<cluster::Node*, cluster::ResourceRequest>> taken;
  for (const auto& node : agent_.allocation_.nodes()) {
    if (remaining <= 0) break;
    if (agent_.node_draining(node->name())) continue;
    const int cores = std::min(remaining, node->free_cores());
    if (cores <= 0) continue;
    const common::MemoryMb memory =
        unit.desc->memory_mb * cores / unit.desc->cores;
    const cluster::ResourceRequest piece{cores, memory};
    if (!node->allocate(piece)) continue;
    taken.emplace_back(node.get(), piece);
    remaining -= cores;
  }
  if (remaining > 0) {
    for (const auto& [node, piece] : taken) node->release(piece);
    return false;
  }
  unit.pieces = std::move(taken);
  return true;
}

void PlainLaunch::launch(const std::shared_ptr<UnitRec>& unit) {
  agent_.stage_in(unit, [this, unit] {
    const AgentConfig& config = agent_.config_;
    const common::Seconds launch_latency =
        unit->desc->is_mpi ? config.mpiexec_latency : config.spawn_latency;
    // After the spawn, each unit loads its runtime environment in
    // parallel.
    const common::Seconds delay =
        agent_.spawn_delay(launch_latency) + config.env_load_seconds;
    sim::Engine& engine = agent_.saga_.engine();
    engine.schedule(delay, [this, unit, &engine] {
      if (agent_.stopped_) return;
      agent_.set_unit_state(*unit, UnitState::kExecuting);
      // A degraded node (FailureInjector slow-node episode) stretches the
      // payload wall time by its current speed factor.
      common::Seconds duration = unit->desc->duration;
      if (unit->pieces.size() == 1) {
        duration *= unit->pieces.front().first->speed_factor();
      }
      unit->exec_event = engine.schedule(duration, [this, unit] {
        if (agent_.stopped_) return;
        unit->exec_event = sim::EventHandle{};
        agent_.payload_done(unit);
      });
    });
  });
}

void PlainLaunch::release(UnitRec& unit) {
  for (const auto& [node, piece] : unit.pieces) {
    node->release(piece);
    note_node_release(node);
  }
  unit.pieces.clear();
}

void PlainLaunch::note_node_release(const cluster::Node* node) {
  if (cursor_ == 0) return;
  if (node_pos_stale_) {
    node_pos_.clear();
    const auto& nodes = agent_.allocation_.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      node_pos_[nodes[i].get()] = i;
    }
    node_pos_stale_ = false;
  }
  const auto it = node_pos_.find(node);
  cursor_ = it == node_pos_.end() ? 0 : std::min(cursor_, it->second);
}

std::unique_ptr<LaunchMethod> make_plain_launch(Agent& agent) {
  return std::make_unique<PlainLaunch>(agent);
}

}  // namespace hoh::pilot

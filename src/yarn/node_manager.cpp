#include "yarn/node_manager.h"

#include "common/error.h"

namespace hoh::yarn {

std::string to_string(ContainerState state) {
  switch (state) {
    case ContainerState::kAllocated:
      return "ALLOCATED";
    case ContainerState::kLaunching:
      return "LAUNCHING";
    case ContainerState::kRunning:
      return "RUNNING";
    case ContainerState::kCompleted:
      return "COMPLETE";
    case ContainerState::kKilled:
      return "KILLED";
    case ContainerState::kPreempted:
      return "PREEMPTED";
  }
  return "?";
}

std::string to_string(AppState state) {
  switch (state) {
    case AppState::kSubmitted:
      return "SUBMITTED";
    case AppState::kAccepted:
      return "ACCEPTED";
    case AppState::kAmLaunching:
      return "AM_LAUNCHING";
    case AppState::kRunning:
      return "RUNNING";
    case AppState::kFinished:
      return "FINISHED";
    case AppState::kFailed:
      return "FAILED";
    case AppState::kKilled:
      return "KILLED";
  }
  return "?";
}

Resource YarnConfig::normalize(const Resource& ask) const {
  auto round_up = [](std::int64_t v, std::int64_t step) {
    return ((v + step - 1) / step) * step;
  };
  Resource out;
  out.memory_mb = std::max(minimum_allocation.memory_mb,
                           round_up(ask.memory_mb,
                                    minimum_allocation.memory_mb));
  out.vcores = std::max(minimum_allocation.vcores, ask.vcores);
  out.memory_mb = std::min(out.memory_mb, maximum_allocation.memory_mb);
  out.vcores = std::min(out.vcores, maximum_allocation.vcores);
  return out;
}

NodeManager::NodeManager(sim::Engine& engine, const YarnConfig& config,
                         std::shared_ptr<cluster::Node> node)
    : engine_(engine), config_(config), node_(std::move(node)) {
  capacity_.vcores =
      config_.nm_vcores > 0 ? config_.nm_vcores : node_->spec().cores;
  capacity_.memory_mb = config_.nm_memory_mb > 0
                            ? config_.nm_memory_mb
                            : node_->spec().memory_mb * 7 / 8;
}

Resource NodeManager::available() const {
  return Resource{capacity_.memory_mb - in_use_.memory_mb,
                  capacity_.vcores - in_use_.vcores};
}

Resource NodeManager::allocated() const { return in_use_; }

bool NodeManager::can_fit(const Resource& resource) const {
  if (!alive_ || crashed_ || decommissioning_) return false;
  const int cores = config_.memory_only_scheduling ? 0 : resource.vcores;
  const Resource avail = available();
  if (resource.memory_mb > avail.memory_mb) return false;
  if (!config_.memory_only_scheduling && resource.vcores > avail.vcores) {
    return false;
  }
  return node_->fits(cluster::ResourceRequest{cores, resource.memory_mb});
}

bool NodeManager::allocate(const Container& container) {
  if (!can_fit(container.resource)) return false;
  if (containers_.count(container.id) > 0) {
    throw common::StateError("NM: duplicate container id " + container.id);
  }
  const int ledger_cores =
      config_.memory_only_scheduling ? 0 : container.resource.vcores;
  if (!node_->allocate(cluster::ResourceRequest{
          ledger_cores, container.resource.memory_mb})) {
    return false;  // node ledger shared with non-YARN users said no
  }
  count_in_view(-1);
  in_use_.memory_mb += container.resource.memory_mb;
  in_use_.vcores += container.resource.vcores;
  count_in_view(+1);
  Container c = container;
  c.node = node_->name();
  c.state = ContainerState::kAllocated;
  containers_.emplace(c.id, std::move(c));
  return true;
}

Container& NodeManager::find(const std::string& container_id) {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) {
    throw common::NotFoundError("NM " + node_->name() +
                                ": unknown container " + container_id);
  }
  return it->second;
}

void NodeManager::launch(const std::string& container_id,
                         std::function<void()> on_running) {
  Container& c = find(container_id);
  if (c.state != ContainerState::kAllocated) {
    throw common::StateError("NM: container " + container_id +
                             " not in ALLOCATED state");
  }
  c.state = ContainerState::kLaunching;
  const common::Seconds latency =
      c.is_am ? config_.am_launch_time : config_.container_launch_time;
  engine_.schedule(latency, [this, container_id,
                             cb = std::move(on_running)] {
    auto it = containers_.find(container_id);
    if (it == containers_.end() ||
        it->second.state != ContainerState::kLaunching) {
      return;  // killed while launching
    }
    it->second.state = ContainerState::kRunning;
    if (cb) cb();
  });
}

void NodeManager::release(const std::string& container_id,
                          ContainerState final_state) {
  Container& c = find(container_id);
  if (c.state == ContainerState::kCompleted ||
      c.state == ContainerState::kKilled ||
      c.state == ContainerState::kPreempted) {
    return;  // already released
  }
  c.state = final_state;
  count_in_view(-1);
  in_use_.memory_mb -= c.resource.memory_mb;
  in_use_.vcores -= c.resource.vcores;
  count_in_view(+1);
  const int ledger_cores =
      config_.memory_only_scheduling ? 0 : c.resource.vcores;
  node_->release(
      cluster::ResourceRequest{ledger_cores, c.resource.memory_mb});
}

bool NodeManager::has_container(const std::string& container_id) const {
  return containers_.count(container_id) > 0;
}

const Container& NodeManager::container(
    const std::string& container_id) const {
  auto it = containers_.find(container_id);
  if (it == containers_.end()) {
    throw common::NotFoundError("NM " + node_->name() +
                                ": unknown container " + container_id);
  }
  return it->second;
}

std::vector<std::string> NodeManager::live_container_ids() const {
  std::vector<std::string> out;
  for (const auto& [id, c] : containers_) {
    if (c.state == ContainerState::kAllocated ||
        c.state == ContainerState::kLaunching ||
        c.state == ContainerState::kRunning) {
      out.push_back(id);
    }
  }
  return out;
}

void NodeManager::fail() {
  if (!alive_) return;
  count_in_view(-1);
  alive_ = false;
  count_in_view(+1);
  for (const auto& id : live_container_ids()) {
    release(id, ContainerState::kKilled);
  }
}

void NodeManager::crash() {
  if (crashed_ || !alive_) return;
  count_in_view(-1);
  crashed_ = true;
  count_in_view(+1);
  crash_time_ = engine_.now();
  lost_on_crash_ = live_container_ids();
  for (const auto& id : lost_on_crash_) {
    release(id, ContainerState::kKilled);
  }
}

void NodeManager::recover() {
  count_in_view(-1);
  alive_ = true;
  decommissioning_ = false;
  crashed_ = false;
  count_in_view(+1);
  lost_on_crash_.clear();
}

void NodeManager::start_decommission() {
  count_in_view(-1);
  decommissioning_ = true;
  count_in_view(+1);
}

void NodeManager::attach_view(ClusterView* view) {
  count_in_view(-1);
  view_ = view;
  if (view_ != nullptr) view_order_ = view_->attached++;
  count_in_view(+1);
}

void NodeManager::count_in_view(int sign) {
  if (view_ == nullptr) return;
  if (alive_ && !decommissioning_) {
    view_->capacity.memory_mb += sign * capacity_.memory_mb;
    view_->capacity.vcores += sign * capacity_.vcores;
  }
  view_->allocated.memory_mb += sign * in_use_.memory_mb;
  view_->allocated.vcores += sign * in_use_.vcores;
  if (alive_ && !crashed_ && !decommissioning_) {
    const std::pair key{-available().memory_mb, view_order_};
    if (sign > 0) {
      view_->by_free_memory.emplace(key, this);
    } else {
      view_->by_free_memory.erase(key);
    }
  }
}

std::size_t NodeManager::live_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : containers_) {
    if (c.state == ContainerState::kAllocated ||
        c.state == ContainerState::kLaunching ||
        c.state == ContainerState::kRunning) {
      ++n;
    }
  }
  return n;
}

}  // namespace hoh::yarn

#include "yarn/resource_manager.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "net/message.h"
#include "yarn/application_master.h"

namespace hoh::yarn {

namespace {

/// Session-unique endpoint prefix per RM instance, so several RMs (a
/// dedicated Hadoop environment plus Mode-I pilot clusters) can share
/// one transport. Engine-thread only; the names never enter digests.
std::string next_rm_prefix() {
  static std::uint64_t counter = 0;
  return "rm" + std::to_string(counter++);
}

/// Runs the callback in \p slot from a local, so the call may finish
/// \p app (which clears the slot) without destroying the closure it runs
/// in. Afterwards the callback goes back into \p slot unless \p app
/// finished meanwhile or the call installed another one. The record is
/// held meanwhile, so no eviction the call sets off takes it.
template <typename Fn, typename... Args>
void run_kept(AppRecord& app, Fn& slot, Args&... args) {
  Fn fn = std::exchange(slot, nullptr);
  ++app.holds;
  if (fn) fn(args...);
  --app.holds;
  if (!is_final(app.report.state) && !slot) slot = std::move(fn);
}

}  // namespace

ResourceManager::ResourceManager(sim::Engine& engine,
                                 const cluster::Allocation& allocation,
                                 YarnConfig config,
                                 std::vector<QueueConfig> queues)
    : engine_(engine), config_(config), queues_(std::move(queues)) {
  if (allocation.empty()) {
    throw common::ConfigError("ResourceManager: empty allocation");
  }
  if (queues_.empty()) {
    throw common::ConfigError("ResourceManager: needs at least one queue");
  }
  double total_capacity = 0.0;
  for (const auto& q : queues_) {
    total_capacity += q.capacity;
    pending_.emplace(q.name, std::deque<PendingAsk>{});
  }
  if (total_capacity > 1.0 + 1e-9) {
    throw common::ConfigError(
        "ResourceManager: queue capacities exceed 100%");
  }
  if (config_.transport != nullptr) {
    transport_ = config_.transport;
  } else {
    owned_transport_ = std::make_unique<net::InProcessTransport>();
    transport_ = owned_transport_.get();
  }
  register_endpoints();
  for (const auto& node : allocation.nodes()) {
    node_managers_.push_back(
        std::make_unique<NodeManager>(engine_, config_, node));
    node_managers_.back()->attach_view(&view_);
    nm_index_[node_managers_.back()->node_name()] =
        node_managers_.back().get();
  }
  // Demand-driven plane: passes are requested by the events that create
  // demand or capacity; NM liveness is a per-NM lease instead of a scan.
  for (const auto& nm : node_managers_) {
    arm_liveness_lease(nm->node_name());
  }
}

ResourceManager::~ResourceManager() {
  shutdown();
  transport_->unregister_endpoint(nm_endpoint_);
  transport_->unregister_endpoint(rm_endpoint_);
}

void ResourceManager::register_endpoints() {
  const std::string prefix = next_rm_prefix();
  nm_endpoint_ = prefix + ".nm";
  rm_endpoint_ = prefix + ".rm";
  transport_->register_endpoint(
      nm_endpoint_,
      [this](const net::Envelope& env) { return handle_nm_message(env); });
  transport_->register_endpoint(
      rm_endpoint_, [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::ContainerRunning>(env);
        auto it = pending_running_.find(msg.correlation);
        if (it != pending_running_.end()) {
          auto cb = std::move(it->second);
          pending_running_.erase(it);
          if (cb) cb();
        }
        return net::make_envelope(net::Ack{});
      });
}

net::Envelope ResourceManager::handle_nm_message(const net::Envelope& env) {
  switch (env.type) {
    case net::MsgType::kAllocateRequest: {
      const auto msg = net::open_envelope<net::AllocateRequest>(env);
      NodeManager* nm = find_nm(msg.node);
      Container c;
      c.id = msg.container_id;
      c.app_id = msg.app_id;
      c.resource = Resource{msg.memory_mb, static_cast<int>(msg.vcores)};
      c.is_am = msg.is_am;
      const bool ok = nm != nullptr && nm->allocate(c);
      return net::make_envelope(
          net::AllocateReply{ok, ok ? nm->node_name() : std::string{}});
    }
    case net::MsgType::kLaunchRequest: {
      const auto msg = net::open_envelope<net::LaunchRequest>(env);
      const std::string cid = msg.container_id;
      const std::uint64_t correlation = msg.correlation;
      node_manager(msg.node).launch(cid, [this, cid, correlation] {
        // Completion crosses back as a correlated one-way message; the
        // NM already filtered killed-while-launching containers.
        if (shut_down_) return;
        net::send(*transport_, rm_endpoint_,
                  net::ContainerRunning{cid, correlation});
      });
      return net::make_envelope(net::Ack{});
    }
    case net::MsgType::kReleaseRequest: {
      // The final state travels for the record; the NM erases the
      // container whatever it is.
      const auto msg = net::open_envelope<net::ReleaseRequest>(env);
      node_manager(msg.node).release(msg.container_id);
      return net::make_envelope(net::Ack{});
    }
    case net::MsgType::kNodeProbe: {
      const auto msg = net::open_envelope<net::NodeProbe>(env);
      NodeManager& nm = node_manager(msg.node);
      return net::make_envelope(
          net::NodeStatus{msg.node, nm.last_heartbeat(), nm.alive()});
    }
    default:
      throw common::StateError(std::string("RM: unexpected message on NM "
                                           "plane: ") +
                               net::to_string(env.type));
  }
}

bool ResourceManager::transport_allocate(NodeManager& nm,
                                         const Container& container) {
  return net::call<net::AllocateReply>(
             *transport_, nm_endpoint_,
             net::AllocateRequest{container.id, container.app_id,
                                  nm.node_name(), container.resource.memory_mb,
                                  container.resource.vcores, container.is_am})
      .ok;
}

void ResourceManager::transport_launch(const std::string& node,
                                       const std::string& container_id,
                                       std::function<void()> on_running) {
  const std::uint64_t correlation = next_correlation_++;
  pending_running_.emplace(correlation, std::move(on_running));
  net::call<net::Ack>(*transport_, nm_endpoint_,
                      net::LaunchRequest{node, container_id, correlation});
}

void ResourceManager::transport_release(NodeManager& nm,
                                        const std::string& container_id,
                                        ContainerState final_state) {
  container_host_.erase(container_id);
  net::call<net::Ack>(
      *transport_, nm_endpoint_,
      net::ReleaseRequest{nm.node_name(), container_id,
                          static_cast<std::uint8_t>(final_state)});
}

common::Seconds ResourceManager::transport_last_heartbeat(
    const std::string& node) {
  return net::call<net::NodeStatus>(*transport_, nm_endpoint_,
                                    net::NodeProbe{node})
      .last_heartbeat;
}

void ResourceManager::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  engine_.cancel(pass_event_);
  pass_pending_ = false;
  liveness_leases_.clear();
  // Kill everything still running, by id: a kill's on_finished may
  // finish others, and their records may leave the window meanwhile.
  std::vector<std::string> live;
  for (const auto& [id, app] : apps_) {
    if (!is_final(app.report.state)) live.push_back(id);
  }
  for (const std::string& id : live) {
    const auto it = apps_.find(id);
    if (it != apps_.end()) finish_application(it->second, AppState::kKilled);
  }
}

void ResourceManager::request_scheduler_pass() {
  // Dedup: one pending pass covers all queued demand.
  if (shut_down_ || pass_pending_) return;
  pass_pending_ = true;
  pass_event_ = engine_.schedule(config_.scheduler_interval, [this] {
    pass_pending_ = false;
    pass_event_ = sim::EventHandle{};
    if (shut_down_) return;
    scheduler_pass();
    // Anything still unplaced waits for the next capacity event (a
    // release, node join/recovery) — those all call back in here.
  });
}

NodeManager* ResourceManager::find_nm(const std::string& node) {
  auto it = nm_index_.find(node);
  return it == nm_index_.end() ? nullptr : it->second;
}

void ResourceManager::arm_liveness_lease(const std::string& node) {
  if (config_.nm_liveness_timeout <= 0.0) return;
  auto& lease = liveness_leases_[node];
  if (lease == nullptr) {
    lease = std::make_unique<sim::DeadlineTimer>(
        engine_, [this, node] { check_liveness_lease(node); });
  }
  lease->arm(config_.nm_liveness_timeout);
}

void ResourceManager::check_liveness_lease(const std::string& node) {
  if (shut_down_) return;
  NodeManager* nm = find_nm(node);
  if (nm == nullptr || !nm->alive()) return;  // re-armed on recovery
  // The liveness check is a real probe: NodeProbe/NodeStatus over the
  // transport.
  const common::Seconds expire_at =
      transport_last_heartbeat(node) + config_.nm_liveness_timeout;
  if (engine_.now() < expire_at) {
    // Heartbeat arrived since the lease was armed; push the deadline out.
    liveness_leases_.at(node)->arm_at(expire_at);
    return;
  }
  fail_node(node);  // detection at exactly crash + timeout
}

std::string ResourceManager::submit_application(AppDescriptor descriptor) {
  if (shut_down_) {
    throw common::StateError("ResourceManager is shut down");
  }
  const auto queue = pending_.find(descriptor.queue);
  if (queue == pending_.end()) {
    throw common::ConfigError("unknown queue: " + descriptor.queue);
  }
  const std::string app_id = common::strformat(
      "application_%llu_%04llu",
      static_cast<unsigned long long>(cluster_timestamp_),
      static_cast<unsigned long long>(next_app_number_++));

  AppRecord& app = apps_.try_emplace(app_id, *this).first->second;
  app.report.id = app_id;
  app.report.name = std::move(descriptor.name);
  app.report.queue = std::move(descriptor.queue);
  app.report.state = AppState::kSubmitted;
  app.report.submit_time = engine_.now();
  app.am_resource = descriptor.am_resource;
  app.on_am_start = std::move(descriptor.on_am_start);
  app.on_finished = std::move(descriptor.on_finished);
  app.asks = &queue->second;
  push_ask(app, ContainerRequest{app.am_resource, {}, true}, true);
  request_scheduler_pass();  // demand created
  return app_id;
}

AppRecord& ResourceManager::find_app(
    const std::string& app_id) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    throw common::NotFoundError("RM: unknown application " + app_id);
  }
  return it->second;
}

const AppRecord& ResourceManager::find_app(
    const std::string& app_id) const {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) {
    throw common::NotFoundError("RM: unknown application " + app_id);
  }
  return it->second;
}

AppReport ResourceManager::application(const std::string& app_id) const {
  return find_app(app_id).report;
}

std::vector<AppReport> ResourceManager::applications() const {
  std::vector<AppReport> out;
  out.reserve(apps_.size());
  for (const auto& [id, app] : apps_) out.push_back(app.report);
  return out;
}

ApplicationMaster& ResourceManager::application_master(
    const std::string& app_id) {
  return find_app(app_id).am;
}

NodeManager& ResourceManager::node_manager(const std::string& node) {
  NodeManager* nm = find_nm(node);
  if (nm == nullptr) {
    throw common::NotFoundError("RM: unknown NodeManager " + node);
  }
  return *nm;
}

std::size_t ResourceManager::live_node_count() const {
  std::size_t n = 0;
  for (const auto& nm : node_managers_) {
    if (nm->alive()) ++n;
  }
  return n;
}

void ResourceManager::fail_node(const std::string& node) {
  NodeManager& nm = node_manager(node);
  if (!nm.alive()) return;
  // A silently crashed NM already lost its containers at the crash
  // instant; propagate those. A direct fail_node kills them now.
  std::vector<Container> lost =
      nm.crashed() ? nm.lost_on_crash() : nm.containers();
  nm.fail();  // releases the containers as KILLED
  for (Container& c : lost) {
    c.state = ContainerState::kKilled;
    container_host_.erase(c.id);
  }
  trace_event("nm_lost",
              {{"node", node},
               {"lost_containers", std::to_string(lost.size())}});

  for (const Container& c : lost) {
    auto it = apps_.find(c.app_id);
    if (it == apps_.end() || is_final(it->second.report.state)) continue;
    AppRecord& app = it->second;
    if (c.id == app.am_container_id) {
      // AM lost: new attempt or app failure.
      if (app.attempt >= config_.am_max_attempts) {
        trace_event("app_failed",
                    {{"app", c.app_id},
                     {"reason", "am_max_attempts"},
                     {"attempt", std::to_string(app.attempt)}});
        finish_application(app, AppState::kFailed);
        continue;
      }
      app.attempt += 1;
      trace_event("am_restart", {{"app", c.app_id},
                                 {"node", node},
                                 {"attempt", std::to_string(app.attempt)}});
      app.am_container_id.clear();
      // Task containers of this app die with the attempt.
      for (const auto& tid : app.container_ids) {
        if (NodeManager* host = nm_hosting(tid)) {
          transport_release(*host, tid, ContainerState::kKilled);
        }
      }
      app.container_ids.clear();
      app.report.state = AppState::kSubmitted;
      push_ask(app, ContainerRequest{app.am_resource, {}, true}, true);
    } else {
      // Task container lost: tell the AM.
      trace_event("task_container_lost",
                  {{"app", c.app_id}, {"container", c.id}, {"node", node}});
      std::erase(app.container_ids, c.id);
      run_kept(app, app.am.preempted_callback_, c);
    }
  }
  request_scheduler_pass();  // AM re-asks queued, capacity changed
}

std::optional<ContainerState> ResourceManager::container_state(
    const std::string& container_id) const {
  const auto it = container_host_.find(container_id);
  if (it == container_host_.end()) return std::nullopt;
  // A container lost with a silently crashed NM is gone from the NM
  // before the RM propagates the loss.
  const Container* c = it->second->find(container_id);
  if (c == nullptr) return std::nullopt;
  return c->state;
}

void ResourceManager::trace_event(const std::string& name,
                                  sim::TraceAttrs attrs) {
  if (!trace_) return;
  trace_->record(engine_.now(), "yarn", name, std::move(attrs));
}

void ResourceManager::recover_node(const std::string& node) {
  NodeManager& nm = node_manager(node);
  nm.recover();
  arm_liveness_lease(node);
  request_scheduler_pass();  // capacity returned
}

void ResourceManager::add_node(std::shared_ptr<cluster::Node> node) {
  if (shut_down_) {
    throw common::StateError("ResourceManager is shut down");
  }
  if (nm_index_.count(node->name()) > 0) {
    throw common::StateError("RM: NodeManager already registered on " +
                             node->name());
  }
  const std::string name = node->name();
  node_managers_.push_back(
      std::make_unique<NodeManager>(engine_, config_, std::move(node)));
  node_managers_.back()->attach_view(&view_);
  nm_index_[name] = node_managers_.back().get();
  arm_liveness_lease(name);
  request_scheduler_pass();  // capacity grew
}

void ResourceManager::decommission_node(const std::string& node) {
  node_manager(node).start_decommission();
}

void ResourceManager::remove_node(const std::string& node) {
  auto it = std::find_if(
      node_managers_.begin(), node_managers_.end(),
      [&](const std::unique_ptr<NodeManager>& nm) {
        return nm->node_name() == node;
      });
  if (it == node_managers_.end()) {
    throw common::NotFoundError("RM: unknown NodeManager " + node);
  }
  if ((*it)->alive() && (*it)->live_count() > 0) {
    throw common::StateError("RM: NodeManager " + node +
                             " still hosts live containers");
  }
  liveness_leases_.erase(node);
  NodeManager* removed = it->get();
  std::erase_if(container_host_, [removed](const auto& entry) {
    return entry.second == removed;
  });
  nm_index_.erase(node);
  removed->attach_view(nullptr);
  node_managers_.erase(it);
}

common::Json ResourceManager::apps_json() const {
  common::JsonArray rows;
  for (const auto& report : applications()) {
    common::Json row;
    row["id"] = report.id;
    row["name"] = report.name;
    row["queue"] = report.queue;
    row["state"] = to_string(report.state);
    row["amNode"] = report.am_node;
    row["submitTime"] = report.submit_time;
    row["startTime"] = report.start_time;
    row["finishTime"] = report.finish_time;
    rows.push_back(std::move(row));
  }
  common::Json out;
  out["apps"]["app"] = std::move(rows);
  return out;
}

NodeManager* ResourceManager::nm_hosting(const std::string& container_id) {
  auto it = container_host_.find(container_id);
  return it == container_host_.end() ? nullptr : it->second;
}

NodeManager* ResourceManager::try_place(const PendingAsk& ask,
                                        Container& out) {
  out.id = common::strformat(
      "container_%llu_%06llu",
      static_cast<unsigned long long>(cluster_timestamp_),
      static_cast<unsigned long long>(next_container_number_));
  out.app_id = ask.app->report.id;
  out.resource = ask.request.resource;
  out.is_am = ask.is_am;

  // Preferred nodes first (data locality), then any if relaxed.
  for (const auto& name : ask.request.preferred_nodes) {
    NodeManager* nm = find_nm(name);
    if (nm != nullptr && transport_allocate(*nm, out)) {
      out.node = nm->node_name();
      container_host_.emplace(out.id, nm);
      ++next_container_number_;
      return nm;
    }
  }
  if (!ask.request.preferred_nodes.empty() && !ask.request.relax_locality) {
    return nullptr;
  }
  // Least-loaded placement by free memory: the NM with the most free
  // memory that can host the ask, first registered wins on ties. The
  // view lists schedulable NMs in exactly that order, so the first fit
  // is the pick; once free memory drops below the ask nothing later
  // fits either.
  NodeManager* best = nullptr;
  for (const auto& [key, nm] : view_.by_free_memory) {
    if (-key.first < out.resource.memory_mb) break;
    if (nm->can_fit(out.resource)) {
      best = nm;
      break;
    }
  }
  if (best != nullptr && transport_allocate(*best, out)) {
    out.node = best->node_name();
    container_host_.emplace(out.id, best);
    ++next_container_number_;
    return best;
  }
  return nullptr;
}

common::MemoryMb ResourceManager::queue_used_mb(
    const std::string& queue) const {
  // Walk live containers (AM and task alike) and credit their app's
  // queue — O(live containers) instead of the old apps x NMs x
  // containers triple scan, and the same sum: a live container's app is
  // never final, and a non-final app lists exactly its live containers.
  common::MemoryMb used = 0;
  for (const auto& nm : node_managers_) {
    for (const Container& c : nm->containers()) {
      auto it = apps_.find(c.app_id);
      if (it == apps_.end() || is_final(it->second.report.state)) continue;
      if (it->second.report.queue == queue) used += c.resource.memory_mb;
    }
  }
  return used;
}

double ResourceManager::queue_usage_ratio(const std::string& queue) const {
  double capacity_fraction = 0.0;
  for (const auto& q : queues_) {
    if (q.name == queue) capacity_fraction = q.capacity;
  }
  const common::MemoryMb total = total_capacity().memory_mb;
  if (capacity_fraction <= 0.0 || total <= 0) return 1e18;
  const double share =
      static_cast<double>(total) * capacity_fraction;
  return static_cast<double>(queue_used_mb(queue)) / share;
}

void ResourceManager::scheduler_pass() {
  if (shut_down_) return;
  if (config_.preemption_enabled) preemption_pass();

  // Capacity: queues in increasing usage ratio (most-starved first).
  // FIFO: queue declaration order; within a queue asks are FIFO anyway,
  // and with the default single queue this is strict submission order.
  std::vector<const QueueConfig*> order;
  for (const auto& q : queues_) order.push_back(&q);
  if (config_.scheduler_policy == SchedulerPolicy::kCapacity) {
    std::stable_sort(order.begin(), order.end(),
                     [this](const QueueConfig* a, const QueueConfig* b) {
                       return queue_usage_ratio(a->name) <
                              queue_usage_ratio(b->name);
                     });
  }

  for (const auto* q : order) {
    auto& asks = pending_.at(q->name);
    std::deque<PendingAsk> remaining;
    // Monotone-failure cutoff: capacity only shrinks during a pass, so
    // once an unconstrained ask of size (m, v) fails to place, any later
    // ask needing at least that much fails too and is requeued without
    // another placement scan. Node-constrained (preferred, strict
    // locality) asks fail for node-local reasons and never arm the cut.
    common::MemoryMb failed_mb = -1;
    int failed_vcores = -1;
    while (!asks.empty()) {
      PendingAsk ask = std::move(asks.front());
      asks.pop_front();
      AppRecord& app = *ask.app;
      if (is_final(app.report.state)) {
        --app.pending_asks;
        continue;  // app died while queued
      }
      const Resource& need = ask.request.resource;
      if (failed_mb >= 0 && need.memory_mb >= failed_mb &&
          need.vcores >= failed_vcores &&
          ask.request.preferred_nodes.empty()) {
        remaining.push_back(std::move(ask));
        continue;
      }
      Container placed;
      NodeManager* nm = try_place(ask, placed);
      if (nm == nullptr) {
        if (ask.request.preferred_nodes.empty() &&
            (failed_mb < 0 || need.memory_mb <= failed_mb)) {
          failed_mb = need.memory_mb;
          failed_vcores = need.vcores;
        }
        remaining.push_back(std::move(ask));
        continue;
      }
      --app.pending_asks;
      if (ask.is_am) {
        app.am_container_id = placed.id;
        app.report.state = AppState::kAmLaunching;
        app.report.am_node = nm->node_name();
        transport_launch(nm->node_name(), placed.id,
                         [this, &app] { on_am_container_running(app); });
      } else {
        app.container_ids.push_back(placed.id);
        if (ask.on_allocated) ask.on_allocated(placed);
      }
    }
    asks = std::move(remaining);
  }
}

void ResourceManager::preemption_pass() {
  // Find a starved queue (pending asks, usage below capacity).
  const QueueConfig* starved = nullptr;
  for (const auto& q : queues_) {
    if (!pending_.at(q.name).empty() && queue_usage_ratio(q.name) < 1.0) {
      starved = &q;
      break;
    }
  }
  if (starved == nullptr) return;
  // Find the most over-capacity queue.
  const QueueConfig* over = nullptr;
  double worst = 1.0 + 1e-9;
  for (const auto& q : queues_) {
    const double ratio = queue_usage_ratio(q.name);
    if (ratio > worst) {
      worst = ratio;
      over = &q;
    }
  }
  if (over == nullptr) return;
  // Preempt the newest non-AM container of the newest app in that queue.
  for (auto it = apps_.rbegin(); it != apps_.rend(); ++it) {
    AppRecord& app = it->second;
    if (app.report.queue != over->name || is_final(app.report.state)) {
      continue;
    }
    for (auto cit = app.container_ids.rbegin();
         cit != app.container_ids.rend(); ++cit) {
      NodeManager* nm = nm_hosting(*cit);
      const Container* live = nm == nullptr ? nullptr : nm->find(*cit);
      if (live == nullptr) continue;  // lost with a crashed NM
      const Container copy = *live;
      transport_release(*nm, copy.id, ContainerState::kPreempted);
      std::erase(app.container_ids, copy.id);
      if (preemption_hook_) {
        preemption_hook_(app.report.id, copy.id, app.report.queue);
      }
      run_kept(app, app.am.preempted_callback_, copy);
      return;  // one preemption per pass
    }
  }
}

void ResourceManager::on_am_container_running(AppRecord& app) {
  // AM process is up; registration handshake follows.
  ++app.holds;
  engine_.schedule(config_.am_register_time, [this, &app] {
    --app.holds;
    if (is_final(app.report.state)) return;
    app.report.state = AppState::kRunning;
    app.report.start_time = engine_.now();
    run_kept(app, app.on_am_start, app.am);
  });
}

void ResourceManager::finish_application(AppRecord& app,
                                         AppState final_state) {
  if (is_final(app.report.state)) return;
  app.report.state = final_state;
  app.report.finish_time = engine_.now();
  // Release all live containers including the AM's; one the AM already
  // completed is no longer hosted and gets no second release.
  const ContainerState container_final = final_state == AppState::kFinished
                                             ? ContainerState::kCompleted
                                             : ContainerState::kKilled;
  for (const auto& cid : app.container_ids) {
    if (NodeManager* nm = nm_hosting(cid)) {
      transport_release(*nm, cid, container_final);
    }
  }
  if (!app.am_container_id.empty()) {
    if (NodeManager* nm = nm_hosting(app.am_container_id)) {
      transport_release(*nm, app.am_container_id, container_final);
    }
  }
  // Drop this app's pending asks. Asks a running scheduler pass holds
  // are dropped by that pass.
  if (app.pending_asks > 0) {
    app.pending_asks -= std::erase_if(
        *app.asks, [&app](const PendingAsk& a) { return a.app == &app; });
  }
  request_scheduler_pass();  // released capacity may satisfy other asks
  // A final application keeps only its report and its AM handle. A
  // callback running right now lives in a local (run_kept) and ends
  // with its call.
  std::vector<std::string>().swap(app.container_ids);
  std::string().swap(app.am_container_id);
  app.on_am_start = nullptr;
  app.am.preempted_callback_ = nullptr;
  ++apps_completed_;
  // Push the outcome to the submitter (event notification, not polling).
  if (auto done = std::exchange(app.on_finished, nullptr)) done(app.report);
  retire(app);
}

void ResourceManager::retire(AppRecord& app) {
  finished_.push_back(&app);
  // The record just finished is the newest, so its callers' references
  // stay good. An older one goes only when no pending ask, registration
  // event or running callback points at it; a held front waits for a
  // later finish.
  while (finished_.size() > kMaxCompletedApps) {
    const AppRecord& oldest = *finished_.front();
    if (oldest.pending_asks > 0 || oldest.holds > 0) break;
    apps_.erase(apps_.find(oldest.report.id));
    finished_.pop_front();
  }
}

void ResourceManager::kill_application(const std::string& app_id) {
  finish_application(find_app(app_id), AppState::kKilled);
}

void ResourceManager::push_ask(
    AppRecord& app, ContainerRequest request, bool is_am,
    std::function<void(const Container&)> on_allocated) {
  request.resource = config_.normalize(request.resource);
  app.asks->push_back(
      PendingAsk{&app, std::move(request), is_am, std::move(on_allocated)});
  ++app.pending_asks;
}

void ResourceManager::am_request_containers(
    AppRecord& app, int count, const ContainerRequest& request,
    std::function<void(const Container&)> cb) {
  if (app.report.state != AppState::kRunning) {
    throw common::StateError("AM of " + app.report.id +
                             " requested containers while not RUNNING");
  }
  for (int i = 0; i < count; ++i) {
    push_ask(app, request, false, cb);
  }
  request_scheduler_pass();  // demand created
}

void ResourceManager::am_launch_container(const std::string& container_id,
                                          std::function<void()> on_running) {
  NodeManager* nm = nm_hosting(container_id);
  if (nm == nullptr) {
    throw common::NotFoundError("no NM hosts container " + container_id);
  }
  transport_launch(nm->node_name(), container_id, std::move(on_running));
}

void ResourceManager::am_release_container(AppRecord& app,
                                           const std::string& container_id,
                                           ContainerState final_state) {
  if (NodeManager* nm = nm_hosting(container_id)) {
    transport_release(*nm, container_id, final_state);
  }
  std::erase(app.container_ids, container_id);
  request_scheduler_pass();  // capacity freed
}

Resource ResourceManager::available() const {
  return Resource{view_.capacity.memory_mb - view_.allocated.memory_mb,
                  view_.capacity.vcores - view_.allocated.vcores};
}

common::Json ResourceManager::cluster_metrics() const {
  const Resource cap = total_capacity();
  const Resource used = total_allocated();
  std::int64_t running = 0;
  for (const auto& [id, app] : apps_) {
    if (app.report.state == AppState::kRunning) ++running;
  }
  common::Json metrics;
  auto& m = metrics["clusterMetrics"];
  m["appsSubmitted"] = static_cast<std::int64_t>(next_app_number_ - 1);
  m["appsRunning"] = running;
  m["appsCompleted"] = apps_completed_;
  m["totalMB"] = cap.memory_mb;
  m["totalVirtualCores"] = static_cast<std::int64_t>(cap.vcores);
  m["allocatedMB"] = used.memory_mb;
  m["allocatedVirtualCores"] = static_cast<std::int64_t>(used.vcores);
  const Resource free = available();
  m["availableMB"] = free.memory_mb;
  m["availableVirtualCores"] = static_cast<std::int64_t>(free.vcores);
  m["activeNodes"] = static_cast<std::int64_t>(live_node_count());
  m["lostNodes"] =
      static_cast<std::int64_t>(node_managers_.size() - live_node_count());
  return metrics;
}

common::Json ResourceManager::scheduler_info() const {
  common::JsonArray queue_rows;
  for (const auto& q : queues_) {
    common::Json row;
    row["queueName"] = q.name;
    row["capacity"] = q.capacity * 100.0;
    row["usedMB"] = queue_used_mb(q.name);
    row["pendingContainers"] =
        static_cast<std::int64_t>(pending_.at(q.name).size());
    queue_rows.push_back(std::move(row));
  }
  common::Json info;
  info["scheduler"]["type"] = "capacityScheduler";
  info["scheduler"]["queues"] = std::move(queue_rows);
  return info;
}

// --- ApplicationMaster methods (need the full RM type) ---

const std::string& ApplicationMaster::app_id() const {
  return app_.report.id;
}

void ApplicationMaster::request_containers(
    int count, const ContainerRequest& request,
    std::function<void(const Container&)> on_allocated) {
  rm_.am_request_containers(app_, count, request, std::move(on_allocated));
}

void ApplicationMaster::launch(const std::string& container_id,
                               std::function<void()> on_running) {
  rm_.am_launch_container(container_id, std::move(on_running));
}

void ApplicationMaster::complete_container(const std::string& container_id) {
  rm_.am_release_container(app_, container_id, ContainerState::kCompleted);
}

void ApplicationMaster::kill_container(const std::string& container_id) {
  rm_.am_release_container(app_, container_id, ContainerState::kKilled);
}

void ApplicationMaster::unregister(bool success) {
  rm_.finish_application(app_,
                         success ? AppState::kFinished : AppState::kFailed);
}

}  // namespace hoh::yarn

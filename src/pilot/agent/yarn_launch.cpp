#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "pilot/agent/agent.h"

/// \file yarn_launch.cpp
/// The YARN Launch Method. Mode I bootstraps and owns its YarnCluster;
/// Mode II borrows a running one, which the pilot never grows, drains or
/// shuts down. Units are admitted against the RM's free memory, submitted
/// through the serialized `yarn jar` round trip, and run in a container
/// of their own application or, with reuse_yarn_app, of one shared one.

namespace hoh::pilot {

namespace {

const sim::TraceName kUnitTrace("unit");
const sim::TraceName kYarnSubmitSpan("yarn_submit");

}  // namespace

class YarnLaunch final : public LaunchMethod {
 public:
  YarnLaunch(Agent& agent, yarn::YarnCluster* external)
      : LaunchMethod(agent), external_(external) {}

  void bootstrap(std::function<void()> on_done) override;
  void teardown() override {
    waiting_for_shared_am_.clear();
    if (owned_ != nullptr) owned_->shutdown();
    // A borrowed cluster outlives the pilot; the pilot's applications
    // must not. Each kill's on_finished erases from the set, so walk a
    // copy.
    for (const auto& id : std::exchange(borrowed_apps_, {})) {
      rm().kill_application(id);
    }
  }
  bool admit(UnitRec& unit) override;
  void launch(const std::shared_ptr<UnitRec>& unit) override;
  void withdraw(UnitRec& unit) override {
    if (unit.am != nullptr) {
      unit.am->kill_container(unit.container_id);
      if (unit.dedicated_app) unit.am->unregister(false);
    }
    unit.dedicated_app = false;
    unit.container_id.clear();
    unit.container_node.clear();
  }
  void release(UnitRec& unit) override {
    inflight_mb_ -= unit.reserved_mb;
    unit.reserved_mb = 0;
    unit.am = nullptr;
  }
  void used_capacity(AgentCapacity& cap) const override {
    // Memory-only scheduling leaves node core ledgers untouched; the RM
    // ledger is the authority for YARN usage.
    const yarn::Resource used = rm().total_allocated();
    cap.used_cores = used.vcores;
    cap.used_memory_mb = used.memory_mb;
  }

  common::Seconds node_start_time() const override {
    if (external_ != nullptr) {
      throw common::StateError(
          "Agent: Mode II pilots cannot grow — the external cluster is not "
          "ours to resize");
    }
    return agent_.machine_.bootstrap.worker_daemon_start;
  }
  void grow(const std::shared_ptr<cluster::Node>& node) override {
    if (owned_ != nullptr) owned_->add_nodes({node});
  }
  void drain(const std::vector<std::string>& names) override {
    if (owned_ != nullptr) owned_->decommission_nodes(names);
  }
  bool drained(const std::vector<std::string>& names) const override {
    return owned_ == nullptr ||
           std::none_of(names.begin(), names.end(), [this](const auto& n) {
             return busy(rm().node_manager(n));
           });
  }
  bool data_safe(const std::vector<std::string>& names) const override {
    // Blocks re-replicated off the leaving DataNodes. Never skipped: a
    // drain timeout may preempt compute, but releasing a node before its
    // blocks are safe would lose data.
    return owned_ == nullptr || owned_->decommission_complete(names);
  }
  void evict(const std::vector<std::string>& names) override {
    // Whatever still pins a leaving NM (e.g. an Application Master
    // container) goes through the RM's node-loss path; the DataNode
    // stays alive, so no block is lost.
    if (owned_ == nullptr) return;
    for (const auto& name : names) {
      if (busy(rm().node_manager(name))) rm().fail_node(name);
    }
  }
  void remove(const std::vector<std::string>& names) override {
    if (owned_ != nullptr) owned_->remove_nodes(names);
    for (const auto& name : names) wrapper_cache_.erase(name);
  }
  bool on_draining_node(const UnitRec& unit) const override {
    // As soon as it holds a container on a leaving node, even before it
    // reaches Executing: evict() would otherwise kill the container with
    // no one requeueing the unit.
    return unit.am != nullptr && agent_.node_draining(unit.container_node);
  }

  yarn::YarnCluster* yarn_cluster() override { return cluster(); }

 private:
  yarn::YarnCluster* cluster() const {
    return external_ != nullptr ? external_ : owned_.get();
  }
  yarn::ResourceManager& rm() const { return cluster()->resource_manager(); }
  static bool busy(const yarn::NodeManager& nm) {
    return nm.alive() && nm.live_count() > 0;
  }
  void submit_app(yarn::AppDescriptor app) {
    std::string id = rm().submit_application(std::move(app));
    if (external_ != nullptr) borrowed_apps_.insert(std::move(id));
  }
  /// Every application's on_finished starts here: a finished one is no
  /// longer the pilot's to kill.
  void app_finished(const yarn::AppReport& report) {
    if (external_ != nullptr) borrowed_apps_.erase(report.id);
  }
  void submit(const std::shared_ptr<UnitRec>& unit);
  /// Asks \p am for the unit's one container and runs the unit in it.
  void run_in_container(const std::shared_ptr<UnitRec>& unit,
                        yarn::ApplicationMaster& am, bool dedicated_app);

  yarn::YarnCluster* external_ = nullptr;
  std::unique_ptr<yarn::YarnCluster> owned_;
  /// Admitted units' memory not yet visible in the RM's ledger.
  common::MemoryMb inflight_mb_ = 0;
  /// Nodes whose NM already localized the RP environment: the wrapper
  /// script's first unit on a node pays the full setup.
  std::set<std::string> wrapper_cache_;
  /// Live applications the pilot submitted to a borrowed cluster.
  std::set<std::string> borrowed_apps_;
  // An AM handle lives in its application's RM record, which the RM may
  // evict once the application finished: every holder below (and
  // UnitRec::am) is cleared in the application's on_finished.
  // Shared-application extension state.
  yarn::ApplicationMaster* shared_am_ = nullptr;
  std::deque<std::shared_ptr<UnitRec>> waiting_for_shared_am_;
};

void YarnLaunch::bootstrap(std::function<void()> on_done) {
  Agent& a = agent_;
  if (external_ != nullptr) {
    // Connect to the running RM and read its REST metrics once.
    a.saga_.engine().schedule(2.0, [this, &a, cb = std::move(on_done)] {
      if (a.stopped_) return;
      const auto metrics = rm().cluster_metrics();
      a.saga_.trace().record(
          a.saga_.engine().now(), "pilot", "yarn_connected",
          {{"pilot", a.pilot_id_},
           {"availableMB",
            std::to_string(
                metrics.at("clusterMetrics").at("availableMB").as_int())}});
      cb();
    });
    return;
  }
  const common::Seconds dt = a.machine_.bootstrap.yarn_bootstrap_time(
      static_cast<int>(a.allocation_.size()));
  a.saga_.engine().schedule(dt, [this, &a, dt, cb = std::move(on_done)] {
    if (a.stopped_) return;
    owned_ = std::make_unique<yarn::YarnCluster>(
        a.saga_.engine(), a.machine_, a.allocation_, a.config_.yarn);
    a.saga_.trace().record(a.saga_.engine().now(), "pilot",
                           "yarn_bootstrapped",
                           {{"pilot", a.pilot_id_},
                            {"seconds", common::strformat("%.2f", dt)}});
    cb();
  });
}

bool YarnLaunch::admit(UnitRec& unit) {
  // The YARN scheduler gates on *memory and cores* using the RM's free
  // capacity (the REST metrics' availableMB, paper SS-III-C), accounting
  // for submissions whose containers are not visible in the RM's ledger
  // yet.
  const AgentConfig& config = agent_.config_;
  const yarn::YarnConfig& ycfg = rm().config();
  common::MemoryMb need =
      ycfg.normalize({unit.desc->memory_mb, unit.desc->cores}).memory_mb;
  if (!config.reuse_yarn_app || shared_am_ == nullptr) {
    need += ycfg.normalize(config.yarn.yarn.am_resource).memory_mb;
  }
  if (rm().available().memory_mb - inflight_mb_ < need) return false;
  // Data-aware extension: steer the unit towards the node holding most
  // HDFS blocks of its first resident input.
  if (config.data_aware_scheduling && unit.desc->preferred_nodes.empty()) {
    hdfs::HdfsCluster& fs = cluster()->hdfs();
    for (const auto& f : unit.desc->input_staging) {
      if (f.url.scheme() == "hdfs" && fs.exists(f.url.path())) {
        const auto best = fs.best_node(f.url.path());
        if (!best.empty()) {
          // The shared description is read-only: the steered unit gets
          // its own copy.
          auto steered = std::make_shared<ComputeUnitDescription>(*unit.desc);
          steered->preferred_nodes.push_back(best);
          unit.desc = std::move(steered);
        }
        break;
      }
    }
  }
  unit.reserved_mb = need;
  inflight_mb_ += need;
  return true;
}

void YarnLaunch::launch(const std::shared_ptr<UnitRec>& unit) {
  agent_.saga_.trace().begin_span(agent_.saga_.engine().now(), kUnitTrace,
                                  kYarnSubmitSpan, unit->id);
  agent_.stage_in(unit, [this, unit] {
    // Serialized `yarn jar` CLI submission round trip.
    agent_.saga_.engine().schedule(
        agent_.spawn_delay(agent_.config_.yarn_submit_latency),
        [this, unit] { submit(unit); });
  });
}

void YarnLaunch::submit(const std::shared_ptr<UnitRec>& unit) {
  if (agent_.stopped_) return;
  yarn::AppDescriptor app;
  app.am_resource = agent_.config_.yarn.yarn.am_resource;
  if (agent_.config_.reuse_yarn_app) {
    if (shared_am_ != nullptr) {
      run_in_container(unit, *shared_am_, false);
      return;
    }
    waiting_for_shared_am_.push_back(unit);
    if (waiting_for_shared_am_.size() > 1) return;  // AM already requested
    app.name = "radical-pilot-shared";
    app.on_am_start = [this](yarn::ApplicationMaster& am) {
      if (agent_.stopped_) return;
      shared_am_ = &am;
      auto waiting = std::move(waiting_for_shared_am_);
      waiting_for_shared_am_.clear();
      for (auto& w : waiting) run_in_container(w, am, false);
    };
    app.on_finished = [this](const yarn::AppReport& report) {
      app_finished(report);
      for (const auto& running : agent_.running_units_) {
        if (running->am == shared_am_) running->am = nullptr;
      }
      shared_am_ = nullptr;
    };
    submit_app(std::move(app));
    return;
  }
  // Paper default: one YARN application (own AM) per Compute-Unit.
  app.name = unit->desc->name;
  app.on_am_start = [this, unit](yarn::ApplicationMaster& am) {
    if (!agent_.stopped_) run_in_container(unit, am, true);
  };
  app.on_finished = [this, unit](const yarn::AppReport& report) {
    app_finished(report);
    // A requeued unit may hold another application's AM by now.
    if (unit->am != nullptr && unit->am->app_id() == report.id) {
      unit->am = nullptr;
    }
  };
  submit_app(std::move(app));
}

void YarnLaunch::run_in_container(const std::shared_ptr<UnitRec>& unit,
                                  yarn::ApplicationMaster& am,
                                  bool dedicated_app) {
  yarn::ContainerRequest req;
  req.resource = {unit->desc->memory_mb, unit->desc->cores};
  req.preferred_nodes = unit->desc->preferred_nodes;
  am.request_containers(1, req, [this, unit, &am,
                                 dedicated_app](const yarn::Container& c) {
    unit->am = &am;
    unit->dedicated_app = dedicated_app;
    unit->container_id = c.id;
    unit->container_node = c.node;
    agent_.record_placed(*unit, c.node);
    am.launch(c.id, [this, unit, id = c.id, node = c.node] {
      if (agent_.stopped_) return;
      // Wrapper script: sets up the RP environment inside the container
      // (cached per node by the NM's resource localization).
      const common::Seconds wrapper = wrapper_cache_.insert(node).second
                                          ? agent_.config_.wrapper_setup_time
                                          : agent_.config_.wrapper_cached_time;
      sim::Engine& engine = agent_.saga_.engine();
      engine.schedule(wrapper, [this, unit, id, &engine] {
        if (agent_.stopped_ || unit->container_id != id) return;
        agent_.set_unit_state(*unit, UnitState::kExecuting);
        agent_.saga_.trace().end_span(engine.now(), kUnitTrace,
                                      kYarnSubmitSpan, unit->id);
        unit->exec_event = engine.schedule(unit->desc->duration, [this, unit,
                                                                 id] {
          if (agent_.stopped_) return;
          yarn::ApplicationMaster* am = std::exchange(unit->am, nullptr);
          unit->exec_event = sim::EventHandle{};
          const bool ok = unit->desc->exit_code == 0;
          const bool dedicated = std::exchange(unit->dedicated_app, false);
          // No AM: the application failed under the unit (its AM was
          // lost beyond its attempts) and took the container with it.
          if (am != nullptr) {
            if (ok) {
              am->complete_container(id);
            } else {
              am->kill_container(id);
            }
            if (dedicated) am->unregister(ok);
          }
          agent_.payload_done(unit);
        });
      });
    });
  });
}

std::unique_ptr<LaunchMethod> make_yarn_launch(Agent& agent,
                                               yarn::YarnCluster* external) {
  return std::make_unique<YarnLaunch>(agent, external);
}

}  // namespace hoh::pilot

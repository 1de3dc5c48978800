#include <algorithm>

#include "common/string_util.h"
#include "pilot/agent/agent.h"

/// \file spark_launch.cpp
/// The Spark Launch Method (Mode I): the LRM bootstraps a standalone
/// Spark cluster over the allocation and submits one long-lived
/// application per pilot holding every slot; each unit runs as a stage of
/// that application, and Spark's own wave queueing is the backpressure.

namespace hoh::pilot {

class SparkLaunch final : public LaunchMethod {
 public:
  using LaunchMethod::LaunchMethod;

  void bootstrap(std::function<void()> on_done) override;
  void teardown() override {
    if (cluster_ == nullptr) return;
    if (!app_id_.empty()) cluster_->finish_application(app_id_);
    cluster_->shutdown();
  }
  bool admit(UnitRec& /*unit*/) override { return true; }
  void launch(const std::shared_ptr<UnitRec>& unit) override;

  common::Seconds node_start_time() const override {
    return agent_.machine_.bootstrap.spark_worker_start;
  }
  void grow(const std::shared_ptr<cluster::Node>& node) override {
    if (cluster_ != nullptr) cluster_->add_worker(node);
  }
  void drain(const std::vector<std::string>& names) override {
    if (cluster_ == nullptr) return;
    for (const auto& name : names) cluster_->decommission_worker(name);
  }
  bool drained(const std::vector<std::string>& names) const override {
    return cluster_ == nullptr ||
           std::all_of(names.begin(), names.end(), [this](const auto& n) {
             return cluster_->worker_drained(n);
           });
  }
  void remove(const std::vector<std::string>& names) override {
    if (cluster_ == nullptr) return;
    for (const auto& name : names) cluster_->remove_worker(name);
  }

  spark::SparkStandaloneCluster* spark_cluster() override {
    return cluster_.get();
  }

 private:
  std::unique_ptr<spark::SparkStandaloneCluster> cluster_;
  std::string app_id_;
};

void SparkLaunch::bootstrap(std::function<void()> on_done) {
  Agent& a = agent_;
  const common::Seconds dt = a.machine_.bootstrap.spark_bootstrap_time(
      static_cast<int>(a.allocation_.size()));
  a.saga_.engine().schedule(dt, [this, &a, dt, cb = std::move(on_done)] {
    if (a.stopped_) return;
    cluster_ = std::make_unique<spark::SparkStandaloneCluster>(
        a.saga_.engine(), a.machine_, a.allocation_, a.config_.spark);
    // One long-lived Spark application per pilot holds all slots.
    spark::SparkAppDescriptor app;
    app.name = a.pilot_id_;
    app.executor_cores = a.allocation_.nodes()[0]->spec().cores;
    app.executor_memory_mb = a.allocation_.nodes()[0]->spec().memory_mb - 2048;
    app_id_ = cluster_->submit_application(app);
    a.saga_.trace().record(a.saga_.engine().now(), "pilot",
                           "spark_bootstrapped",
                           {{"pilot", a.pilot_id_},
                            {"seconds", common::strformat("%.2f", dt)}});
    cb();
  });
}

void SparkLaunch::launch(const std::shared_ptr<UnitRec>& unit) {
  agent_.stage_in(unit, [this, unit] {
    agent_.set_unit_state(*unit, UnitState::kExecuting);
    cluster_->run_stage(
        app_id_, unit->desc->cores,
        [unit](int) { return unit->desc->duration; },
        [this, unit] {
          if (agent_.stopped_) return;
          agent_.payload_done(unit);
        });
  });
}

std::unique_ptr<LaunchMethod> make_spark_launch(Agent& agent) {
  return std::make_unique<SparkLaunch>(agent);
}

}  // namespace hoh::pilot

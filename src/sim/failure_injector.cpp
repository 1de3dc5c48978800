#include "sim/failure_injector.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace hoh::sim {

void FailurePlan::validate() const {
  if (mean_time_to_crash < 0.0 || mean_time_to_repair < 0.0 ||
      mean_time_to_slow < 0.0) {
    throw common::ConfigError("FailurePlan: means must be >= 0");
  }
  if (slow_factor < 1.0) {
    throw common::ConfigError("FailurePlan: slow_factor must be >= 1");
  }
  if (slow_duration < 0.0 || start_after < 0.0) {
    throw common::ConfigError(
        "FailurePlan: slow_duration/start_after must be >= 0");
  }
  if (max_crashes < 0) {
    throw common::ConfigError("FailurePlan: max_crashes must be >= 0");
  }
}

FailureInjector::FailureInjector(Engine& engine, FailurePlan plan,
                                 std::vector<std::string> nodes)
    : engine_(engine),
      plan_(plan),
      nodes_(std::move(nodes)),
      rng_(plan.seed) {
  plan_.validate();
  if (nodes_.empty()) {
    throw common::ConfigError("FailureInjector: node set must not be empty");
  }
  for (const auto& n : nodes_) down_[n] = false;
}

void FailureInjector::arm() {
  if (armed_) return;
  armed_ = true;
  arm_next_crash();
  arm_next_slow();
}

void FailureInjector::disarm() {
  armed_ = false;
  engine_.cancel(next_crash_);
  engine_.cancel(next_slow_);
  for (auto& h : pending_) engine_.cancel(h);
  pending_.clear();
}

void FailureInjector::arm_next_crash() {
  if (!armed_ || plan_.mean_time_to_crash <= 0.0) return;
  if (plan_.max_crashes > 0 && counters_.crashes >= plan_.max_crashes) return;
  Seconds delay = rng_.exponential(plan_.mean_time_to_crash);
  const Seconds at = std::max(engine_.now() + delay, plan_.start_after);
  next_crash_ = engine_.schedule_at(at, [this] {
    const std::string node = pick_up_node();
    if (!node.empty()) deliver_crash(node);
    arm_next_crash();
  });
}

void FailureInjector::arm_next_slow() {
  if (!armed_ || plan_.mean_time_to_slow <= 0.0) return;
  Seconds delay = rng_.exponential(plan_.mean_time_to_slow);
  const Seconds at = std::max(engine_.now() + delay, plan_.start_after);
  next_slow_ = engine_.schedule_at(at, [this] {
    const std::string node = pick_up_node();
    if (!node.empty()) deliver_slow(node);
    arm_next_slow();
  });
}

void FailureInjector::schedule_crash(Seconds at, const std::string& node) {
  pending_.push_back(engine_.schedule_at(at, [this, node] {
    if (!down_.count(node) || down_[node]) return;
    deliver_crash(node);
  }));
}

void FailureInjector::schedule_repair(Seconds at, const std::string& node) {
  pending_.push_back(engine_.schedule_at(at, [this, node] {
    if (!down_.count(node) || !down_[node]) return;
    deliver_repair(node);
  }));
}

void FailureInjector::deliver_crash(const std::string& node) {
  down_[node] = true;
  ++counters_.crashes;
  trace_event("node_crash", node,
              {{"crash_index", std::to_string(counters_.crashes)}});
  if (on_crash_) on_crash_(node);
  if (plan_.mean_time_to_repair > 0.0) {
    const Seconds delay = rng_.exponential(plan_.mean_time_to_repair);
    pending_.push_back(engine_.schedule(delay, [this, node] {
      if (down_.count(node) && down_[node]) deliver_repair(node);
    }));
  }
}

void FailureInjector::deliver_repair(const std::string& node) {
  down_[node] = false;
  ++counters_.repairs;
  trace_event("node_repair", node);
  if (on_repair_) on_repair_(node);
}

void FailureInjector::deliver_slow(const std::string& node) {
  ++counters_.slow_episodes;
  trace_event("node_slow", node,
              {{"factor", std::to_string(plan_.slow_factor)},
               {"duration", std::to_string(plan_.slow_duration)}});
  if (on_slow_) on_slow_(node, plan_.slow_factor);
  pending_.push_back(engine_.schedule(plan_.slow_duration, [this, node] {
    trace_event("node_slow_end", node);
    if (on_slow_) on_slow_(node, 1.0);
  }));
}

std::string FailureInjector::pick_up_node() {
  std::vector<const std::string*> up;
  up.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    if (!down_[n]) up.push_back(&n);
  }
  if (up.empty()) return {};
  const auto i = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1));
  return *up[i];
}

bool FailureInjector::is_down(const std::string& node) const {
  auto it = down_.find(node);
  return it != down_.end() && it->second;
}

void FailureInjector::trace_event(const std::string& name,
                                  const std::string& node,
                                  TraceAttrs extra) {
  if (!trace_) return;
  extra.insert_or_assign("node", node);
  trace_->record(engine_.now(), "failure", name, std::move(extra));
}

}  // namespace hoh::sim

#include <gtest/gtest.h>

#include "pilot/agent/agent.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"

namespace hoh::pilot {
namespace {

/// Workflow-dependency tests: units chained with depends_on.
class WorkflowTest : public ::testing::Test {
 protected:
  WorkflowTest() {
    session_.register_machine(cluster::generic_profile(4, 8, 16 * 1024),
                              hpc::SchedulerKind::kSlurm, 4);
    PilotDescription pd;
    pd.resource = "slurm://beowulf/";
    pd.nodes = 2;
    pilot_ = pm_.submit_pilot(pd);
    um_.add_pilot(pilot_);
  }

  ComputeUnitDescription unit(const std::string& name, double duration,
                              std::vector<std::string> deps = {},
                              int exit_code = 0) {
    ComputeUnitDescription cud;
    cud.name = name;
    cud.duration = duration;
    cud.memory_mb = 1024;
    cud.depends_on = std::move(deps);
    cud.exit_code = exit_code;
    return cud;
  }

  void drive(double horizon = 3600.0) {
    const double until = session_.engine().now() + horizon;
    while (!um_.all_done() && session_.engine().now() < until) {
      session_.engine().run_until(session_.engine().now() + 5.0);
    }
  }

  /// Time a unit reached Executing, from the trace (-1 if never).
  double executing_at(const std::string& unit_id) {
    for (const auto& e : session_.trace().find("unit", "Executing")) {
      if (e.attrs.at("unit") == unit_id) return e.time;
    }
    return -1.0;
  }

  Session session_;
  PilotManager pm_{session_};
  UnitManager um_{session_};
  std::shared_ptr<Pilot> pilot_;
};

TEST_F(WorkflowTest, ChainRunsInOrder) {
  auto a = um_.submit(unit("a", 20.0));
  auto b = um_.submit(unit("b", 20.0, {a->id()}));
  auto c = um_.submit(unit("c", 20.0, {b->id()}));
  drive();
  EXPECT_EQ(a->state(), UnitState::kDone);
  EXPECT_EQ(b->state(), UnitState::kDone);
  EXPECT_EQ(c->state(), UnitState::kDone);
  // Strict ordering: each stage starts only after its parent finished.
  EXPECT_GT(executing_at(b->id()), executing_at(a->id()) + 20.0 - 1e-9);
  EXPECT_GT(executing_at(c->id()), executing_at(b->id()) + 20.0 - 1e-9);
}

TEST_F(WorkflowTest, FanInWaitsForAllParents) {
  auto fast = um_.submit(unit("fast", 5.0));
  auto slow = um_.submit(unit("slow", 60.0));
  auto join = um_.submit(unit("join", 5.0, {fast->id(), slow->id()}));
  drive();
  EXPECT_EQ(join->state(), UnitState::kDone);
  EXPECT_GT(executing_at(join->id()), executing_at(slow->id()) + 60.0 - 1e-9);
}

TEST_F(WorkflowTest, SameBatchDependencies) {
  // Dependencies can reference units submitted in the same call: ids are
  // assigned in order, so build them incrementally.
  auto stage1 = um_.submit(unit("sim", 10.0));
  std::vector<ComputeUnitDescription> batch;
  batch.push_back(unit("ana-0", 5.0, {stage1->id()}));
  batch.push_back(unit("ana-1", 5.0, {stage1->id()}));
  auto stage2 = um_.submit(batch);
  drive();
  for (const auto& u : stage2) EXPECT_EQ(u->state(), UnitState::kDone);
}

TEST_F(WorkflowTest, FailedDependencyCancelsDependents) {
  auto bad = um_.submit(unit("bad", 5.0, {}, /*exit_code=*/1));
  auto child = um_.submit(unit("child", 5.0, {bad->id()}));
  auto grandchild = um_.submit(unit("grandchild", 5.0, {child->id()}));
  drive();
  EXPECT_EQ(bad->state(), UnitState::kFailed);
  EXPECT_EQ(child->state(), UnitState::kCanceled);
  EXPECT_EQ(grandchild->state(), UnitState::kCanceled);
  EXPECT_TRUE(um_.all_done());
}

TEST_F(WorkflowTest, UnknownDependencyCancels) {
  auto orphan = um_.submit(unit("orphan", 5.0, {"unit.does-not-exist"}));
  drive(120.0);
  EXPECT_EQ(orphan->state(), UnitState::kCanceled);
}

TEST_F(WorkflowTest, DependencyAlreadyDoneAtSubmitRuns) {
  auto parent = um_.submit(unit("parent", 5.0));
  drive();
  ASSERT_EQ(parent->state(), UnitState::kDone);
  // The parent is settled before the child exists, so no later unit
  // update will ever mention it: the child must be released at submit.
  auto child = um_.submit(unit("child", 5.0, {parent->id()}));
  drive(120.0);
  EXPECT_EQ(child->state(), UnitState::kDone);
}

TEST_F(WorkflowTest, IndependentUnitsUnaffectedByHeldOnes) {
  auto slow = um_.submit(unit("slow", 100.0));
  auto held = um_.submit(unit("held", 5.0, {slow->id()}));
  auto free1 = um_.submit(unit("free", 5.0));
  drive(60.0);
  // The free unit finished long before the held one became eligible.
  EXPECT_EQ(free1->state(), UnitState::kDone);
  EXPECT_NE(held->state(), UnitState::kDone);
  drive();
  EXPECT_EQ(held->state(), UnitState::kDone);
}

TEST_F(WorkflowTest, DependsOnSerializedInStoreDocument) {
  auto a = um_.submit(unit("a", 5.0));
  auto b = um_.submit(unit("b", 5.0, {a->id()}));
  for (const auto& [id, doc] : session_.store().find_all("unit")) {
    if (id != b->id()) continue;
    const auto deps = doc.at("description").at("depends_on").as_array();
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0].as_string(), a->id());
    return;
  }
  FAIL() << "no document for " << b->id();
}

TEST_F(WorkflowTest, TwoManagersShareOneSession) {
  // Both managers draw unit ids and store indices from the one session,
  // so interleaved submits must not collide, and each manager answers
  // only for its own units.
  UnitManager other(session_);
  other.add_pilot(pilot_);
  auto a = um_.submit(unit("a", 30.0));
  auto x = other.submit(unit("x", 5.0));
  auto b = um_.submit(unit("b", 5.0, {a->id()}));  // held behind a
  auto y = other.submit({unit("y1", 5.0), unit("y2", 10.0)});
  // A dependency on another manager's unit is unknown here: canceled.
  auto z = other.submit(unit("z", 5.0, {a->id()}));
  EXPECT_EQ(um_.find_unit(x->id()), nullptr);
  EXPECT_EQ(other.find_unit(a->id()), nullptr);
  EXPECT_EQ(um_.find_unit(b->id()), b);
  EXPECT_EQ(other.find_unit(y[1]->id()), y[1]);

  while (!other.all_done() && session_.engine().now() < 3600.0) {
    session_.engine().run_until(session_.engine().now() + 5.0);
  }
  EXPECT_EQ(x->state(), UnitState::kDone);
  EXPECT_EQ(y[0]->state(), UnitState::kDone);
  EXPECT_EQ(y[1]->state(), UnitState::kDone);
  EXPECT_EQ(z->state(), UnitState::kCanceled);
  // The other barrier settled without this manager's units.
  EXPECT_EQ(b->state(), UnitState::kNew);
  EXPECT_FALSE(um_.all_done());

  drive();
  EXPECT_EQ(a->state(), UnitState::kDone);
  EXPECT_EQ(b->state(), UnitState::kDone);
  EXPECT_TRUE(other.all_done());
  EXPECT_EQ(um_.done_count(), 2u);
  EXPECT_EQ(other.done_count(), 3u);
  // Recorded when units were keyed by their string ids: the run is the
  // same event for event.
  EXPECT_EQ(session_.store().schedule_digest(), 0x045d9782fe994260ULL);
}

TEST_F(WorkflowTest, DescriptionsAreSharedNotCopied) {
  // One-node units on a two-node pilot: two run, the rest wait in the
  // agent queue.
  ComputeUnitDescription wide = unit("wide", 50.0);
  wide.cores = 8;
  auto units = um_.submit(std::vector<ComputeUnitDescription>(6, wide));
  auto held = um_.submit(unit("held", 5.0, {units[0]->id()}));
  StateStore& store = session_.store();
  // A held unit's record holds the handle's own description.
  EXPECT_EQ(store.unit_description(held->index()).get(),
            &held->description());

  Agent* agent = nullptr;
  while (session_.engine().now() < 600.0) {
    session_.engine().run_until(session_.engine().now() + 1.0);
    agent = pilot_->agent();
    if (agent != nullptr && agent->units_running() > 0) break;
  }
  ASSERT_NE(agent, nullptr);
  // Every queued unit's description is its store record's.
  const auto queued = agent->queued_descriptions();
  ASSERT_EQ(queued.size(), 4u);
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const auto& unit = units[units.size() - queued.size() + i];
    EXPECT_EQ(queued[i], store.unit_description(unit->index())) << i;
  }
}

}  // namespace
}  // namespace hoh::pilot

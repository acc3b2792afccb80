// Tests for the paper's case-study algorithm (Fig. 5 + Algorithm 1): each
// phase is exercised by constructing the exact store state that should
// trigger it.
#include "sched/dreamsim_policy.hpp"

#include <gtest/gtest.h>

#include "audit_expect.hpp"

namespace dreamsim::sched {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;
using resource::Task;

ConfigCatalogue MakeCatalogue(std::initializer_list<Area> areas) {
  ConfigCatalogue c;
  for (const Area a : areas) {
    Configuration cfg;
    cfg.required_area = a;
    cfg.config_time = 10;
    c.Add(cfg);
  }
  return c;
}

Task MakeTask(std::uint32_t preferred, Area area, TaskId id = TaskId{0}) {
  Task t;
  t.id = id;
  t.preferred_config = ConfigId{preferred};
  t.needed_area = area;
  t.required_time = 100;
  return t;
}

Task MakeUnknownPrefTask(Area area, TaskId id = TaskId{0}) {
  Task t;
  t.id = id;
  t.preferred_config = ConfigId::invalid();
  t.needed_area = area;
  t.required_time = 100;
  return t;
}

TEST(ResolveConfig, ExactMatchWins) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const auto resolved = ResolveConfig(MakeTask(1, 500), store);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->config, ConfigId{1});
  EXPECT_FALSE(resolved->used_closest_match);
}

TEST(ResolveConfig, UnknownPrefFallsBackToClosestMatch) {
  ResourceStore store(MakeCatalogue({300, 500, 800}));
  const auto resolved = ResolveConfig(MakeUnknownPrefTask(400), store);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->config, ConfigId{1});  // 500 is minimal >= 400
  EXPECT_TRUE(resolved->used_closest_match);
}

TEST(ResolveConfig, NoMatchAnywhere) {
  ResourceStore store(MakeCatalogue({300}));
  const auto resolved = ResolveConfig(MakeUnknownPrefTask(5000), store);
  EXPECT_FALSE(resolved.has_value());
}

TEST(ResolveConfig, ChargesSearchSteps) {
  ResourceStore store(MakeCatalogue({300, 500, 800}));
  const Steps before = store.meter().scheduling_steps_total();
  (void)ResolveConfig(MakeTask(2, 800), store);
  EXPECT_GT(store.meter().scheduling_steps_total(), before);
}

// ---- Partial mode (Fig. 5 with partial reconfigurability) ----

class PartialPolicyTest : public ::testing::Test {
 protected:
  PartialPolicyTest()
      : store_(MakeCatalogue({300, 500, 800})),
        policy_(ReconfigMode::kPartial) {}
  ResourceStore store_;
  DreamSimPolicy policy_;
};

TEST_F(PartialPolicyTest, Phase1AllocationPrefersMinAvailableArea) {
  const NodeId small = store_.AddNode(1000);
  const NodeId large = store_.AddNode(4000);
  (void)store_.Configure(small, ConfigId{0});  // avail 700
  (void)store_.Configure(large, ConfigId{0});  // avail 3700

  const Decision d = policy_.Schedule(MakeTask(0, 300), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kAllocation);
  EXPECT_EQ(d.entry.node, small);
  EXPECT_EQ(d.config_time, 0);  // reuse: no configuration delay
  EXPECT_TRUE(AuditsClean(store_));
}

TEST_F(PartialPolicyTest, Phase2ConfigurationUsesTightestBlankNode) {
  (void)store_.AddNode(4000);
  const NodeId tight = store_.AddNode(1000);

  const Decision d = policy_.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kConfiguration);
  EXPECT_EQ(d.entry.node, tight);
  EXPECT_EQ(d.config_time, 10);
  EXPECT_TRUE(AuditsClean(store_));
}

TEST_F(PartialPolicyTest, Phase3PartialConfigurationOnOperativeNode) {
  const NodeId node = store_.AddNode(2000);
  const EntryRef busy = store_.Configure(node, ConfigId{1});  // 500
  store_.AssignTask(busy, TaskId{99});
  // No blank nodes left, no idle entry with config 0; node has 1500 spare.
  const Decision d = policy_.Schedule(MakeTask(0, 300, TaskId{1}), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kPartialConfiguration);
  EXPECT_EQ(d.entry.node, node);
  EXPECT_EQ(store_.node(node).config_count(), 2u);
  EXPECT_EQ(store_.node(node).running_tasks(), 2u);
  EXPECT_TRUE(AuditsClean(store_));
}

TEST_F(PartialPolicyTest, Phase4PartialReconfigurationReclaimsIdleEntries) {
  const NodeId node = store_.AddNode(1000);
  const EntryRef busy = store_.Configure(node, ConfigId{0});  // 300, busy
  store_.AssignTask(busy, TaskId{99});
  (void)store_.Configure(node, ConfigId{1});  // 500, idle; avail now 200

  // Config 2 needs 800: no idle entry, no blank node, spare area only 200,
  // but reclaiming the idle 500-entry yields 700... still short. Give the
  // task config 1's area? Use a task needing config 1 -> 500 <= 200+500.
  const Decision d = policy_.Schedule(MakeTask(2, 800, TaskId{1}), store_);
  // 200 + 500 = 700 < 800: impossible now, but the busy node's TotalArea
  // (1000) could fit 800 later -> suspension.
  EXPECT_EQ(d.outcome, Outcome::kSuspend);

  // A 500-area task CAN be served by reclaiming: spare 200 + idle 500.
  const Decision d2 = policy_.Schedule(MakeTask(1, 500, TaskId{2}), store_);
  // Direct allocation wins here (the idle entry has config 1 already).
  EXPECT_EQ(d2.outcome, Outcome::kPlaced);
  EXPECT_EQ(d2.kind, PlacementKind::kAllocation);
}

TEST_F(PartialPolicyTest, Phase4ReconfiguresWhenNoDirectOption) {
  const NodeId node = store_.AddNode(1000);
  const EntryRef busy = store_.Configure(node, ConfigId{0});  // 300 busy
  store_.AssignTask(busy, TaskId{99});
  (void)store_.Configure(node, ConfigId{0});  // 300 idle; avail 400

  // Task wants config 1 (500): no idle entry with config 1, no blank, spare
  // 400 < 500, but reclaiming the idle 300-entry gives 700 >= 500.
  const Decision d = policy_.Schedule(MakeTask(1, 500, TaskId{1}), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kPartialReconfiguration);
  EXPECT_EQ(d.entry.node, node);
  // The idle config-0 entry was reclaimed; node now has busy 0 + idle... 1.
  EXPECT_EQ(store_.node(node).config_count(), 2u);
  EXPECT_EQ(store_.idle_list(ConfigId{0}).size(), 0u);
  EXPECT_TRUE(AuditsClean(store_));
}

TEST_F(PartialPolicyTest, SuspendsWhenBusyNodeCouldFitLater) {
  const NodeId node = store_.AddNode(1000);
  const EntryRef busy = store_.Configure(node, ConfigId{2});  // 800 busy
  store_.AssignTask(busy, TaskId{99});
  const Decision d = policy_.Schedule(MakeTask(2, 800, TaskId{1}), store_);
  EXPECT_EQ(d.outcome, Outcome::kSuspend);
  EXPECT_EQ(d.config, ConfigId{2});  // resolution is reported on suspend
}

TEST_F(PartialPolicyTest, DiscardsWhenNothingCouldEverFit) {
  (void)store_.AddNode(1000);  // idle and blank, but too small for nothing...
  // All catalogue configs fit 1000, so use an unknown-pref task needing
  // more area than the largest config: resolution itself fails.
  const Decision d = policy_.Schedule(MakeUnknownPrefTask(900), store_);
  // Closest match = config 2 (800)? 800 < 900 -> no config >= 900 exists.
  EXPECT_EQ(d.outcome, Outcome::kDiscard);
}

TEST_F(PartialPolicyTest, DiscardsWhenNoBusyCandidateExists) {
  // One small node, already configured+busy with a small config, cannot
  // ever fit an 800 config (total 500 < 800) -> discard, not suspend.
  const NodeId node = store_.AddNode(500);
  const EntryRef busy = store_.Configure(node, ConfigId{0});
  store_.AssignTask(busy, TaskId{99});
  const Decision d = policy_.Schedule(MakeTask(2, 800, TaskId{1}), store_);
  EXPECT_EQ(d.outcome, Outcome::kDiscard);
}

// ---- Full mode (one node - one task) ----

class FullPolicyTest : public ::testing::Test {
 protected:
  FullPolicyTest()
      : store_(MakeCatalogue({300, 500, 800})),
        policy_(ReconfigMode::kFull) {}
  ResourceStore store_;
  DreamSimPolicy policy_;
};

TEST_F(FullPolicyTest, AllocationReusesIdleConfiguredNode) {
  const NodeId node = store_.AddNode(1000);
  (void)store_.Configure(node, ConfigId{0});
  const Decision d = policy_.Schedule(MakeTask(0, 300), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kAllocation);
  EXPECT_EQ(d.config_time, 0);
}

TEST_F(FullPolicyTest, ConfigurationOnBlankNode) {
  (void)store_.AddNode(1000);
  const Decision d = policy_.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kConfiguration);
  EXPECT_EQ(d.config_time, 10);
}

TEST_F(FullPolicyTest, FullReconfigurationWipesIdleNode) {
  const NodeId node = store_.AddNode(1000);
  (void)store_.Configure(node, ConfigId{0});  // idle with config 0
  // Task wants config 1; no idle entry for it, no blank nodes.
  const Decision d = policy_.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kFullReconfiguration);
  EXPECT_EQ(d.entry.node, node);
  // The node was wiped first: exactly one configuration remains.
  EXPECT_EQ(store_.node(node).config_count(), 1u);
  EXPECT_EQ(store_.node(node).Slot(d.entry.slot).config, ConfigId{1});
  EXPECT_TRUE(AuditsClean(store_));
}

TEST_F(FullPolicyTest, FullReconfigurationPrefersTightestNode) {
  const NodeId big = store_.AddNode(4000);
  const NodeId small = store_.AddNode(1000);
  (void)store_.Configure(big, ConfigId{0});
  (void)store_.Configure(small, ConfigId{0});
  const Decision d = policy_.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.kind, PlacementKind::kFullReconfiguration);
  EXPECT_EQ(d.entry.node, small);
}

TEST_F(FullPolicyTest, BusyNodesSuspendElseDiscard) {
  const NodeId node = store_.AddNode(1000);
  const EntryRef e = store_.Configure(node, ConfigId{0});
  store_.AssignTask(e, TaskId{99});
  const Decision suspend = policy_.Schedule(MakeTask(1, 500, TaskId{1}),
                                            store_);
  EXPECT_EQ(suspend.outcome, Outcome::kSuspend);

  // Nothing in the system can ever fit config 2 (800)? The busy node's
  // total (1000) can - still suspend. Use an 800 config with all nodes
  // smaller: rebuild scenario in a fresh store.
  ResourceStore tiny(MakeCatalogue({300, 500, 800}));
  const NodeId t = tiny.AddNode(600);
  const EntryRef te = tiny.Configure(t, ConfigId{0});
  tiny.AssignTask(te, TaskId{99});
  DreamSimPolicy policy(ReconfigMode::kFull);
  const Decision discard = policy.Schedule(MakeTask(2, 800, TaskId{1}), tiny);
  EXPECT_EQ(discard.outcome, Outcome::kDiscard);
}

TEST_F(FullPolicyTest, NamesReflectMode) {
  EXPECT_EQ(policy_.name(), "dreamsim-full");
  EXPECT_EQ(DreamSimPolicy(ReconfigMode::kPartial).name(), "dreamsim-partial");
}

TEST(PolicyEnums, ToStringCoverage) {
  EXPECT_EQ(ToString(ReconfigMode::kFull), "full");
  EXPECT_EQ(ToString(ReconfigMode::kPartial), "partial");
  EXPECT_EQ(ToString(PlacementKind::kAllocation), "allocation");
  EXPECT_EQ(ToString(PlacementKind::kConfiguration), "configuration");
  EXPECT_EQ(ToString(PlacementKind::kPartialConfiguration),
            "partial-configuration");
  EXPECT_EQ(ToString(PlacementKind::kPartialReconfiguration),
            "partial-reconfiguration");
  EXPECT_EQ(ToString(PlacementKind::kFullReconfiguration),
            "full-reconfiguration");
}

}  // namespace
}  // namespace dreamsim::sched

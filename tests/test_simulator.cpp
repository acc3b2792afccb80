// Tests for the Simulator facade: lifecycle correctness, accounting,
// determinism, suspension handling, and failure injection.
#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "audit_expect.hpp"

namespace dreamsim::core {
namespace {

SimulationConfig SmallConfig(int tasks = 200, int nodes = 10,
                             std::uint64_t seed = 42) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.configs.count = 8;
  config.tasks.total_tasks = tasks;
  config.seed = seed;
  return config;
}

TEST(Simulator, AllTasksReachTerminalState) {
  Simulator sim(SmallConfig());
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 200u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 200u);
  for (const resource::Task& t : sim.tasks().all()) {
    EXPECT_TRUE(t.state == resource::TaskState::kCompleted ||
                t.state == resource::TaskState::kDiscarded)
        << "task " << t.id.value() << " ended as " << ToString(t.state);
  }
}

TEST(Simulator, StoreConsistentAfterRun) {
  Simulator sim(SmallConfig(500, 20));
  (void)sim.Run();
  EXPECT_TRUE(AuditsClean(sim.store()));
  // No tasks left running anywhere.
  for (const resource::Node& n : sim.store().nodes()) {
    EXPECT_FALSE(n.busy());
  }
}

TEST(Simulator, CompletedTaskTimestampsAreCoherent) {
  Simulator sim(SmallConfig());
  (void)sim.Run();
  for (const resource::Task& t : sim.tasks().all()) {
    if (t.state != resource::TaskState::kCompleted) continue;
    EXPECT_GE(t.start_time, t.create_time);
    EXPECT_EQ(t.completion_time,
              t.start_time + t.comm_time + t.config_wait + t.required_time);
    EXPECT_GE(t.WaitingTime(), 0);
    EXPECT_TRUE(t.assigned_config.valid());
    EXPECT_TRUE(t.assigned_node.valid());
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  Simulator a(SmallConfig(300, 15, 7));
  Simulator b(SmallConfig(300, 15, 7));
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_EQ(ra.completed_tasks, rb.completed_tasks);
  EXPECT_EQ(ra.discarded_tasks, rb.discarded_tasks);
  EXPECT_EQ(ra.total_scheduler_workload, rb.total_scheduler_workload);
  EXPECT_EQ(ra.total_simulation_time, rb.total_simulation_time);
  EXPECT_DOUBLE_EQ(ra.avg_waiting_time_per_task, rb.avg_waiting_time_per_task);
  EXPECT_DOUBLE_EQ(ra.avg_wasted_area_per_task, rb.avg_wasted_area_per_task);
}

TEST(Simulator, DifferentSeedsDiffer) {
  Simulator a(SmallConfig(300, 15, 1));
  Simulator b(SmallConfig(300, 15, 2));
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_NE(ra.total_simulation_time, rb.total_simulation_time);
}

TEST(Simulator, SingleUseEnforced) {
  Simulator sim(SmallConfig(10));
  (void)sim.Run();
  EXPECT_THROW((void)sim.Run(), std::logic_error);
}

TEST(Simulator, ImpossibleTasksAreDiscardedNotLost) {
  // Node fabric smaller than every configuration: nothing can ever run.
  SimulationConfig config = SmallConfig(50, 5);
  config.nodes.min_area = 100;
  config.nodes.max_area = 150;
  config.configs.min_area = 200;
  config.configs.max_area = 400;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.discarded_tasks, 50u);
  EXPECT_EQ(report.completed_tasks, 0u);
}

TEST(Simulator, ZeroTasksRunsClean) {
  Simulator sim(SmallConfig(0));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 0u);
  EXPECT_EQ(report.total_simulation_time, 0);
}

TEST(Simulator, SuspensionQueueOverflowDiscards) {
  SimulationConfig config = SmallConfig(400, 2);
  config.suspension_capacity = 3;  // tiny queue under heavy saturation
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_GT(report.discarded_tasks, 0u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 400u);
}

TEST(Simulator, MaxSuspensionRetriesDiscards) {
  SimulationConfig config = SmallConfig(400, 2);
  config.max_suspension_retries = 1;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 400u);
}

TEST(Simulator, ArrivalBurstHandled) {
  SimulationConfig config = SmallConfig(500, 5);
  config.tasks.min_interval = 0;  // bursts: many tasks in the same tick
  config.tasks.max_interval = 1;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 500u);
}

TEST(Simulator, NetworkDelayEntersWaitingTime) {
  SimulationConfig with_net = SmallConfig(100, 50);
  with_net.tasks.min_data_size = 1000;
  with_net.tasks.max_data_size = 2000;
  with_net.network.bytes_per_tick = 10;
  with_net.network.base_latency = 5;
  Simulator sim(std::move(with_net));
  (void)sim.Run();
  bool saw_comm = false;
  for (const resource::Task& t : sim.tasks().all()) {
    if (t.state == resource::TaskState::kCompleted && t.comm_time > 0) {
      saw_comm = true;
      EXPECT_GE(t.comm_time, 5);
    }
  }
  EXPECT_TRUE(saw_comm);
}

TEST(Simulator, ConfigTimeZeroOnAllocationReuse) {
  // Plenty of nodes and few configs: after warmup, reuse dominates and
  // some tasks must start with zero configuration wait.
  SimulationConfig config = SmallConfig(300, 60);
  config.configs.count = 3;
  Simulator sim(std::move(config));
  (void)sim.Run();
  bool saw_reuse = false;
  for (const resource::Task& t : sim.tasks().all()) {
    if (t.state == resource::TaskState::kCompleted && t.config_wait == 0) {
      saw_reuse = true;
      break;
    }
  }
  EXPECT_TRUE(saw_reuse);
}

TEST(Simulator, CompletionHookFires) {
  Simulator sim(SmallConfig(50, 20));
  std::size_t completions = 0;
  Tick last = -1;
  sim.SetCompletionHook([&](TaskId, Tick now) {
    ++completions;
    EXPECT_GE(now, last);
    last = now;
  });
  const MetricsReport report = sim.Run();
  EXPECT_EQ(completions, report.completed_tasks);
}

TEST(Simulator, SubmitTaskAtFromHook) {
  Simulator sim(SmallConfig(5, 20));
  bool injected = false;
  sim.SetCompletionHook([&](TaskId, Tick now) {
    if (!injected) {
      injected = true;
      workload::GeneratedTask extra;
      extra.needed_area = 300;
      extra.required_time = 10;
      extra.preferred_config = ConfigId{0};
      (void)sim.SubmitTaskAt(extra, now + 1);
    }
  });
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 6u);  // 5 generated + 1 injected
}

TEST(Simulator, HeuristicPoliciesRunCleanly) {
  for (const PolicyChoice choice :
       {PolicyChoice::kFirstFit, PolicyChoice::kBestFit,
        PolicyChoice::kWorstFit, PolicyChoice::kRandomFit,
        PolicyChoice::kRoundRobin, PolicyChoice::kLeastLoaded}) {
    SimulationConfig config = SmallConfig(200, 10);
    config.policy = choice;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 200u)
        << "policy " << ToString(choice);
    EXPECT_TRUE(AuditsClean(sim.store())) << "policy " << ToString(choice);
  }
}

TEST(Simulator, MonitoringProducesUtilization) {
  SimulationConfig config = SmallConfig(300, 10);
  Simulator sim(std::move(config));
  (void)sim.Run();
  const rms::UtilizationReport& u = sim.utilization();
  EXPECT_GT(u.avg_running_tasks, 0.0);
  EXPECT_GT(u.peak_running_tasks, 0u);
}

class WasteAccountingTest
    : public ::testing::TestWithParam<WasteAccounting> {};

TEST_P(WasteAccountingTest, PartialWastesLessThanFull) {
  double waste[2];
  int i = 0;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    SimulationConfig config = SmallConfig(800, 20, 11);
    config.mode = mode;
    config.waste_accounting = GetParam();
    Simulator sim(std::move(config));
    waste[i++] = sim.Run().avg_wasted_area_per_task;
  }
  // The paper's headline claim (Fig. 6) must hold under every Eq. 6
  // *sampling* policy. kIdleConfigured can degenerate to 0 == 0 under
  // deep saturation (no configured node is ever idle), hence <=.
  EXPECT_LE(waste[1], waste[0]);
  if (GetParam() == WasteAccounting::kOnSchedule ||
      GetParam() == WasteAccounting::kTimeWeighted) {
    EXPECT_LT(waste[1], waste[0]);
  }
}

// kOnConfigure is intentionally absent: it charges waste per configuration
// event, and under the paper-faithful drain the full scenario configures
// rarely (Fig. 7), which inverts the comparison. DESIGN.md §4 discusses it.
INSTANTIATE_TEST_SUITE_P(SamplingPolicies, WasteAccountingTest,
                         ::testing::Values(WasteAccounting::kOnSchedule,
                                           WasteAccounting::kTimeWeighted,
                                           WasteAccounting::kIdleConfigured));

TEST(Simulator, ContiguousPlacementRunsConsistently) {
  // The fabric-placement extension: simulations complete and stores stay
  // consistent (including the layout/scalar-accounting agreement that the
  // auditor's fabric.layout check covers per node).
  for (const bool contiguous : {false, true}) {
    SimulationConfig config = SmallConfig(600, 15, 13);
    config.nodes.contiguous_placement = contiguous;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 600u);
    EXPECT_TRUE(AuditsClean(sim.store()));
  }
}

TEST(Simulator, ContiguousPlacementHeuristicsAllRun) {
  for (const auto placement :
       {resource::Placement::kFirstFit, resource::Placement::kBestFit,
        resource::Placement::kWorstFit}) {
    SimulationConfig config = SmallConfig(300, 10, 5);
    config.nodes.contiguous_placement = true;
    config.nodes.placement = placement;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 300u)
        << resource::ToString(placement);
    EXPECT_TRUE(AuditsClean(sim.store()));
  }
}

TEST(WasteAccountingOnConfigure, AccumulatesPerConfigurationEvent) {
  SimulationConfig config = SmallConfig(400, 20, 11);
  config.waste_accounting = WasteAccounting::kOnConfigure;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  // Sanity: some configurations happened and produced samples.
  EXPECT_GT(report.total_reconfigurations, 0u);
  EXPECT_GT(report.wasted_area_samples.count(), 0u);
  EXPECT_GE(report.avg_wasted_area_per_task, 0.0);
}

}  // namespace
}  // namespace dreamsim::core

// Tests for the replication runner and its summaries.
#include "core/replication.hpp"

#include <gtest/gtest.h>

namespace dreamsim::core {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.nodes.count = 10;
  config.configs.count = 6;
  config.tasks.total_tasks = 200;
  config.seed = 42;
  config.label = "rep-test";
  return config;
}

TEST(Replication, RunsRequestedCount) {
  const ReplicationReport report = RunReplications(SmallConfig(), 5);
  EXPECT_EQ(report.replications, 5u);
  EXPECT_EQ(report.runs.size(), 5u);
  for (const MetricsReport& run : report.runs) {
    EXPECT_EQ(run.total_tasks, 200u);
  }
}

TEST(Replication, SeedsAreIndependent) {
  const ReplicationReport report = RunReplications(SmallConfig(), 4);
  // Different derived seeds must produce different outcomes.
  bool any_difference = false;
  for (std::size_t i = 1; i < report.runs.size(); ++i) {
    if (report.runs[i].total_simulation_time !=
        report.runs[0].total_simulation_time) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Replication, DeterministicAcrossInvocations) {
  const ReplicationReport a = RunReplications(SmallConfig(), 3, 1);
  const ReplicationReport b = RunReplications(SmallConfig(), 3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.runs[i].total_simulation_time,
              b.runs[i].total_simulation_time);
    EXPECT_EQ(a.runs[i].total_scheduler_workload,
              b.runs[i].total_scheduler_workload);
  }
}

TEST(Replication, SummariesAggregateEveryRun) {
  const ReplicationReport report = RunReplications(SmallConfig(), 6);
  const MetricSummary& waiting = report.Metric("avg_waiting_time_per_task");
  EXPECT_EQ(waiting.stats.count(), 6u);
  EXPECT_GE(waiting.stats.max(), waiting.stats.min());
  EXPECT_GE(waiting.mean(), waiting.stats.min());
  EXPECT_LE(waiting.mean(), waiting.stats.max());
  EXPECT_GT(waiting.ci95_half_width(), 0.0);
}

TEST(Replication, SingleRunHasZeroCi) {
  const ReplicationReport report = RunReplications(SmallConfig(), 1);
  EXPECT_DOUBLE_EQ(
      report.Metric("avg_waiting_time_per_task").ci95_half_width(), 0.0);
}

TEST(Replication, UnknownMetricThrows) {
  const ReplicationReport report = RunReplications(SmallConfig(), 1);
  EXPECT_THROW((void)report.Metric("nope"), std::out_of_range);
}

TEST(Replication, ZeroReplicationsThrows) {
  EXPECT_THROW((void)RunReplications(SmallConfig(), 0),
               std::invalid_argument);
}

TEST(Replication, TableRendersEveryMetric) {
  const ReplicationReport report = RunReplications(SmallConfig(), 2);
  const std::string table = RenderReplicationTable(report);
  EXPECT_NE(table.find("avg_wasted_area_per_task"), std::string::npos);
  EXPECT_NE(table.find("total_scheduler_workload"), std::string::npos);
  EXPECT_NE(table.find("2 replications"), std::string::npos);
}

TEST(Replication, OrderingHoldsWithConfidence) {
  // The paper's headline claim, now with replications: partial waits less
  // than full with non-overlapping 95% intervals.
  SimulationConfig full_config = SmallConfig();
  full_config.mode = sched::ReconfigMode::kFull;
  SimulationConfig partial_config = SmallConfig();
  partial_config.mode = sched::ReconfigMode::kPartial;

  const ReplicationReport full = RunReplications(full_config, 8);
  const ReplicationReport partial = RunReplications(partial_config, 8);
  const MetricSummary& fw = full.Metric("avg_waiting_time_per_task");
  const MetricSummary& pw = partial.Metric("avg_waiting_time_per_task");
  EXPECT_GT(fw.mean() - fw.ci95_half_width(),
            pw.mean() + pw.ci95_half_width());
}

}  // namespace
}  // namespace dreamsim::core

// Tests for the RMS layer: resource information manager, job submission
// manager, monitoring module, and the load balancer.
#include <gtest/gtest.h>

#include "rms/job_manager.hpp"
#include "rms/load_balancer.hpp"
#include "rms/monitor.hpp"
#include "rms/resource_info.hpp"

namespace dreamsim::rms {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;

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

TEST(ResourceInformationManager, SnapshotAggregates) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(2000);
  (void)store.AddNode(4000);  // stays blank
  const EntryRef ea = store.Configure(a, ConfigId{0});
  store.AssignTask(ea, TaskId{1});
  (void)store.Configure(b, ConfigId{1});  // idle

  const ResourceInformationManager info(store);
  const SystemSnapshot snap = info.Snapshot(123);
  EXPECT_EQ(snap.at, 123);
  EXPECT_EQ(snap.total_nodes, 3u);
  EXPECT_EQ(snap.blank_nodes, 1u);
  EXPECT_EQ(snap.busy_nodes, 1u);
  EXPECT_EQ(snap.running_tasks, 1u);
  EXPECT_EQ(snap.total_fabric_area, 7000);
  EXPECT_EQ(snap.configured_area, 800);
  EXPECT_EQ(snap.wasted_area, 700 + 1500);
  EXPECT_NEAR(snap.area_utilization, 800.0 / 7000.0, 1e-12);
}

TEST(JobSubmissionManager, SubmitsArrivalsInOrder) {
  sim::Kernel kernel;
  resource::TaskStore tasks;
  JobSubmissionManager jobs(kernel, tasks);

  workload::Workload wl;
  for (int i = 1; i <= 3; ++i) {
    workload::GeneratedTask t;
    t.create_time = i * 10;
    t.needed_area = 100;
    t.required_time = 50;
    wl.push_back(t);
  }
  std::vector<std::pair<Tick, std::uint32_t>> arrivals;
  const std::size_t n = jobs.Submit(wl, [&](TaskId id) {
    arrivals.emplace_back(kernel.now(), id.value());
  });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(tasks.size(), 3u);
  (void)kernel.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (std::pair<Tick, std::uint32_t>{10, 0}));
  EXPECT_EQ(arrivals[2], (std::pair<Tick, std::uint32_t>{30, 2}));
  // Task records carry their creation times.
  EXPECT_EQ(tasks.Get(TaskId{1}).create_time, 20);
  EXPECT_EQ(tasks.Get(TaskId{1}).state, resource::TaskState::kCreated);
}

TEST(JobSubmissionManager, RejectsNullHandler) {
  sim::Kernel kernel;
  resource::TaskStore tasks;
  JobSubmissionManager jobs(kernel, tasks);
  EXPECT_THROW((void)jobs.Submit({}, nullptr), std::invalid_argument);
}

TEST(MonitoringModule, TimeWeightedUtilization) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId id = store.AddNode(1000);
  const ResourceInformationManager info(store);
  MonitoringModule monitor(info);

  monitor.Observe(0, 0);  // idle system
  const EntryRef e = store.Configure(id, ConfigId{0});
  store.AssignTask(e, TaskId{1});
  monitor.Observe(10, 2);  // busy from tick 10
  const UtilizationReport report = monitor.Finish(20);

  // Running tasks: 0 over [0,10), 1 over [10,20) -> average 0.5.
  EXPECT_NEAR(report.avg_running_tasks, 0.5, 1e-12);
  EXPECT_NEAR(report.avg_busy_nodes, 0.5, 1e-12);
  EXPECT_EQ(report.peak_running_tasks, 1u);
  EXPECT_EQ(report.peak_suspended_tasks, 2u);
  EXPECT_EQ(monitor.observations(), 2u);
  EXPECT_EQ(report.observed_until, 20);
}

TEST(LoadBalancer, MeasureOnEmptySystem) {
  ResourceStore store(MakeCatalogue({300}));
  const LoadBalancer lb(store);
  const LoadMetrics m = lb.Measure();
  EXPECT_DOUBLE_EQ(m.mean_running_tasks, 0.0);
  EXPECT_DOUBLE_EQ(m.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(m.fairness, 1.0);
}

TEST(LoadBalancer, MeasureDetectsImbalance) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId a = store.AddNode(2000);
  (void)store.AddNode(2000);
  const EntryRef e1 = store.Configure(a, ConfigId{0});
  store.AssignTask(e1, TaskId{1});
  const EntryRef e2 = store.Configure(a, ConfigId{0});
  store.AssignTask(e2, TaskId{2});

  const LoadBalancer lb(store);
  const LoadMetrics m = lb.Measure();
  EXPECT_DOUBLE_EQ(m.mean_running_tasks, 1.0);
  EXPECT_GT(m.imbalance, 0.9);
  EXPECT_LT(m.fairness, 0.75);
}

}  // namespace
}  // namespace dreamsim::rms

// The simulator-facing half of the bench harness (harness.hpp holds the
// util-only half): report identity, and the scan-vs-indexed comparison
// that bench_store_index and bench_sus_drain run over their own queries
// and scenarios.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/sim_config.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"

namespace dreamsim::bench {

/// Report identity: every paper-facing aggregate a gated feature or index
/// must leave bit-identical. The Table I metrics, the scheduling and
/// housekeeping step totals, the fault counters, and the placements by
/// kind, all compared with ==.
inline bool SameReport(const core::MetricsReport& a,
                       const core::MetricsReport& b) {
  bool same =
      a.completed_tasks == b.completed_tasks &&
      a.discarded_tasks == b.discarded_tasks &&
      a.suspended_ever == b.suspended_ever &&
      a.avg_wasted_area_per_task == b.avg_wasted_area_per_task &&
      a.avg_task_running_time == b.avg_task_running_time &&
      a.avg_reconfig_count_per_node == b.avg_reconfig_count_per_node &&
      a.avg_config_time_per_task == b.avg_config_time_per_task &&
      a.avg_waiting_time_per_task == b.avg_waiting_time_per_task &&
      a.avg_scheduling_steps_per_task == b.avg_scheduling_steps_per_task &&
      a.total_scheduler_workload == b.total_scheduler_workload &&
      a.scheduling_steps_total == b.scheduling_steps_total &&
      a.housekeeping_steps_total == b.housekeeping_steps_total &&
      a.total_simulation_time == b.total_simulation_time &&
      a.total_reconfigurations == b.total_reconfigurations &&
      a.failures_injected == b.failures_injected &&
      a.tasks_killed == b.tasks_killed;
  for (int k = 0; k < 5; ++k) {
    same = same && a.placements_by_kind[k] == b.placements_by_kind[k];
  }
  return same;
}

/// One query timed against the reference scan and the index, on identical
/// populations.
struct QueryPair {
  std::string name;
  std::function<void()> scan;
  std::function<void()> indexed;
};

/// Rows `<layer>.<query>` scan_ns / indexed_ns / speedup, one set per
/// pair, measured at `size` (a node count or a queue depth: `size_key`).
inline void TimeQueryPairs(Bench& bench, const std::string& layer,
                           const std::string& size_key, int size,
                           const std::vector<QueryPair>& pairs,
                           double min_seconds) {
  for (const QueryPair& pair : pairs) {
    const double scan_ns = NsPerCall(pair.scan, min_seconds);
    const double indexed_ns = NsPerCall(pair.indexed, min_seconds);
    const std::string query = layer + "." + pair.name;
    const Params params = {{size_key, size}};
    bench.Add({query, "scan_ns", scan_ns, "ns", params});
    bench.Add({query, "indexed_ns", indexed_ns, "ns", params});
    bench.Add({query, "speedup", scan_ns / indexed_ns, "x", params});
  }
}

/// One end-to-end scan-vs-indexed point.
struct IndexScenario {
  std::string name;
  sched::ReconfigMode mode;
  int nodes;
  int tasks;
  Tick max_interval;           // 0 = Table II default [1, 50]
  std::size_t queue_capacity;  // 0 = unbounded
};

/// Runs every scenario through a one-thread RunSweep (honest wall clock)
/// twice, with `index` off (the reference scans) and then on, and records
/// `<layer>` scan_seconds / indexed_seconds / speedup rows. Gates
/// `metrics_identical`: every report of both runs is SameReport.
inline void CompareScanIndexed(Bench& bench, const std::string& layer,
                               const std::vector<IndexScenario>& scenarios,
                               bool core::SimulationConfig::*index) {
  bool identical = true;
  for (const IndexScenario& scenario : scenarios) {
    core::SweepParams params;
    params.base.nodes.count = scenario.nodes;
    params.base.seed = 42;
    params.base.enable_monitoring = false;
    if (scenario.max_interval > 0) {
      params.base.tasks.max_interval = scenario.max_interval;
    }
    params.base.suspension_capacity = scenario.queue_capacity;
    params.task_counts = {scenario.tasks};
    params.modes = {scenario.mode};
    params.threads = 1;

    params.base.*index = false;
    double start = WallSeconds();
    const std::vector<core::MetricsReport> scan = core::RunSweep(params);
    const double scan_seconds = WallSeconds() - start;

    params.base.*index = true;
    start = WallSeconds();
    const std::vector<core::MetricsReport> indexed = core::RunSweep(params);
    const double indexed_seconds = WallSeconds() - start;

    bool same = scan.size() == indexed.size();
    for (std::size_t i = 0; same && i < scan.size(); ++i) {
      same = SameReport(scan[i], indexed[i]);
    }
    if (!same) std::cerr << "metrics diverged on " << scenario.name << "\n";
    identical = identical && same;
    const Params row_params = {
        {"scenario", scenario.name},
        {"mode", scenario.mode == sched::ReconfigMode::kFull ? "full"
                                                             : "partial"},
        {"nodes", scenario.nodes},
        {"tasks", scenario.tasks}};
    bench.Add({layer, "scan_seconds", scan_seconds, "s", row_params});
    bench.Add({layer, "indexed_seconds", indexed_seconds, "s", row_params});
    bench.Add({layer, "speedup", scan_seconds / indexed_seconds, "x",
               row_params});
  }
  bench.Check("metrics_identical", identical);
}

}  // namespace dreamsim::bench

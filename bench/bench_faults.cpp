// Fault-bookkeeping overhead smoke (DESIGN.md §10); writes
// BENCH_faults.json (docs/formats.md "Benchmark JSON").
//
// Fault injection must be pay-for-what-you-use: with the fault model
// disabled the simulator keeps its original zero-overhead paths, and with
// the model armed but never firing (astronomical MTBF) the extra
// bookkeeping — completion-handle tracking, per-node process events,
// terminal-task counting — must cost under 5% wall-clock at the paper's
// 200-node scale while leaving every paper-facing metric bit-identical to
// the disabled run. A third, actively failing run is reported for context.
#include <cstdint>
#include <string>

#include "core/simulator.hpp"
#include "sim_harness.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

SimulationConfig BaseConfig(int tasks) {
  SimulationConfig config;  // Table II: 200 nodes, 50 configs
  config.tasks.total_tasks = tasks;
  config.seed = 42;
  return config;
}

MetricsReport RunOnce(const SimulationConfig& config, double& seconds) {
  SimulationConfig copy = config;
  const double start = WallSeconds();
  Simulator sim(std::move(copy));
  MetricsReport report = sim.Run();
  seconds = WallSeconds() - start;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("faults", "Fault-bookkeeping overhead smoke",
              "CI smoke workload (fewer tasks, fewer reps)");
  if (const auto exit = bench.Start(argc, argv)) return *exit;

  const int tasks = bench.quick() ? 5000 : 20000;
  const int rounds = bench.quick() ? 3 : 5;
  constexpr double kOverheadBudgetPct = 5.0;

  // Baseline: fault model disabled — the original zero-overhead paths.
  // Armed but never firing: per-node MTBF far past any reachable tick, so
  // all the bookkeeping runs and no failure ever lands.
  SimulationConfig configs[2] = {BaseConfig(tasks), BaseConfig(tasks)};
  configs[1].faults.mtbf = 1e12;
  configs[1].faults.mttr = 1e6;
  MetricsReport report[2];
  const auto seconds = RunRounds(rounds, 2, [&](std::size_t i) {
    double s = 0.0;
    report[i] = RunOnce(configs[i], s);
    return s;
  });

  // Context: an actively failing-and-repairing run at the same scale.
  SimulationConfig active_config = BaseConfig(tasks);
  active_config.tasks.max_required_time = 5000;  // keep kills recoverable
  active_config.max_suspension_retries = 10;
  active_config.faults.mtbf = 200'000;
  active_config.faults.mttr = 20'000;
  double active_seconds = 0.0;
  const MetricsReport active = RunOnce(active_config, active_seconds);

  const Params params = {{"nodes", report[0].total_nodes}, {"tasks", tasks}};
  const double base = Min(seconds[0]);
  const double armed = Min(seconds[1]);
  bench.Add({"faults.disabled", "wall_seconds_min", base, "s", params});
  bench.Add({"faults.armed", "wall_seconds_min", armed, "s", params});
  // The gate keeps this bench's estimator: the overhead of the fastest
  // armed run over the fastest disabled run. The per-round paired rows
  // that follow are context.
  bench.AddGated({"faults.armed", "overhead_pct", OverheadPct(base, armed),
                  "%", params},
                 "overhead_pct", Op::kBelow, kOverheadBudgetPct);
  bench.AddOverhead("faults.armed", PairedOverheadPct(seconds[0], seconds[1]),
                    params);
  bench.Add({"faults.active", "wall_seconds", active_seconds, "s", params});
  struct Counter {
    const char* name;
    std::uint64_t value;
    const char* unit;
  };
  const Counter counters[] = {
      {"failures_injected", active.failures_injected, "count"},
      {"repairs_completed", active.repairs_completed, "count"},
      {"tasks_killed", active.tasks_killed, "count"},
      {"tasks_recovered", active.tasks_recovered, "count"},
      {"tasks_lost_to_failure", active.tasks_lost_to_failure, "count"},
      {"total_downtime", static_cast<std::uint64_t>(active.total_downtime),
       "ticks"}};
  for (const Counter& c : counters) {
    bench.Add({"faults.active", c.name, static_cast<double>(c.value), c.unit,
               params});
  }
  bench.Check("metrics_identical", SameReport(report[0], report[1]));
  return bench.Finish();
}

// Scale trajectory benchmark: the sequential indexed kernel in the CLI
// default configuration (monitoring on, on-schedule waste accounting,
// indexed store and drain) at growing fleet sizes; writes BENCH_scale.json
// (docs/formats.md "Benchmark JSON") so the trajectory toward a million
// nodes can be tracked across commits.
//
// Every point is `dreamsim --nodes N --tasks T` with all other flags at
// their defaults: 10k and 100k nodes by default, 1M behind --big. Each
// point runs twice; the faster run is reported and both must produce
// identical paper-facing metrics (the repeated-run determinism gate). The
// scheduler-phase breakdown of every point is captured with the
// PhaseProfiler (host wall time; never the WorkloadMeter).
//
// --replications R additionally runs R independent seeds concurrently
// through core::RunReplications: cores go to independent runs, never
// inside one.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/replication.hpp"
#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "sim_harness.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

/// The CLI default configuration (Table II workload, default seed) at the
/// given fleet size and task count.
SimulationConfig ScaleConfig(int nodes, int tasks) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.tasks.total_tasks = tasks;
  return config;
}

struct ScaleRun {
  double setup_seconds = 0.0;  // Simulator construction (node generation)
  double seconds = 0.0;        // Run()
  MetricsReport report;
};

ScaleRun RunScale(const SimulationConfig& config) {
  ScaleRun run;
  const double setup_start = WallSeconds();
  Simulator sim(config);
  run.setup_seconds = WallSeconds() - setup_start;
  const double start = WallSeconds();
  run.report = sim.Run();
  run.seconds = WallSeconds() - start;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("scale", "Default-configuration scale trajectory",
              "CI smoke grid (one 10k-node point)");
  bench.cli().AddBool("big", false, "add the 1M-node trajectory point");
  bench.cli().AddInt("replications", 0,
                     "also run R concurrent independent seeds (derived from "
                     "seed 42) and report aggregate tasks/second");
  if (const auto exit = bench.Start(argc, argv)) return *exit;
  const bool quick = bench.quick();
  const int replications = static_cast<int>(bench.cli().GetInt("replications"));

  struct Point {
    int nodes;
    int tasks;
  };
  std::vector<Point> points;
  if (quick) {
    points = {{10000, 30000}};
  } else {
    points = {{10000, 100000}, {100000, 100000}};
  }
  if (bench.cli().GetBool("big")) points.push_back({1000000, 100000});

  obs::PhaseProfiler::SetEnabled(true);
  bool repeat_identical = true;
  for (const Point& p : points) {
    const SimulationConfig config = ScaleConfig(p.nodes, p.tasks);
    const Params params = {{"nodes", p.nodes}, {"tasks", p.tasks}};
    // Best of two runs, so one noisy run cannot skew the trajectory; the
    // phase rows come from the first.
    obs::PhaseProfiler::Instance().Reset();
    const ScaleRun first = RunScale(config);
    const obs::PhaseProfiler& prof = obs::PhaseProfiler::Instance();
    for (std::size_t i = 0; i < obs::kProfPhaseCount; ++i) {
      const auto phase = static_cast<obs::ProfPhase>(i);
      const auto stats = prof.stats(phase);
      if (stats.calls == 0) continue;
      const std::string layer = Format("scale.phase.{}", obs::ToString(phase));
      bench.Add({layer, "calls", static_cast<double>(stats.calls), "count",
                 params});
      bench.Add({layer, "total_ns", static_cast<double>(stats.total_ns), "ns",
                 params});
    }
    const ScaleRun second = RunScale(config);
    const ScaleRun& best = second.seconds < first.seconds ? second : first;
    if (!SameReport(first.report, second.report)) {
      std::cerr << Format("repeated run diverged at {} nodes\n", p.nodes);
      repeat_identical = false;
    }
    bench.Add({"scale.trajectory", "setup_seconds", best.setup_seconds, "s",
               params});
    bench.Add({"scale.trajectory", "run_seconds", best.seconds, "s", params});
    bench.Add({"scale.trajectory", "completed_tasks",
               static_cast<double>(best.report.completed_tasks), "tasks",
               params});
    bench.Add({"scale.trajectory", "tasks_per_s",
               static_cast<double>(p.tasks) / best.seconds, "tasks/s",
               params});
  }
  // The PhaseProfiler is a process-wide singleton; concurrent kernels
  // would interleave their samples into one meaningless stream.
  obs::PhaseProfiler::SetEnabled(false);

  if (replications > 0) {
    const int nodes = quick ? 5000 : 20000;
    const int tasks = quick ? 8000 : 30000;
    const auto count = static_cast<std::size_t>(replications);
    const double start = WallSeconds();
    const core::ReplicationReport report = core::RunReplications(
        ScaleConfig(nodes, tasks), count, static_cast<unsigned>(count));
    const double wall = WallSeconds() - start;
    const double total_tasks =
        static_cast<double>(tasks) * static_cast<double>(count);
    const Params params = {
        {"replications", replications}, {"nodes", nodes}, {"tasks", tasks}};
    bench.Add({"scale.replications", "wall_seconds", wall, "s", params});
    bench.Add({"scale.replications", "total_tasks", total_tasks, "tasks",
               params});
    bench.Add({"scale.replications", "aggregate_tasks_per_s",
               total_tasks / wall, "tasks/s", params});
    for (const MetricsReport& run : report.runs) {
      bench.Add({"scale.replication", "completed_tasks",
                 static_cast<double>(run.completed_tasks), "tasks",
                 {{"seed", run.seed}, {"nodes", nodes}, {"tasks", tasks}}});
    }
  }

  bench.Check("repeat_identical", repeat_identical);
  return bench.Finish();
}

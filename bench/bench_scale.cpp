// Scale trajectory benchmark: the sequential indexed kernel in the CLI
// default configuration (monitoring on, on-schedule waste accounting,
// indexed store and drain) at growing fleet sizes, emitted as
// machine-readable JSON so the trajectory toward a million nodes can be
// tracked across commits.
//
// Every point is `dreamsim --nodes N --tasks T` with all other flags at
// their defaults: 10k and 100k nodes by default, 1M behind --big. Each
// point runs twice; the faster run is reported and both must produce
// identical paper-facing metrics (the repeated-run determinism gate). The
// scheduler-phase breakdown of every point is captured with the
// PhaseProfiler (host wall time; never the WorkloadMeter).
//
// --replications R additionally runs R independent seeds concurrently, one
// thread each: cores go to independent runs, never inside one.
//
// Output: BENCH_scale.json next to the executable (override with --out).
// --quick shrinks the grid for CI smoke runs. Exit status 1 unless every
// repeated run reproduced its metrics exactly.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fixed-point rendering (util::Format pads but has no precision specs).
std::string Fixed(double value, int precision) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

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
  const auto setup_start = Clock::now();
  Simulator sim(config);
  run.setup_seconds = SecondsSince(setup_start);
  const auto start = Clock::now();
  run.report = sim.Run();
  run.seconds = SecondsSince(start);
  return run;
}

/// The determinism contract, checked on the paper-facing aggregates.
bool MetricsIdentical(const MetricsReport& a, const MetricsReport& b) {
  bool same = a.scheduling_steps_total == b.scheduling_steps_total &&
              a.housekeeping_steps_total == b.housekeeping_steps_total &&
              a.total_scheduler_workload == b.total_scheduler_workload &&
              a.completed_tasks == b.completed_tasks &&
              a.discarded_tasks == b.discarded_tasks &&
              a.suspended_ever == b.suspended_ever &&
              a.total_reconfigurations == b.total_reconfigurations &&
              a.total_simulation_time == b.total_simulation_time &&
              a.avg_wasted_area_per_task == b.avg_wasted_area_per_task;
  for (int k = 0; k < 5; ++k) {
    same = same && a.placements_by_kind[k] == b.placements_by_kind[k];
  }
  return same;
}

struct TrajectoryRow {
  int nodes = 0;
  int tasks = 0;
  double setup_seconds = 0.0;
  double seconds = 0.0;
  std::uint64_t completed = 0;
  double tasks_per_second = 0.0;
  bool repeat_identical = true;
};

struct PhaseRow {
  std::string run;
  std::string phase;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

struct ReplicationRow {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::uint64_t completed = 0;
};

struct ReplicationSummary {
  int count = 0;
  double wall_seconds = 0.0;
  std::uint64_t total_tasks = 0;
  double aggregate_tasks_per_second = 0.0;
  std::vector<ReplicationRow> rows;
};

/// `count` independent replications of the same scenario under disjoint
/// seeds, run CONCURRENTLY (one std::thread each). The aggregate throughput
/// is total tasks over the whole wall-clock span — the "many seeds at once"
/// mode a parameter sweep actually runs in.
ReplicationSummary RunReplications(int count, int nodes, int tasks) {
  ReplicationSummary summary;
  summary.count = count;
  summary.rows.resize(static_cast<std::size_t>(count));
  // The PhaseProfiler is a process-wide singleton; concurrent kernels
  // would interleave their samples into one meaningless stream.
  obs::PhaseProfiler::SetEnabled(false);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  const auto start = Clock::now();
  for (int r = 0; r < count; ++r) {
    threads.emplace_back([&summary, r, nodes, tasks] {
      SimulationConfig config = ScaleConfig(nodes, tasks);
      config.seed = 42 + static_cast<std::uint64_t>(r);
      const ScaleRun run = RunScale(config);
      ReplicationRow& row = summary.rows[static_cast<std::size_t>(r)];
      row.seed = config.seed;
      row.seconds = run.seconds;
      row.completed = run.report.completed_tasks;
    });
  }
  for (std::thread& t : threads) t.join();
  summary.wall_seconds = SecondsSince(start);
  summary.total_tasks =
      static_cast<std::uint64_t>(tasks) * static_cast<std::uint64_t>(count);
  summary.aggregate_tasks_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.total_tasks) / summary.wall_seconds
          : 0.0;
  obs::PhaseProfiler::SetEnabled(true);
  return summary;
}

std::vector<PhaseRow> CapturePhases(const std::string& run) {
  std::vector<PhaseRow> rows;
  const obs::PhaseProfiler& prof = obs::PhaseProfiler::Instance();
  for (std::size_t i = 0; i < obs::kProfPhaseCount; ++i) {
    const auto phase = static_cast<obs::ProfPhase>(i);
    const auto stats = prof.stats(phase);
    if (stats.calls == 0) continue;
    rows.push_back(
        {run, std::string(obs::ToString(phase)), stats.calls, stats.total_ns});
  }
  return rows;
}

/// Directory of argv[0] (with trailing separator), so the JSON lands next
/// to the executable regardless of the caller's working directory.
std::string ExecutableDir(const char* argv0) {
  const std::string path(argv0 != nullptr ? argv0 : "");
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

[[nodiscard]] bool WriteJson(const std::string& path, bool quick, bool big,
                             const std::vector<TrajectoryRow>& trajectory,
                             const std::vector<PhaseRow>& phases,
                             const ReplicationSummary& reps,
                             bool repeat_identical) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"scale\",\n";
  out << Format("  \"quick\": {},\n", quick ? "true" : "false");
  out << Format("  \"big\": {},\n", big ? "true" : "false");
  out << Format("  \"hardware_threads\": {},\n",
                std::thread::hardware_concurrency());
  out << "  \"trajectory\": [\n";
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const TrajectoryRow& r = trajectory[i];
    out << Format(
        "    {{\"nodes\": {}, \"tasks\": {}, \"setup_seconds\": {}, "
        "\"seconds\": {}, \"completed_tasks\": {}, \"tasks_per_second\": {}, "
        "\"repeat_identical\": {}}}{}\n",
        r.nodes, r.tasks, Fixed(r.setup_seconds, 4), Fixed(r.seconds, 4),
        r.completed, Fixed(r.tasks_per_second, 1),
        r.repeat_identical ? "true" : "false",
        i + 1 < trajectory.size() ? "," : "");
  }
  out << "  ],\n";
  out << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRow& r = phases[i];
    out << Format(
        "    {{\"run\": \"{}\", \"phase\": \"{}\", \"calls\": {}, "
        "\"total_ns\": {}}}{}\n",
        r.run, r.phase, r.calls, r.total_ns,
        i + 1 < phases.size() ? "," : "");
  }
  out << "  ],\n";
  if (reps.count > 0) {
    out << "  \"replications\": {\n";
    out << Format("    \"count\": {},\n", reps.count);
    out << Format("    \"wall_seconds\": {},\n", Fixed(reps.wall_seconds, 4));
    out << Format("    \"total_tasks\": {},\n", reps.total_tasks);
    out << Format("    \"aggregate_tasks_per_second\": {},\n",
                  Fixed(reps.aggregate_tasks_per_second, 1));
    out << "    \"runs\": [\n";
    for (std::size_t i = 0; i < reps.rows.size(); ++i) {
      const ReplicationRow& r = reps.rows[i];
      out << Format(
          "      {{\"seed\": {}, \"seconds\": {}, \"completed_tasks\": "
          "{}}}{}\n",
          r.seed, Fixed(r.seconds, 4), r.completed,
          i + 1 < reps.rows.size() ? "," : "");
    }
    out << "    ]\n";
    out << "  },\n";
  }
  out << Format("  \"gate\": {{\"repeat_identical\": {}}}\n",
                repeat_identical ? "true" : "false");
  out << "}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Default-configuration scale trajectory; writes "
                "BENCH_scale.json");
  cli.AddBool("quick", false, "CI smoke grid (one 10k-node point)");
  cli.AddBool("big", false, "add the 1M-node trajectory point");
  cli.AddInt("replications", 0,
             "also run R concurrent independent seeds (42..42+R-1) and "
             "report aggregate tasks/second");
  cli.AddString("out", "", "output JSON path (default: next to the binary)");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  const bool quick = cli.GetBool("quick");
  const bool big = cli.GetBool("big");
  const int replications = static_cast<int>(cli.GetInt("replications"));
  std::string out_path = cli.GetString("out");
  if (out_path.empty()) {
    out_path = ExecutableDir(argv[0]) + "BENCH_scale.json";
  }

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
  if (big) points.push_back({1000000, 100000});

  obs::PhaseProfiler::SetEnabled(true);
  std::cout << "trajectory (sequential indexed kernel, CLI defaults)\n";
  std::vector<TrajectoryRow> trajectory;
  std::vector<PhaseRow> phases;
  bool repeat_identical = true;
  for (const Point& p : points) {
    const SimulationConfig config = ScaleConfig(p.nodes, p.tasks);
    // Best of two runs, so one noisy run cannot skew the trajectory; the
    // phase rows come from the first.
    obs::PhaseProfiler::Instance().Reset();
    const ScaleRun first = RunScale(config);
    const std::vector<PhaseRow> point_phases =
        CapturePhases(Format("indexed-{}n", p.nodes));
    phases.insert(phases.end(), point_phases.begin(), point_phases.end());
    const ScaleRun second = RunScale(config);
    const ScaleRun& best = second.seconds < first.seconds ? second : first;

    TrajectoryRow row;
    row.nodes = p.nodes;
    row.tasks = p.tasks;
    row.setup_seconds = best.setup_seconds;
    row.seconds = best.seconds;
    row.completed = best.report.completed_tasks;
    row.tasks_per_second =
        best.seconds > 0.0 ? static_cast<double>(p.tasks) / best.seconds : 0.0;
    row.repeat_identical = MetricsIdentical(first.report, second.report);
    repeat_identical = repeat_identical && row.repeat_identical;
    std::cout << Format("  {} nodes, {} tasks: setup {}s, run {}s ({} "
                        "tasks/s){}\n",
                        p.nodes, p.tasks, Fixed(row.setup_seconds, 3),
                        Fixed(row.seconds, 3), Fixed(row.tasks_per_second, 0),
                        row.repeat_identical ? "" : "  REPEAT DIVERGED");
    trajectory.push_back(row);
  }

  ReplicationSummary rep_summary;
  if (replications > 0) {
    const int rep_nodes = quick ? 5000 : 20000;
    const int rep_tasks = quick ? 8000 : 30000;
    std::cout << Format("\nreplications: {} concurrent seeds, {} nodes, "
                        "{} tasks each\n",
                        replications, rep_nodes, rep_tasks);
    rep_summary = RunReplications(replications, rep_nodes, rep_tasks);
    std::cout << Format("  {}s wall, {} tasks total ({} tasks/s aggregate)\n",
                        Fixed(rep_summary.wall_seconds, 3),
                        rep_summary.total_tasks,
                        Fixed(rep_summary.aggregate_tasks_per_second, 0));
  }

  if (!WriteJson(out_path, quick, big, trajectory, phases, rep_summary,
                 repeat_identical)) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  if (!repeat_identical) {
    std::cerr << "gate FAILED: a repeated run diverged (nondeterministic "
                 "kernel)\n";
    return 1;
  }
  return 0;
}

// Million-node scale-out benchmark for the sharded parallel simulation
// kernel (DESIGN.md §13), emitted as machine-readable JSON so the perf
// trajectory can be tracked across commits.
//
// Two layers:
//   1. Shard sweep: end-to-end Simulator wall-clock on a saturating
//      large-cluster workload, sequential scan kernel (shards=1) vs the
//      sharded scan kernel at K in {2, 4, 8}, plus a cross-check that the
//      paper-facing metrics (scheduling steps, scheduler workload,
//      placements) are bit-identical at every K — the determinism contract.
//   2. Trajectory: sharded-indexed runs at increasing scale toward the
//      million-node / ten-million-task point (--big runs the full point;
//      the default stops at 100k nodes so the bench stays minutes-scale).
//
// The scheduler-phase breakdown of the sequential and best sharded runs is
// captured with the PhaseProfiler (host wall time; never the
// WorkloadMeter).
//
// Output: BENCH_scale.json next to the executable (override with --out).
// --quick shrinks the grid for CI smoke runs. Exit status 1 unless every
// sharded run's metrics are bit-identical to sequential AND the best
// K >= 4 speedup is >= 1.0 (the CI gate; multi-core runners should see the
// fork-join win on top of the single-pass batching).
#include <algorithm>
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
#include "resource/shard_engine.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

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

/// A cluster saturated well past its concurrent capacity: arrivals every
/// tick, execution times longer than the arrival span, and a bounded
/// suspension queue. Decisions routinely fall through every scheduler
/// phase, which is exactly the regime where the O(N) phase walks dominate.
SimulationConfig ScaleConfig(int nodes, int tasks, std::size_t shards,
                             bool indexed) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.tasks.total_tasks = tasks;
  config.tasks.min_interval = 1;
  config.tasks.max_interval = 2;
  config.tasks.min_required_time = 50000;
  config.tasks.max_required_time = 100000;
  config.suspension_capacity = 256;
  config.max_suspension_retries = 6;
  config.scheduler_index = indexed;
  config.shards = shards;
  config.seed = 42;
  return config;
}

struct ScaleRun {
  double seconds = 0.0;
  std::size_t pool_threads = 1;  // actual ShardPool size (1 = sequential)
  MetricsReport report;
};

ScaleRun RunScale(const SimulationConfig& config) {
  Simulator sim(config);  // setup (node generation) outside the timer
  ScaleRun run;
  const resource::ShardEngine* engine = sim.store().shard_engine();
  run.pool_threads = engine != nullptr ? engine->threads() : 1;
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
              a.total_simulation_time == b.total_simulation_time;
  for (int k = 0; k < 5; ++k) {
    same = same && a.placements_by_kind[k] == b.placements_by_kind[k];
  }
  return same;
}

/// Best-of-`reps` wall time, so one noisy run cannot flip the speedup
/// gate. Also asserts repeated runs report identical metrics (determinism
/// across invocations, not just across shard counts).
ScaleRun RunBest(const SimulationConfig& config, int reps) {
  ScaleRun best = RunScale(config);
  for (int r = 1; r < reps; ++r) {
    const ScaleRun again = RunScale(config);
    if (!MetricsIdentical(best.report, again.report)) {
      std::cerr << "error: repeated run diverged (nondeterministic kernel)\n";
      std::exit(1);
    }
    if (again.seconds < best.seconds) best.seconds = again.seconds;
  }
  return best;
}

struct SweepRow {
  std::size_t shards = 1;
  double seconds = 0.0;
  double speedup = 1.0;
  bool metrics_identical = true;
};

struct TrajectoryRow {
  int nodes = 0;
  int tasks = 0;
  std::size_t shards = 1;
  double seconds = 0.0;
  std::uint64_t completed = 0;
  double tasks_per_second = 0.0;
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
/// seeds, run CONCURRENTLY (one std::thread each, shards=1 so the kernels
/// stay single-threaded and do not oversubscribe each other's pools). The
/// aggregate throughput is total tasks over the whole wall-clock span —
/// the "many seeds at once" mode a parameter sweep actually runs in.
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
      SimulationConfig config = ScaleConfig(nodes, tasks, 1, true);
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
                             int sweep_nodes, int sweep_tasks,
                             std::size_t kernel_threads, bool degraded,
                             const std::vector<SweepRow>& sweep,
                             const std::vector<TrajectoryRow>& trajectory,
                             const std::vector<PhaseRow>& phases,
                             const ReplicationSummary& reps,
                             bool identical, double gate_speedup) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"scale\",\n";
  out << Format("  \"quick\": {},\n", quick ? "true" : "false");
  out << Format("  \"big\": {},\n", big ? "true" : "false");
  out << Format("  \"hardware_threads\": {},\n",
                std::thread::hardware_concurrency());
  out << Format("  \"kernel_threads\": {},\n", kernel_threads);
  out << Format("  \"degraded\": {},\n", degraded ? "true" : "false");
  out << Format("  \"sweep_nodes\": {},\n", sweep_nodes);
  out << Format("  \"sweep_tasks\": {},\n", sweep_tasks);
  out << "  \"shard_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << Format(
        "    {{\"shards\": {}, \"seconds\": {}, \"speedup\": {}, "
        "\"metrics_identical\": {}}}{}\n",
        r.shards, Fixed(r.seconds, 4), Fixed(r.speedup, 3),
        r.metrics_identical ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
  }
  out << "  ],\n";
  out << "  \"trajectory\": [\n";
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const TrajectoryRow& r = trajectory[i];
    out << Format(
        "    {{\"nodes\": {}, \"tasks\": {}, \"shards\": {}, \"indexed\": "
        "true, \"seconds\": {}, \"completed_tasks\": {}, "
        "\"tasks_per_second\": {}}}{}\n",
        r.nodes, r.tasks, r.shards, Fixed(r.seconds, 4), r.completed,
        Fixed(r.tasks_per_second, 1), i + 1 < trajectory.size() ? "," : "");
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
  out << Format(
      "  \"gate\": {{\"metrics_identical\": {}, \"best_k4_speedup\": {}}}\n",
      identical ? "true" : "false", Fixed(gate_speedup, 3));
  out << "}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Sharded-kernel scale-out benchmark; writes BENCH_scale.json");
  cli.AddBool("quick", false, "CI smoke grid (20k-node sweep, short trajectory)");
  cli.AddBool("big", false,
              "run the 1M-node / 10M-task trajectory point (minutes-scale)");
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
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const bool degraded = hardware_threads <= 1;
  if (degraded) {
    // Loud on purpose: a 1-thread host runs the ShardPool broadcast as a
    // caller-only loop, so the sweep measures batching, not parallelism,
    // and the speedup numbers below MUST NOT be compared against
    // multi-core baselines.
    std::cerr << "=====================================================\n"
              << "WARNING: hardware_concurrency <= 1 — shard speedups on\n"
              << "this host do not reflect parallel scaling. BENCH_scale\n"
              << ".json is marked \"degraded\": true and the speedup gate\n"
              << "is skipped.\n"
              << "=====================================================\n";
  }
  // The saturating scenario discards tasks by design; keep the per-discard
  // warnings out of the bench output.
  Log::SetLevel(LogLevel::kError);
  std::string out_path = cli.GetString("out");
  if (out_path.empty()) {
    out_path = ExecutableDir(argv[0]) + "BENCH_scale.json";
  }

  // --- Layer 1: sequential-scan vs sharded-scan shard sweep --------------
  const int sweep_nodes = quick ? 20000 : 100000;
  const int sweep_tasks = quick ? 30000 : 150000;
  obs::PhaseProfiler::SetEnabled(true);

  std::cout << Format("shard sweep: {} nodes, {} tasks (scan kernel)\n",
                      sweep_nodes, sweep_tasks);
  const int reps = 2;  // best-of-2: one noisy run cannot flip the gate
  obs::PhaseProfiler::Instance().Reset();
  const ScaleRun seq =
      RunBest(ScaleConfig(sweep_nodes, sweep_tasks, 1, false), reps);
  std::vector<PhaseRow> phases = CapturePhases("scan-sequential");
  std::vector<SweepRow> sweep;
  sweep.push_back({1, seq.seconds, 1.0, true});
  std::cout << Format("  shards=1  {}s\n", Fixed(seq.seconds, 3));

  bool identical = true;
  double gate_speedup = 0.0;
  std::size_t kernel_threads = 1;
  std::vector<PhaseRow> best_phases;
  for (const std::size_t shards : {2u, 4u, 8u}) {
    obs::PhaseProfiler::Instance().Reset();
    const ScaleRun run =
        RunBest(ScaleConfig(sweep_nodes, sweep_tasks, shards, false), reps);
    kernel_threads = std::max(kernel_threads, run.pool_threads);
    SweepRow row;
    row.shards = shards;
    row.seconds = run.seconds;
    row.speedup = run.seconds > 0.0 ? seq.seconds / run.seconds : 0.0;
    row.metrics_identical = MetricsIdentical(seq.report, run.report);
    identical = identical && row.metrics_identical;
    if (shards >= 4 && row.speedup > gate_speedup) {
      gate_speedup = row.speedup;
      best_phases = CapturePhases(Format("scan-sharded-k{}", shards));
    }
    std::cout << Format("  shards={}  {}s  speedup {}x  metrics identical: {}\n",
                        shards, Fixed(run.seconds, 3), Fixed(row.speedup, 2),
                        row.metrics_identical ? "yes" : "NO");
    sweep.push_back(row);
  }
  phases.insert(phases.end(), best_phases.begin(), best_phases.end());

  // --- Layer 2: sharded-indexed trajectory toward 1M nodes / 10M tasks ---
  struct Point {
    int nodes;
    int tasks;
  };
  std::vector<Point> points;
  if (quick) {
    points = {{10000, 15000}};
  } else {
    points = {{10000, 30000}, {100000, 150000}};
  }
  if (big) points.push_back({1000000, 10000000});

  std::cout << "\ntrajectory (sharded-indexed kernel, K=8)\n";
  std::vector<TrajectoryRow> trajectory;
  for (const Point& p : points) {
    SimulationConfig config = ScaleConfig(p.nodes, p.tasks, 8, true);
    if (p.tasks >= 1000000) {
      // The million-node point needs completions to free capacity, or the
      // bounded queue discards the bulk of the workload.
      config.tasks.min_required_time = 2000;
      config.tasks.max_required_time = 20000;
    }
    // Each trajectory point gets its own phase rows: the indexed-sharded
    // breakdown is the one that actually scales toward 1M nodes, and
    // comparing it against the scan rows above is the point of the file.
    obs::PhaseProfiler::Instance().Reset();
    const ScaleRun run = RunScale(config);
    const std::vector<PhaseRow> point_phases =
        CapturePhases(Format("indexed-sharded-k8-{}n", p.nodes));
    phases.insert(phases.end(), point_phases.begin(), point_phases.end());
    TrajectoryRow row;
    row.nodes = p.nodes;
    row.tasks = p.tasks;
    row.shards = 8;
    row.seconds = run.seconds;
    row.completed = run.report.completed_tasks;
    row.tasks_per_second =
        run.seconds > 0.0 ? static_cast<double>(p.tasks) / run.seconds : 0.0;
    std::cout << Format("  {} nodes, {} tasks: {}s ({} tasks/s)\n", p.nodes,
                        p.tasks, Fixed(run.seconds, 3),
                        Fixed(row.tasks_per_second, 0));
    trajectory.push_back(row);
  }

  // --- Optional layer 3: concurrent independent replications -------------
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

  if (!WriteJson(out_path, quick, big, sweep_nodes, sweep_tasks,
                 kernel_threads, degraded, sweep, trajectory, phases,
                 rep_summary, identical, gate_speedup)) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  // On a 1-thread host the fork-join runs caller-only; the speedup gate
  // would measure noise, so only the determinism contract gates there.
  const bool gate_ok = identical && (degraded || gate_speedup >= 1.0);
  if (!gate_ok) {
    std::cerr << Format(
        "gate FAILED: metrics_identical={} best_k4_speedup={}\n",
        identical ? "true" : "false", Fixed(gate_speedup, 3));
  }
  return gate_ok ? 0 : 1;
}

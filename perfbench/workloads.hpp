// Benchmark workloads and their timed invocations (see README.md).
//
// Every workload runs the library's public API with SimulationConfig
// defaults — monitoring on, on-schedule waste accounting, the indexed store
// and drain, one shard — and changes only size, mode and node count.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/sim_config.hpp"
#include "core/simulator.hpp"

namespace perfbench {

namespace core = dreamsim::core;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SimulationConfig's own default seed, and the seed held out for
/// confirming later claims.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 2012;

/// Worker threads of the paper_sweep grid (fixed, so results compare
/// across hosts; hosts with fewer hardware threads are refused).
inline constexpr unsigned kSweepWorkers = 4;

enum class Size : std::uint8_t { kFull, kReduced };

struct Workload {
  std::string name;
  /// paper_sweep: the Fig. 6-10 grid through core::RunSweep.
  bool sweep = false;
  /// Single-run workloads: fleet size and task count.
  int nodes = 0;
  int tasks = 0;
  /// Inputs derived from one --seed; each run times every instance, so a
  /// run's figure averages over inputs instead of hanging on one draw.
  std::size_t instances = 1;
  /// paper_sweep axes.
  std::vector<int> sweep_nodes;
  std::vector<int> sweep_tasks;
};

[[nodiscard]] std::optional<Workload> FindWorkload(std::string_view name,
                                                   Size size);

/// Instance 0 simulates `seed` itself; the others derive from it.
[[nodiscard]] std::vector<std::uint64_t> InstanceSeeds(const Workload& w,
                                                       std::uint64_t seed);

/// One single-run invocation as the user waits for it: build the config,
/// construct the Simulator, generate, run and render the report.
struct Invocation {
  double wall_s = 0.0;
  double init_s = 0.0;      // Simulator construction
  double generate_s = 0.0;  // workload::GenerateWorkload
  double run_s = 0.0;       // RunWithWorkload
  double report_s = 0.0;    // table + CSV row + XML
  core::MetricsReport report;
  /// Kept alive for the untimed output check.
  std::unique_ptr<core::Simulator> sim;

  [[nodiscard]] double setup_s() const { return init_s + generate_s; }
};

/// Called between construction and the run (the traced run installs its
/// observers here).
using RunHook = std::function<void(core::Simulator&)>;

[[nodiscard]] Invocation InvokeSingle(const Workload& w, std::uint64_t seed,
                                      const RunHook& before_run = {});

/// One paper_sweep invocation: every grid point on `workers` threads, then
/// every point's report rendered.
struct SweepInvocation {
  double wall_s = 0.0;
  double report_s = 0.0;
  std::vector<core::MetricsReport> reports;  // node count, mode, tasks order
};

[[nodiscard]] SweepInvocation InvokeSweep(const Workload& w,
                                          std::uint64_t seed,
                                          unsigned workers);

/// The grid again, one single-point RunSweep per point on one worker;
/// returns each point's wall time (same order as SweepInvocation::reports).
[[nodiscard]] std::vector<double> SweepPointWalls(const Workload& w,
                                                  std::uint64_t seed);

/// Set-up of the grid's largest point: Simulator construction and
/// workload generation, as in Invocation.
struct SetupTimes {
  double init_s = 0.0;
  double generate_s = 0.0;
};
[[nodiscard]] SetupTimes SweepSetup(const Workload& w, std::uint64_t seed);

/// The report's CSV row (core::CsvReportRow), comma-joined: Table I
/// metrics plus the WorkloadMeter totals.
[[nodiscard]] std::string ReportRow(const core::MetricsReport& report);

/// FNV-1a 64 over ReportRow(r) + '\n' for every report, in order.
[[nodiscard]] std::uint64_t Digest(
    const std::vector<core::MetricsReport>& reports);

/// Untimed output checks; each returns "" when the output is correct.
/// Generated = completed + discarded, the generated count is the one asked
/// for, and the StructureAuditor end audit of the finished simulator is
/// clean.
[[nodiscard]] std::string CheckSingle(const Workload& w,
                                      const Invocation& inv);
/// Conservation on every point, plus the smallest task count of every
/// (node count, mode) series re-run on a Simulator of its own: same report
/// row as the sweep and a clean end audit.
[[nodiscard]] std::string CheckSweep(
    const Workload& w, std::uint64_t seed,
    const std::vector<core::MetricsReport>& reports);

[[nodiscard]] double Median(std::vector<double> values);

}  // namespace perfbench

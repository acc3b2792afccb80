#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "analysis/structure_auditor.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

namespace sched = dreamsim::sched;
namespace workload = dreamsim::workload;
using dreamsim::DeriveSeed;
using dreamsim::Rng;

/// The Simulator draws its own workload from this stream (simulator.cpp
/// kStreamWorkload); generating from it here gives the benchmark the exact
/// input the CLI simulates for the same flags.
constexpr std::uint64_t kWorkloadStream = 1;

/// Instance i > 0 of a run simulates DeriveSeed(seed, kInstanceStream + i),
/// cut to 31 bits so the dreamsim CLI's --seed flag can reproduce it.
constexpr std::uint64_t kInstanceStream = 0x9e7;
constexpr std::uint64_t kInstanceSeedMask = 0x7fffffff;

const std::vector<sched::ReconfigMode> kSweepModes = {
    sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};

/// Renders the report in every form the CLI offers (console table, CSV row,
/// XML document). Returns the rendered size so the work is observable.
std::size_t RenderReport(const core::MetricsReport& report) {
  std::ostringstream xml;
  core::WriteXmlReport(xml, report);
  const std::string table = core::RenderReportTable(report);
  const std::vector<std::string> row = core::CsvReportRow(report);
  return xml.str().size() + table.size() + row.size();
}

core::SimulationConfig BaseConfig(std::uint64_t seed, int nodes) {
  core::SimulationConfig config;
  config.seed = seed;
  config.nodes.count = nodes;
  return config;
}

core::SweepParams SweepParamsFor(const Workload& w, std::uint64_t seed,
                                 int nodes, unsigned workers) {
  core::SweepParams params;
  params.base = BaseConfig(seed, nodes);
  params.task_counts = w.sweep_tasks;
  params.modes = kSweepModes;
  params.threads = workers;
  return params;
}

/// Keeps rendered sizes observable without printing them.
volatile std::size_t g_render_sink = 0;

}  // namespace

std::optional<Workload> FindWorkload(std::string_view name, Size size) {
  const bool full = size == Size::kFull;
  Workload w;
  w.name = std::string(name);
  if (name == "table2_saturated") {
    w.nodes = 200;
    w.tasks = full ? 100000 : 5000;
    w.instances = 8;
  } else if (name == "wide_fleet") {
    w.nodes = full ? 10000 : 2000;
    w.tasks = full ? 30000 : 3000;
    w.instances = 4;
  } else if (name == "paper_sweep") {
    w.sweep = true;
    w.sweep_nodes = {100, 200};
    w.sweep_tasks = core::PaperTaskCounts(full ? 1.0 : 0.02);
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<std::uint64_t> InstanceSeeds(const Workload& w,
                                         std::uint64_t seed) {
  std::vector<std::uint64_t> seeds = {seed};
  for (std::size_t i = 1; i < w.instances; ++i) {
    seeds.push_back(DeriveSeed(seed, kInstanceStream + i) & kInstanceSeedMask);
  }
  return seeds;
}

Invocation InvokeSingle(const Workload& w, std::uint64_t seed,
                        const RunHook& before_run) {
  Invocation inv;
  const Clock::time_point start = Clock::now();
  core::SimulationConfig config = BaseConfig(seed, w.nodes);
  config.tasks.total_tasks = w.tasks;
  config.label = std::string(sched::ToString(config.mode));

  Clock::time_point t = Clock::now();
  inv.sim = std::make_unique<core::Simulator>(std::move(config));
  inv.init_s = SecondsSince(t);

  t = Clock::now();
  Rng rng(DeriveSeed(seed, kWorkloadStream));
  const workload::Workload input = workload::GenerateWorkload(
      inv.sim->config().tasks, inv.sim->store().configs(), rng);
  inv.generate_s = SecondsSince(t);

  if (before_run) before_run(*inv.sim);
  t = Clock::now();
  inv.report = inv.sim->RunWithWorkload(input);
  inv.run_s = SecondsSince(t);

  t = Clock::now();
  g_render_sink = g_render_sink + RenderReport(inv.report);
  inv.report_s = SecondsSince(t);
  inv.wall_s = SecondsSince(start);
  return inv;
}

SweepInvocation InvokeSweep(const Workload& w, std::uint64_t seed,
                            unsigned workers) {
  SweepInvocation inv;
  const Clock::time_point start = Clock::now();
  for (const int nodes : w.sweep_nodes) {
    std::vector<core::MetricsReport> reports =
        core::RunSweep(SweepParamsFor(w, seed, nodes, workers));
    for (core::MetricsReport& r : reports) inv.reports.push_back(std::move(r));
  }
  const Clock::time_point t = Clock::now();
  for (const core::MetricsReport& r : inv.reports) {
    g_render_sink = g_render_sink + RenderReport(r);
  }
  inv.report_s = SecondsSince(t);
  inv.wall_s = SecondsSince(start);
  return inv;
}

std::vector<double> SweepPointWalls(const Workload& w, std::uint64_t seed) {
  std::vector<double> walls;
  for (const int nodes : w.sweep_nodes) {
    for (const sched::ReconfigMode mode : kSweepModes) {
      for (const int tasks : w.sweep_tasks) {
        core::SweepParams params = SweepParamsFor(w, seed, nodes, 1);
        params.modes = {mode};
        params.task_counts = {tasks};
        const Clock::time_point t = Clock::now();
        const std::vector<core::MetricsReport> point = core::RunSweep(params);
        walls.push_back(SecondsSince(t));
      }
    }
  }
  return walls;
}

SetupTimes SweepSetup(const Workload& w, std::uint64_t seed) {
  core::SimulationConfig config = BaseConfig(
      seed, *std::max_element(w.sweep_nodes.begin(), w.sweep_nodes.end()));
  config.tasks.total_tasks =
      *std::max_element(w.sweep_tasks.begin(), w.sweep_tasks.end());
  SetupTimes times;
  Clock::time_point t = Clock::now();
  const core::Simulator sim(config);
  times.init_s = SecondsSince(t);
  t = Clock::now();
  Rng rng(DeriveSeed(seed, kWorkloadStream));
  const workload::Workload input =
      workload::GenerateWorkload(config.tasks, sim.store().configs(), rng);
  times.generate_s = SecondsSince(t);
  g_render_sink = g_render_sink + input.size();
  return times;
}

std::string ReportRow(const core::MetricsReport& report) {
  std::string row;
  for (const std::string& cell : core::CsvReportRow(report)) {
    if (!row.empty()) row += ',';
    row += cell;
  }
  return row;
}

std::uint64_t Digest(const std::vector<core::MetricsReport>& reports) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const core::MetricsReport& r : reports) {
    for (const char c : ReportRow(r) + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

namespace {

std::string CheckConservation(const core::MetricsReport& r, int tasks) {
  if (r.total_tasks != static_cast<std::uint64_t>(tasks)) {
    return r.label + ": generated " + std::to_string(r.total_tasks) +
           " tasks, asked for " + std::to_string(tasks);
  }
  if (r.completed_tasks + r.discarded_tasks != r.total_tasks) {
    return r.label + ": generated " + std::to_string(r.total_tasks) +
           " != completed " + std::to_string(r.completed_tasks) +
           " + discarded " + std::to_string(r.discarded_tasks);
  }
  return "";
}

std::string CheckAudit(const core::Simulator& sim) {
  const dreamsim::analysis::AuditReport audit = sim.AuditStructures();
  return audit.ok() ? "" : "end audit: " + audit.Render(3);
}

}  // namespace

std::string CheckSingle(const Workload& w, const Invocation& inv) {
  std::string error = CheckConservation(inv.report, w.tasks);
  if (error.empty()) error = CheckAudit(*inv.sim);
  return error;
}

std::string CheckSweep(const Workload& w, std::uint64_t seed,
                       const std::vector<core::MetricsReport>& reports) {
  const std::size_t per_series = w.sweep_tasks.size();
  if (reports.size() != w.sweep_nodes.size() * kSweepModes.size() * per_series) {
    return "sweep returned " + std::to_string(reports.size()) + " points";
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    std::string error =
        CheckConservation(reports[i], w.sweep_tasks[i % per_series]);
    if (!error.empty()) return error;
  }
  std::size_t series = 0;
  for (const int nodes : w.sweep_nodes) {
    for (const sched::ReconfigMode mode : kSweepModes) {
      const core::MetricsReport& swept = reports[series * per_series];
      ++series;
      core::SimulationConfig config = BaseConfig(seed, nodes);
      config.mode = mode;
      config.tasks.total_tasks = w.sweep_tasks.front();
      config.label = swept.label;
      core::Simulator sim(std::move(config));
      const core::MetricsReport rerun = sim.Run();
      if (ReportRow(rerun) != ReportRow(swept)) {
        return swept.label + ": sweep row differs from a standalone run";
      }
      std::string error = CheckAudit(sim);
      if (!error.empty()) return swept.label + ": " + error;
    }
  }
  return "";
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench

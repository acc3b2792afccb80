// dreamsim — command-line front end for the DReAMSim simulator.
//
// Single runs, full-vs-partial comparisons, and task-count sweeps from one
// binary, with every Table II parameter exposed as a flag and reports in
// console/CSV/XML form. Examples:
//
//   dreamsim                                  # one Table II run, console report
//   dreamsim --mode=full --tasks=20000        # one full-reconfiguration run
//   dreamsim --compare --xml=report           # both modes + XML reports
//   dreamsim --sweep --scale=0.2 --csv=out.csv
//   dreamsim --trace-in=workload.csv          # replay an external trace
//   dreamsim --policy=best-fit --contiguous   # baseline policy, fabric model
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "cli_flags.hpp"
#include "core/replication.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "scenario/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
#include "rms/detail_report.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dreamsim;

std::optional<core::PolicyChoice> ParsePolicy(const std::string& name) {
  for (const auto choice :
       {core::PolicyChoice::kDreamSim, core::PolicyChoice::kFirstFit,
        core::PolicyChoice::kBestFit, core::PolicyChoice::kWorstFit,
        core::PolicyChoice::kRandomFit, core::PolicyChoice::kRoundRobin,
        core::PolicyChoice::kLeastLoaded}) {
    if (name == core::ToString(choice)) return choice;
  }
  return std::nullopt;
}

std::optional<core::WasteAccounting> ParseAccounting(const std::string& name) {
  for (const auto accounting :
       {core::WasteAccounting::kOnSchedule, core::WasteAccounting::kOnConfigure,
        core::WasteAccounting::kTimeWeighted,
        core::WasteAccounting::kIdleConfigured}) {
    if (name == core::ToString(accounting)) return accounting;
  }
  return std::nullopt;
}

/// Runtime knobs shared by the flag and scenario paths: none of these are
/// scenario identity (they never change which file describes which
/// experiment), so they always come from flags.
void ApplyRuntimeKnobs(const CliParser& cli, core::SimulationConfig& config) {
  config.suspension_batch =
      static_cast<std::size_t>(cli.GetInt("suspension-batch"));
  config.max_suspension_retries =
      static_cast<std::uint32_t>(cli.GetInt("max-retries"));
  config.suspension_capacity =
      static_cast<std::size_t>(cli.GetInt("queue-capacity"));
  config.network.bytes_per_tick = cli.GetInt("net-bandwidth");
  config.network.base_latency = cli.GetInt("net-latency");
  config.network.max_jitter = cli.GetInt("net-jitter");
  config.faults.mtbf = cli.GetDouble("fault-mtbf");
  config.faults.mttr = cli.GetDouble("fault-mttr");
  config.faults.script = core::ParseFaultScript(cli.GetString("fault-script"));
  config.scheduler_index = cli.GetBool("scheduler-index");
  config.drain_index = cli.GetBool("drain-index");
  const auto audit = analysis::ParseAuditMode(cli.GetString("audit"));
  if (!audit) {
    throw std::invalid_argument(Format("unknown audit mode '{}' (want off|end|step)",
                                       cli.GetString("audit")));
  }
  config.audit = *audit;
  const auto accounting = ParseAccounting(cli.GetString("waste-accounting"));
  if (!accounting) {
    throw std::invalid_argument(Format("unknown waste accounting '{}'",
                                       cli.GetString("waste-accounting")));
  }
  config.waste_accounting = *accounting;
}

/// Flags whose meaning a scenario file owns; setting both is ambiguous and
/// rejected (the scenario hash must identify the experiment).
constexpr const char* kScenarioOwnedFlags[] = {
    "nodes",          "node-min-area",  "node-max-area",
    "configs",        "config-min-area", "config-max-area",
    "config-time-min", "config-time-max", "tasks",
    "interval-min",   "interval-max",   "time-min",
    "time-max",       "closest-match",  "closest-match-slowdown",
    "families",       "arrivals",       "contiguous",
    "placement",
};

core::SimulationConfig BuildScenarioConfig(const CliParser& cli) {
  const std::string path = cli.GetString("scenario");
  auto parsed = scenario::ParseScenarioFile(path);
  if (!parsed) {
    throw std::invalid_argument(Format("scenario '{}' is invalid:\n{}", path,
                                       scenario::Render(parsed.error())));
  }
  for (const char* flag : kScenarioOwnedFlags) {
    if (cli.WasSet(flag)) {
      throw std::invalid_argument(Format(
          "--{} conflicts with --scenario; set it in the scenario file",
          flag));
    }
  }
  core::SimulationConfig config = std::move(parsed->config);
  // Reproducibility and mode/policy may be varied per invocation without
  // editing the file: explicit flags override the scenario's declaration.
  if (cli.WasSet("seed")) {
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  }
  if (cli.WasSet("mode")) {
    const std::string mode = cli.GetString("mode");
    if (mode == "full") {
      config.mode = sched::ReconfigMode::kFull;
    } else if (mode == "partial") {
      config.mode = sched::ReconfigMode::kPartial;
    } else {
      throw std::invalid_argument(Format("unknown mode '{}'", mode));
    }
  }
  if (cli.WasSet("policy")) {
    const auto policy = ParsePolicy(cli.GetString("policy"));
    if (!policy) {
      throw std::invalid_argument(
          Format("unknown policy '{}'", cli.GetString("policy")));
    }
    config.policy = *policy;
  }
  ApplyRuntimeKnobs(cli, config);
  return config;
}

core::SimulationConfig BuildConfig(const CliParser& cli) {
  if (!cli.GetString("scenario").empty()) return BuildScenarioConfig(cli);
  core::SimulationConfig config;
  config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
  config.nodes.min_area = cli.GetInt("node-min-area");
  config.nodes.max_area = cli.GetInt("node-max-area");
  config.nodes.contiguous_placement = cli.GetBool("contiguous");
  config.configs.count = static_cast<int>(cli.GetInt("configs"));
  config.configs.min_area = cli.GetInt("config-min-area");
  config.configs.max_area = cli.GetInt("config-max-area");
  config.configs.min_config_time = cli.GetInt("config-time-min");
  config.configs.max_config_time = cli.GetInt("config-time-max");
  config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
  config.tasks.min_interval = cli.GetInt("interval-min");
  config.tasks.max_interval = cli.GetInt("interval-max");
  config.tasks.min_required_time = cli.GetInt("time-min");
  config.tasks.max_required_time = cli.GetInt("time-max");
  config.tasks.closest_match_fraction = cli.GetDouble("closest-match");
  config.tasks.unknown_min_area = config.configs.min_area;
  config.tasks.unknown_max_area = config.configs.max_area;
  config.closest_match_slowdown = cli.GetDouble("closest-match-slowdown");
  config.nodes.family_count = static_cast<int>(cli.GetInt("families"));
  config.configs.family_count = static_cast<int>(cli.GetInt("families"));
  ApplyRuntimeKnobs(cli, config);
  config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  const std::string arrivals = cli.GetString("arrivals");
  if (arrivals == "poisson") {
    config.tasks.arrivals = workload::ArrivalProcess::kPoisson;
  } else if (arrivals == "constant") {
    config.tasks.arrivals = workload::ArrivalProcess::kConstant;
  } else if (arrivals != "uniform") {
    throw std::invalid_argument(Format("unknown arrival process '{}'", arrivals));
  }

  const std::string mode = cli.GetString("mode");
  if (mode == "full") {
    config.mode = sched::ReconfigMode::kFull;
  } else if (mode != "partial") {
    throw std::invalid_argument(Format("unknown mode '{}'", mode));
  }

  const auto policy = ParsePolicy(cli.GetString("policy"));
  if (!policy) {
    throw std::invalid_argument(
        Format("unknown policy '{}'", cli.GetString("policy")));
  }
  config.policy = *policy;

  const std::string placement = cli.GetString("placement");
  if (placement == "best-fit") {
    config.nodes.placement = resource::Placement::kBestFit;
  } else if (placement == "worst-fit") {
    config.nodes.placement = resource::Placement::kWorstFit;
  } else if (placement != "first-fit") {
    throw std::invalid_argument(Format("unknown placement '{}'", placement));
  }
  return config;
}

/// Under --compare each mode writes its own file: "runs.json" becomes
/// "runs-full.json" / "runs-partial.json". Single runs keep the path as-is.
std::string PerModePath(const std::string& path, std::string_view mode,
                        bool multiple_modes) {
  if (!multiple_modes) return path;
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return Format("{}-{}", path, mode);
  }
  return Format("{}-{}{}", path.substr(0, dot), mode, path.substr(dot));
}

obs::TraceFormat RequireTraceFormat(const CliParser& cli) {
  const std::string name = cli.GetString("trace-format");
  const auto format = obs::ParseTraceFormat(name);
  if (!format) {
    throw std::invalid_argument(
        Format("unknown trace format '{}' (want jsonl|chrome)", name));
  }
  return *format;
}

obs::MetricsFormat RequireMetricsFormat(const CliParser& cli) {
  const std::string name = cli.GetString("metrics-format");
  const auto format = obs::ParseMetricsFormat(name);
  if (!format) {
    throw std::invalid_argument(
        Format("unknown metrics format '{}' (want json|prom)", name));
  }
  return *format;
}

/// Parses --explain: "all" (empty filter = every task) or a comma-separated
/// TaskId list.
std::vector<TaskId> ParseExplainTasks(const std::string& spec) {
  std::vector<TaskId> tasks;
  if (spec == "all") return tasks;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    if (token.empty()) {
      throw std::invalid_argument(
          "--explain wants 'all' or comma-separated task ids");
    }
    std::size_t consumed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value > 0xfffffffful) {
      throw std::invalid_argument(
          Format("--explain: '{}' is not a task id", token));
    }
    tasks.push_back(TaskId{static_cast<std::uint32_t>(value)});
    start = end + 1;
  }
  return tasks;
}

/// A report file named by a flag (empty = not wanted). It opens on
/// construction, before the run it reports on, so a bad path fails before
/// any work.
struct ReportFile {
  explicit ReportFile(std::string file_path) : path(std::move(file_path)) {
    if (path.empty()) return;
    out.open(path);
    if (!out) {
      throw std::runtime_error(Format("could not open {} for writing", path));
    }
  }
  [[nodiscard]] bool wanted() const { return !path.empty(); }
  /// Closes the file, checks that every write reached it, and says so.
  void Finish() {
    out.close();
    if (!out) throw std::runtime_error(Format("could not write {}", path));
    std::cout << "wrote " << path << "\n";
  }

  std::string path;
  std::ofstream out;
};

int RunSingleOrCompare(const CliParser& cli) {
  std::vector<sched::ReconfigMode> modes;
  if (cli.GetBool("compare")) {
    modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
  } else {
    modes = {BuildConfig(cli).mode};
  }

  ReportFile csv(cli.GetString("csv"));

  // Optional trace replay: one workload shared by all runs.
  std::optional<workload::Workload> trace;
  const std::string trace_in = cli.GetString("trace-in");
  if (!trace_in.empty()) {
    trace = workload::ReadTraceFile(trace_in);
    std::cout << "replaying " << trace->size() << " tasks from " << trace_in
              << "\n";
  }

  const std::string trace_out = cli.GetString("workload-trace-out");
  const std::string run_trace = cli.GetString("run-trace");
  const std::string timeline_out = cli.GetString("timeline-out");
  const obs::TraceFormat trace_format = RequireTraceFormat(cli);
  const bool profile = cli.GetBool("profile");
  if (profile) obs::PhaseProfiler::SetEnabled(true);
  const std::string metrics_out = cli.GetString("metrics-out");
  const obs::MetricsFormat metrics_format = RequireMetricsFormat(cli);
  const auto metrics_interval = static_cast<Tick>(cli.GetInt("metrics-interval"));
  const bool explain = cli.WasSet("explain");
  if (explain &&
      (run_trace.empty() || trace_format != obs::TraceFormat::kJsonl)) {
    throw std::invalid_argument(
        "--explain records ride the run trace: add --run-trace=FILE with "
        "--trace-format=jsonl");
  }
  const std::vector<TaskId> explain_tasks =
      explain ? ParseExplainTasks(cli.GetString("explain"))
              : std::vector<TaskId>{};
  // The registry is process-global: enable once, reset per run so each
  // report/snapshot covers exactly one run.
  const bool metrics_enabled = !metrics_out.empty() || explain;
  if (metrics_enabled) obs::MetricsRegistry::SetEnabled(true);

  std::vector<core::MetricsReport> reports;
  for (const auto mode : modes) {
    core::SimulationConfig config = BuildConfig(cli);
    config.mode = mode;
    config.label = config.scenario_name.empty()
                       ? std::string(sched::ToString(mode))
                       : Format("{}-{}", config.scenario_name,
                                sched::ToString(mode));

    if (!trace && !trace_out.empty() && !config.task_classes.empty()) {
      std::cerr << "warning: --workload-trace-out is ignored for "
                   "multi-class scenarios\n";
    } else if (!trace && !trace_out.empty()) {
      // Generate once, save, then replay the saved workload so the file is
      // exactly what the simulation consumed.
      Rng workload_rng(DeriveSeed(config.seed, 1));
      Rng catalogue_rng(DeriveSeed(config.seed, 2));
      const auto catalogue = resource::ConfigCatalogue::Generate(
          config.configs, ptype::Catalogue::Default(), catalogue_rng);
      trace = workload::GenerateWorkload(config.tasks, catalogue,
                                         workload_rng);
      workload::WriteTraceFile(trace_out, *trace);
      std::cout << "wrote " << trace_out << "\n";
    }

    const std::string mode_name(sched::ToString(mode));
    const std::string xml_prefix = cli.GetString("xml");
    ReportFile xml(xml_prefix.empty()
                       ? std::string{}
                       : Format("{}-{}.xml", xml_prefix, mode_name));
    ReportFile node_csv(cli.GetString("node-csv"));
    ReportFile config_csv(cli.GetString("config-csv"));
    core::Simulator simulator(std::move(config));

    // Observability taps (pure observers; paper metrics are unaffected).
    std::unique_ptr<obs::RunTracer> tracer;
    if (!run_trace.empty()) {
      const std::string path =
          PerModePath(run_trace, mode_name, modes.size() > 1);
      obs::RunTracer::RunInfo info;
      info.label = simulator.config().label;
      info.mode = mode_name;
      info.seed = simulator.config().seed;
      info.nodes = simulator.store().node_count();
      tracer = std::make_unique<obs::RunTracer>(path, trace_format,
                                                std::move(info));
      std::cout << "tracing run to " << path << " ("
                << obs::ToString(trace_format) << ")\n";
    }
    std::unique_ptr<obs::MetricsSnapshotWriter> metrics_writer;
    if (!metrics_out.empty()) {
      const std::string path =
          PerModePath(metrics_out, mode_name, modes.size() > 1);
      metrics_writer = std::make_unique<obs::MetricsSnapshotWriter>(
          path, metrics_format, metrics_interval);
      std::cout << "metrics to " << path << " ("
                << obs::ToString(metrics_format) << ")\n";
    }
    if (tracer || metrics_writer) {
      simulator.SetEventLogger(
          [&tracer, &metrics_writer](const core::SimEvent& event) {
            if (tracer) tracer->OnEvent(event);
            if (metrics_writer) metrics_writer->OnEvent(event);
          });
    }
    if (explain) {
      // RequireTraceFormat/--explain validation above guarantees a jsonl
      // tracer exists here.
      simulator.SetExplainObserver(
          [&tracer](const core::ExplainRecord& record) {
            tracer->OnExplain(record);
          },
          explain_tasks);
    }
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
    if (!timeline_out.empty()) {
      const std::string path =
          PerModePath(timeline_out, mode_name, modes.size() > 1);
      sampler = std::make_unique<obs::TimeSeriesSampler>(
          path, static_cast<Tick>(cli.GetInt("sample-interval")));
      simulator.SetStateObserver(
          [&sampler](const core::StateSample& sample) {
            sampler->Observe(sample);
          });
      std::cout << "sampling timeline to " << path << "\n";
    }
    if (profile) obs::PhaseProfiler::Instance().Reset();
    if (metrics_enabled) obs::MetricsRegistry::Instance().Reset();

    reports.push_back(trace ? simulator.RunWithWorkload(*trace)
                            : simulator.Run());
    const Tick end = simulator.kernel().now();
    if (metrics_enabled) {
      reports.back().metrics_block = obs::RenderMetricsBlock(
          obs::MetricsRegistry::Instance().TakeSnapshot());
    }
    if (tracer) tracer->Finish(end);
    if (metrics_writer) metrics_writer->Finish(end);
    if (sampler) sampler->Finish(end);
    if (profile) {
      std::cout << "\n[" << mode_name << "] "
                << obs::PhaseProfiler::Instance().Report();
    }
    if (xml.wanted()) {
      core::WriteXmlReport(xml.out, reports.back());
      xml.Finish();
    }
    if (node_csv.wanted()) {
      rms::WriteNodeCsv(node_csv.out, simulator.store());
      node_csv.Finish();
    }
    if (config_csv.wanted()) {
      rms::WriteConfigCsv(config_csv.out, simulator.store(),
                          reports.back().placements_per_config);
      config_csv.Finish();
    }
  }

  if (reports.size() == 1) {
    std::cout << core::RenderReportTable(reports.front());
  } else {
    std::cout << core::RenderComparisonTable(reports);
  }

  if (csv.wanted()) {
    core::WriteCsvReports(csv.out, reports);
    csv.Finish();
  }
  return 0;
}

/// Per-run traces/timelines only exist for single and --compare runs;
/// sweeps and replications run many simulators in parallel.
void WarnUnsupportedObs(const CliParser& cli, std::string_view where) {
  for (const std::string_view flag :
       {"run-trace", "timeline-out", "metrics-out", "explain"}) {
    if (!cli.GetString(flag).empty()) {
      std::cerr << "warning: --" << flag << " is ignored under --" << where
                << "\n";
    }
  }
}

int RunSweepMode(const CliParser& cli) {
  WarnUnsupportedObs(cli, "sweep");
  const bool profile = cli.GetBool("profile");
  if (profile) {
    // The profiler's counters are atomic, so parallel sweep workers can
    // share it; the report then aggregates the whole sweep.
    obs::PhaseProfiler::SetEnabled(true);
    obs::PhaseProfiler::Instance().Reset();
  }

  core::SweepParams params;
  params.base = BuildConfig(cli);
  params.task_counts = core::PaperTaskCounts(cli.GetDouble("scale"));
  params.modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
  params.threads = static_cast<unsigned>(cli.GetInt("threads"));
  params.replications = static_cast<std::size_t>(cli.GetInt("replications"));
  ReportFile csv(cli.GetString("csv"));

  if (params.replications > 1) {
    // Replicated grid: each point summarized over independent seeds.
    const auto points = core::RunReplicatedSweep(params);
    if (profile) {
      std::cout << "\n[sweep] " << obs::PhaseProfiler::Instance().Report();
    }
    std::vector<core::MetricsReport> all_runs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto mode = params.modes[i / params.task_counts.size()];
      const int tasks = params.task_counts[i % params.task_counts.size()];
      std::cout << Format("\n[{} tasks={}]\n", sched::ToString(mode), tasks)
                << core::RenderReplicationTable(points[i]);
      all_runs.insert(all_runs.end(), points[i].runs.begin(),
                      points[i].runs.end());
    }
    if (csv.wanted()) {
      core::WriteCsvReports(csv.out, all_runs);
      csv.Finish();
    }
    return 0;
  }

  const auto reports = core::RunSweep(params);
  if (profile) {
    std::cout << "\n[sweep] " << obs::PhaseProfiler::Instance().Report();
  }
  std::cout << core::RenderComparisonTable(reports);

  if (csv.wanted()) {
    core::WriteCsvReports(csv.out, reports);
    csv.Finish();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "dreamsim — task scheduling simulator for partially reconfigurable "
      "processing elements (IPDPSW 2012 reproduction).");
  tool::RegisterFlags(cli);
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  if (cli.GetBool("verbose")) Log::SetLevel(LogLevel::kDebug);

  try {
    if (cli.GetBool("scenario-print")) {
      const std::string path = cli.GetString("scenario");
      if (path.empty()) {
        throw std::invalid_argument("--scenario-print needs --scenario FILE");
      }
      const auto parsed = scenario::ParseScenarioFile(path);
      if (!parsed) {
        std::cerr << Format("scenario '{}' is invalid:\n{}", path,
                            scenario::Render(parsed.error()));
        return 1;
      }
      // The hash comment keeps the output parseable as a scenario itself.
      std::cout << Format("# scenario hash: {}\n",
                          scenario::ScenarioHash(*parsed))
                << scenario::CanonicalScenario(*parsed);
      return 0;
    }
    if (cli.GetBool("sweep")) return RunSweepMode(cli);  // owns --replications
    if (cli.GetInt("replications") > 1) {
      WarnUnsupportedObs(cli, "replications");
      const auto replications =
          static_cast<std::size_t>(cli.GetInt("replications"));
      const core::ReplicationReport report = core::RunReplications(
          BuildConfig(cli), replications,
          static_cast<unsigned>(cli.GetInt("threads")));
      std::cout << core::RenderReplicationTable(report);
      return 0;
    }
    return RunSingleOrCompare(cli);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

// The paper's evaluation (Figs. 6-10 and Table I) from one experiment: full
// vs partial reconfiguration at 100 and 200 nodes over the paper's task axis
// 1000, 10000 ... 100000, Table II parameters, one seed shared by both
// modes. The grid runs once; every figure and Table I read the same reports.
//
//   ./build/bench/paper_figures [--scale S] [--seed N] [--threads N] [--out DIR]
//
// The tables go to stdout. --out DIR also writes one CSV per figure
// (nodes,tasks,<series>_full,<series>_partial) and table1.csv; results/ holds
// these files at the defaults.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace {

using dreamsim::core::MetricsReport;

struct Series {
  const char* name;  // CSV columns <name>_full and <name>_partial
  double (*extract)(const MetricsReport&);
};

struct Figure {
  const char* file;  // CSV stem under --out
  const char* title;
  std::vector<int> node_counts;
  std::vector<Series> series;
};

// The paper shape each figure must show is asserted on the committed CSVs
// by tests/test_integration.cpp (CommittedFigures).
const std::vector<Figure> kFigures{
    {"fig06_wasted_area",
     "Fig. 6 — average wasted area per task",
     {100, 200},
     {{"wasted_area",
       [](const MetricsReport& r) { return r.avg_wasted_area_per_task; }}}},
    {"fig07_reconfig_count",
     "Fig. 7 — average reconfiguration count per node",
     {100, 200},
     {{"reconfig_count",
       [](const MetricsReport& r) { return r.avg_reconfig_count_per_node; }}}},
    {"fig08_waiting_time",
     "Fig. 8 — average waiting time per task",
     {100, 200},
     {{"waiting_time",
       [](const MetricsReport& r) { return r.avg_waiting_time_per_task; }}}},
    {"fig09_scheduler_effort",
     "Fig. 9 — scheduling steps per task (9a) and total scheduler workload "
     "(9b)",
     {200},
     {{"sched_steps",
       [](const MetricsReport& r) { return r.avg_scheduling_steps_per_task; }},
      {"total_workload",
       [](const MetricsReport& r) {
         return static_cast<double>(r.total_scheduler_workload);
       }}}},
    {"fig10_config_time",
     "Fig. 10 — average configuration time per task",
     {200},
     {{"config_time",
       [](const MetricsReport& r) { return r.avg_config_time_per_task; }}}},
};

constexpr int kTable1Nodes = 200;

}  // namespace

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli(
      "Figs. 6-10 and Table I: full vs partial reconfiguration at 100 and "
      "200 nodes over the paper's task axis, from one grid run.");
  cli.AddInt("seed", 42, "random seed shared by both modes");
  cli.AddDouble("scale", 1.0,
                "task-axis scale in (0, 1]; 1.0 = the paper's 1000..100000");
  cli.AddInt("threads", 0, "sweep worker threads (0 = hardware)", 0,
             tool::kMaxThreads);
  cli.AddString("out", "",
                "also write the figure CSVs and table1.csv into this "
                "directory");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  const double scale = cli.GetDouble("scale");
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::cerr << "error: --scale must be in (0, 1], got " << scale << "\n";
    return 1;
  }

  // Every output file opens before the grid runs, so a bad --out fails at
  // once: one per figure, then table1.csv.
  std::vector<std::string> paths;
  std::vector<std::ofstream> files;
  if (const std::string dir = cli.GetString("out"); !dir.empty()) {
    for (const Figure& figure : kFigures) {
      paths.push_back(Format("{}/{}.csv", dir, figure.file));
    }
    paths.push_back(Format("{}/table1.csv", dir));
    for (const std::string& path : paths) {
      files.emplace_back(path);
      if (!files.back()) {
        std::cerr << "error: could not open " << path << " for writing\n";
        return 1;
      }
    }
  }

  const std::vector<int> task_counts = core::PaperTaskCounts(scale);
  const std::size_t n = task_counts.size();
  // reports[nodes][m * n + t]: mode m (full, partial) at task_counts[t].
  std::map<int, std::vector<MetricsReport>> reports;
  for (const int nodes : {100, kTable1Nodes}) {
    core::SweepParams params;
    params.base.nodes.count = nodes;
    params.base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    params.task_counts = task_counts;
    params.modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
    params.threads = static_cast<unsigned>(cli.GetInt("threads"));
    reports[nodes] = core::RunSweep(params);
  }

  for (std::size_t f = 0; f < kFigures.size(); ++f) {
    const Figure& figure = kFigures[f];
    std::vector<std::string> csv_header{"nodes", "tasks"};
    std::string header = Format("{:>10}", "tasks");
    for (const Series& s : figure.series) {
      csv_header.push_back(Format("{}_full", s.name));
      csv_header.push_back(Format("{}_partial", s.name));
      header += Format("{:>24}{:>24}", Format("{}/full", s.name),
                       Format("{}/partial", s.name));
    }
    std::optional<CsvWriter> csv;
    if (!files.empty()) csv.emplace(files[f], csv_header);

    for (const int nodes : figure.node_counts) {
      std::cout << Format("\n=== {} ({} nodes) ===\n", figure.title, nodes)
                << header << "\n";
      for (std::size_t t = 0; t < n; ++t) {
        std::string line = Format("{:>10}", task_counts[t]);
        std::vector<std::string> row{Format("{}", nodes),
                                     Format("{}", task_counts[t])};
        for (const Series& s : figure.series) {
          const std::string full = Format("{}", s.extract(reports[nodes][t]));
          const std::string partial =
              Format("{}", s.extract(reports[nodes][n + t]));
          line += Format("{:>24}{:>24}", full, partial);
          row.push_back(full);
          row.push_back(partial);
        }
        std::cout << line << "\n";
        if (csv) csv->WriteRow(row);
      }
    }
  }

  // Table I is the 200-node pair at the largest task count, labelled by mode
  // as `dreamsim --compare` labels its runs, so table1.csv equals that
  // command's --csv byte for byte.
  std::vector<MetricsReport> table1{reports[kTable1Nodes][n - 1],
                                    reports[kTable1Nodes][2 * n - 1]};
  for (MetricsReport& r : table1) r.label = r.mode_name;
  std::cout << Format("\n=== Table I — every metric ({} nodes, {} tasks) ===\n",
                      kTable1Nodes, task_counts.back())
            << core::RenderComparisonTable(table1);
  if (!files.empty()) core::WriteCsvReports(files.back(), table1);

  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].close();
    if (!files[i]) {
      std::cerr << "error: could not write " << paths[i] << "\n";
      return 1;
    }
    std::cout << "wrote " << paths[i] << "\n";
  }
  return 0;
}

// Ablation: the paper claims DReAMSim "can be used to test different
// scheduling policies for a given set of parameters". This bench runs the
// case-study algorithm against every baseline policy on one identical
// workload and prints all Table I metrics side by side.
#include <iostream>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli(
      "Policy ablation: DReAMSim case-study algorithm vs baseline policies "
      "(all with partial reconfiguration semantics).");
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("tasks", 5000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed shared by all policies");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::vector<core::MetricsReport> reports;
  for (const auto choice :
       {core::PolicyChoice::kDreamSim, core::PolicyChoice::kFirstFit,
        core::PolicyChoice::kBestFit, core::PolicyChoice::kWorstFit,
        core::PolicyChoice::kRandomFit, core::PolicyChoice::kRoundRobin,
        core::PolicyChoice::kLeastLoaded}) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
    config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.mode = sched::ReconfigMode::kPartial;
    config.policy = choice;
    config.label = std::string(core::ToString(choice));
    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.Run());
  }

  std::cout << "=== Policy ablation (partial reconfiguration, "
            << cli.GetInt("tasks") << " tasks, " << cli.GetInt("nodes")
            << " nodes) ===\n"
            << core::RenderComparisonTable(reports);
  return 0;
}

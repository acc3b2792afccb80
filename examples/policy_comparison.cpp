// Scheduling-policy comparison example: "the task scheduling manager can
// implement different scheduling policies" (Sec. III). Runs the case-study
// algorithm and every baseline on one identical workload, prints a compact
// scoreboard, and reports the load-balance quality each policy achieved.
//
//   ./examples/policy_comparison [--nodes N] [--tasks N] [--seed S]
#include <iostream>

#include "core/simulator.hpp"
#include "rms/load_balancer.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli(
      "Compare the DReAMSim case-study scheduler against baseline policies "
      "on one identical workload.");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
  cli.AddInt("tasks", 3000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed (shared by all policies)");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::cout << Format("{:<14}{:>11}{:>11}{:>15}{:>15}{:>14}{:>11}\n", "policy",
                      "completed", "discarded", "avg_wait", "sim_time",
                      "reconf/node", "fairness");

  for (const auto choice :
       {core::PolicyChoice::kDreamSim, core::PolicyChoice::kFirstFit,
        core::PolicyChoice::kBestFit, core::PolicyChoice::kWorstFit,
        core::PolicyChoice::kRandomFit, core::PolicyChoice::kRoundRobin,
        core::PolicyChoice::kLeastLoaded}) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
    config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.policy = choice;

    core::Simulator simulator(std::move(config));
    const core::MetricsReport report = simulator.Run();

    // Load-balance quality at end of run (the extension the paper lists as
    // future work): Jain's fairness over cumulative per-node activity.
    const rms::LoadBalancer balancer(simulator.store());
    double fairness;
    {
      // Fairness over reconfiguration activity, since running tasks are
      // zero after the run drains.
      double sum = 0.0;
      double sum_sq = 0.0;
      for (const resource::Node& n : simulator.store().nodes()) {
        const auto x = static_cast<double>(n.reconfig_count());
        sum += x;
        sum_sq += x * x;
      }
      const auto count = static_cast<double>(simulator.store().node_count());
      fairness = sum_sq > 0.0 ? (sum * sum) / (count * sum_sq) : 1.0;
    }
    (void)balancer;

    std::cout << Format(
        "{:<14}{:>11}{:>11}{:>15}{:>15}{:>14}{:>11}\n",
        core::ToString(choice), report.completed_tasks,
        report.discarded_tasks,
        Format("{}", report.avg_waiting_time_per_task),
        report.total_simulation_time,
        Format("{}", report.avg_reconfig_count_per_node),
        Format("{}", fairness));
  }

  std::cout << "\nfairness = Jain's index over per-node reconfiguration "
               "activity (1 = perfectly even).\n";
  return 0;
}

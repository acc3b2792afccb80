// Ablation: suspension-queue knobs. DESIGN.md calls out the drain design
// (node-targeted, FIFO-first, bounded policy runs per completion) as a
// reproduction decision; this bench quantifies the sensitivity of the key
// metrics to the batch bound, retry budget, and queue capacity.
#include <iostream>

#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

dreamsim::core::MetricsReport RunWith(
    const dreamsim::CliParser& cli,
    void (*tweak)(dreamsim::core::SimulationConfig&, std::int64_t),
    std::int64_t value) {
  dreamsim::core::SimulationConfig config;
  config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
  config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
  config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  config.mode = dreamsim::sched::ReconfigMode::kPartial;
  tweak(config, value);
  dreamsim::core::Simulator simulator(std::move(config));
  return simulator.Run();
}

void PrintRow(const char* name, std::int64_t value,
              const dreamsim::core::MetricsReport& r) {
  std::cout << dreamsim::Format(
      "{:<22}{:>8}{:>14}{:>12}{:>18}{:>20}\n", name, value, r.completed_tasks,
      r.discarded_tasks, dreamsim::Format("{}", r.avg_waiting_time_per_task),
      r.total_scheduler_workload);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli("Suspension-queue ablation (partial reconfiguration).");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
  cli.AddInt("tasks", 4000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::cout << "=== Suspension-queue ablation ===\n";
  std::cout << Format("{:<22}{:>8}{:>14}{:>12}{:>18}{:>20}\n", "knob", "value",
                      "completed", "discarded", "avg_wait", "workload");

  for (const std::int64_t batch : {1, 4, 8, 32, 0}) {
    PrintRow("suspension_batch", batch,
             RunWith(cli,
                     [](core::SimulationConfig& c, std::int64_t v) {
                       c.suspension_batch = static_cast<std::size_t>(v);
                     },
                     batch));
  }
  for (const std::int64_t retries : {0, 1, 4, 64}) {
    PrintRow("max_retries", retries,
             RunWith(cli,
                     [](core::SimulationConfig& c, std::int64_t v) {
                       c.max_suspension_retries =
                           static_cast<std::uint32_t>(v);
                     },
                     retries));
  }
  for (const std::int64_t capacity : {0, 16, 256, 4096}) {
    PrintRow("queue_capacity", capacity,
             RunWith(cli,
                     [](core::SimulationConfig& c, std::int64_t v) {
                       c.suspension_capacity = static_cast<std::size_t>(v);
                     },
                     capacity));
  }
  std::cout << "\n(batch/capacity 0 = unbounded; retries 0 = never give up)\n";
  return 0;
}

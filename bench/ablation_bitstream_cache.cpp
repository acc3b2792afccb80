// Ablation: bitstream shipping and per-node caching (extension; DESIGN.md
// §6). With shipping enabled, every fresh configuration pays a network
// transfer of its BSize (Eq. 2); an LRU cache at each node skips repeats.
// Sweeps the cache capacity and reports hit rate and the waiting-time
// impact, in partial-reconfiguration mode.
#include <iostream>

#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli("Bitstream-cache ablation (shipping + LRU capacity sweep).");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
  cli.AddInt("tasks", 4000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed");
  cli.AddInt("bandwidth", 2000, "network bytes per tick");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::cout << "=== Bitstream-cache ablation (partial reconfiguration) ===\n";
  std::cout << Format("{:<16}{:>10}{:>10}{:>10}{:>18}{:>16}\n",
                      "cache (bytes)", "hits", "misses", "hit-rate",
                      "transfer ticks", "avg_wait");

  const auto run = [&](bool ship, Bytes capacity, const char* label) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
    config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.ship_bitstreams = ship;
    config.bitstream_cache_capacity = capacity;
    config.network.bytes_per_tick = cli.GetInt("bandwidth");
    core::Simulator simulator(std::move(config));
    const core::MetricsReport r = simulator.Run();
    const std::uint64_t lookups = r.bitstream_hits + r.bitstream_misses;
    std::cout << Format(
        "{:<16}{:>10}{:>10}{:>10}{:>18}{:>16}\n", label, r.bitstream_hits,
        r.bitstream_misses,
        lookups ? Format("{}", static_cast<double>(r.bitstream_hits) /
                                   static_cast<double>(lookups))
                : std::string("-"),
        static_cast<std::int64_t>(r.bitstream_transfer_time),
        Format("{}", r.avg_waiting_time_per_task));
  };

  run(false, 0, "no shipping");
  run(true, 0, "0 (no cache)");
  run(true, 200'000, "200k");
  run(true, 400'000, "400k");
  run(true, 800'000, "800k");
  run(true, 100'000'000, "unbounded");
  return 0;
}

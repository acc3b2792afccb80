// Scenario-pipeline throughput smoke; writes BENCH_scenario.json
// (docs/formats.md "Benchmark JSON").
//
// The scenario path runs before every simulation the daemon or sweep
// launches, so its three stages are gated on throughput floors: parsing a
// multi-class scenario text, the canonical re-serialization + FNV hash
// (the sweep/daemon cache key), and merged multi-class workload generation.
// The floors are deliberately loose — they catch an accidental
// quadratic-blowup or per-line allocation storm, not machine variance —
// and, like bench_metrics' hook gate, absolute throughput is only gated in
// optimized builds.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "resource/config.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "workload/task_classes.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;

/// A representative multi-class scenario: three device families, three
/// arrival shapes, chains, and per-class seeds — every grammar feature the
/// parser pays for.
constexpr std::string_view kScenarioText = R"(# bench_scenario input
simulation: {
  name: bench-scenario
  seed: 42
  mode: partial
}
configurations: {
  count: 50
  area: [200, 2000]
  config time: [10, 20]
}
device class: {
  name: big
  count: 120
  area: [2000, 4000]
}
device class: {
  name: little
  count: 80
  area: [1000, 2000]
}
task class: {
  name: steady
  count: 400
  interval: [1, 50]
  required time: [100, 20000]
}
task class: {
  name: bursty-web
  count: 300
  arrivals: bursty
  burst size: [4, 12]
  burst gap: [200, 800]
  interval: [1, 5]
  graph fraction: 0.3
  chain length: [2, 4]
  seed: 7
}
task class: {
  name: maintenance
  arrivals: windowed
  start time: 5000
  end time: 50000
  interval: [10, 40]
  priority: [1, 9]
}
)";

}  // namespace

int main(int argc, char** argv) {
  Bench bench("scenario", "Scenario-pipeline throughput smoke",
              "CI smoke workload (fewer iterations)");
  if (const auto exit = bench.Start(argc, argv)) return *exit;

  const bool quick = bench.quick();
  const int parse_iters = quick ? 200 : 2000;
  const int canon_iters = quick ? 500 : 5000;
  const int gen_iters = quick ? 20 : 100;
  const int rounds = quick ? 3 : 5;
  // Floors (ops/sec, gated in optimized builds only): a healthy build
  // clears them by well over an order of magnitude.
  constexpr double kParseFloor = 500.0;
  constexpr double kCanonFloor = 1000.0;
  constexpr double kGenTaskFloor = 50'000.0;  // generated tasks per second

  const scenario::ParseResult parsed = scenario::ParseScenario(kScenarioText);
  if (!parsed.has_value()) {
    std::cerr << "bench scenario does not parse:\n"
              << scenario::Render(parsed.error()) << "\n";
    return 1;
  }
  const scenario::ScenarioSpec& spec = parsed.value();
  const std::size_t classes = spec.config.task_classes.size();
  if (classes != 3) {
    std::cerr << "expected 3 task classes, got " << classes << "\n";
    return 1;
  }

  // The generation stage needs the configuration catalogue the classes
  // draw preferred configs from (the same one a run would synthesize).
  Rng catalogue_rng(spec.config.seed);
  const resource::ConfigCatalogue catalogue = resource::ConfigCatalogue::
      Generate(spec.config.configs, ptype::Catalogue::Default(),
               catalogue_rng);

  // One round runs the three stages in order; each stage's rate is its
  // best round (noise only ever slows a round down).
  std::size_t sink = 0;
  std::size_t tasks_per_gen = 0;
  const auto seconds = RunRounds(rounds, 3, [&](std::size_t stage) {
    const double start = CpuSeconds();
    if (stage == 0) {
      for (int i = 0; i < parse_iters; ++i) {
        sink += scenario::ParseScenario(kScenarioText).value().name.size();
      }
    } else if (stage == 1) {
      for (int i = 0; i < canon_iters; ++i) {
        sink += scenario::ScenarioHash(spec).size();
        sink += scenario::CanonicalScenario(spec).size();
      }
    } else {
      std::size_t generated = 0;
      for (int i = 0; i < gen_iters; ++i) {
        const workload::MultiClassWorkload wl =
            workload::GenerateMultiClassWorkload(
                spec.config.task_classes, catalogue,
                spec.config.seed + static_cast<std::uint64_t>(i));
        generated += wl.TotalTasks();
      }
      tasks_per_gen = generated / static_cast<std::size_t>(gen_iters);
    }
    return CpuSeconds() - start;
  });
  if (sink == 0) std::cerr << "";  // keep the stages observable

  struct Stage {
    const char* layer;
    const char* unit;
    double work;  // operations (or generated tasks) per round
    const char* gate;
    double floor;
  };
  const Stage stages[] = {
      {"scenario.parse", "ops/s", static_cast<double>(parse_iters),
       "parse_per_sec", kParseFloor},
      {"scenario.canonicalize", "ops/s", static_cast<double>(canon_iters),
       "canonicalize_per_sec", kCanonFloor},
      {"scenario.generate", "tasks/s",
       static_cast<double>(tasks_per_gen * static_cast<std::size_t>(gen_iters)),
       "generation_tasks_per_sec", kGenTaskFloor}};
  const Params params = {{"task_classes", classes},
                         {"tasks_per_generation", tasks_per_gen}};
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    const Row rate{stages[i].layer, "rate_best",
                   stages[i].work / Min(seconds[i]), stages[i].unit, params};
#ifdef NDEBUG
    bench.AddGated(rate, stages[i].gate, Op::kAtLeast, stages[i].floor);
#else
    bench.Add(rate);
#endif
  }
  return bench.Finish();
}

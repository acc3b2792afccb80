// Live-metrics overhead smoke (DESIGN.md §16); writes BENCH_metrics.json
// (docs/formats.md "Benchmark JSON").
//
// The metrics registry must be pay-for-what-you-use: with the registry
// disabled a hot-path hook is one relaxed atomic load plus a branch (gated
// at < 5 ns per hook in optimized builds), and each enablement step — the
// registry recording alone, and registry + interval JSONL snapshots to
// disk — must cost under 5% CPU on its own at the paper's 200-node scale
// while leaving every paper-facing metric bit-identical to the unobserved
// run (the §9 pure-observer contract).
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "sim_harness.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

SimulationConfig BaseConfig(int tasks) {
  SimulationConfig config;  // Table II: 200 nodes, 50 configs
  config.tasks.total_tasks = tasks;
  config.seed = 42;
  return config;
}

enum class MetricsLevel {
  kOff,        // registry disabled: the zero-overhead baseline
  kRegistry,   // registry enabled, no exposition (hooks record only)
  kSnapshots,  // registry + interval JSONL snapshots to disk
};

/// One CPU-timed run at the given level. Snapshot files go to
/// `scratch_prefix` and are deleted afterwards (only the timing matters).
MetricsReport RunOnce(const SimulationConfig& config, MetricsLevel level,
                      const std::string& scratch_prefix, double& seconds) {
  const std::string snap_path = scratch_prefix + ".metrics.jsonl";
  SimulationConfig copy = config;
  obs::MetricsRegistry::SetEnabled(level != MetricsLevel::kOff);
  obs::MetricsRegistry::Instance().Reset();
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  std::unique_ptr<obs::MetricsSnapshotWriter> writer;
  if (level == MetricsLevel::kSnapshots) {
    // The CLI's default snapshot cadence: one snapshot per ~75 tasks of
    // horizon on a Table II run, so the gate prices what users get.
    writer = std::make_unique<obs::MetricsSnapshotWriter>(
        snap_path, obs::MetricsFormat::kJson, Tick{10000});
    sim.SetEventLogger(
        [&writer](const core::SimEvent& e) { writer->OnEvent(e); });
  }
  const MetricsReport report = sim.Run();
  if (writer) writer->Finish(sim.kernel().now());
  seconds = CpuSeconds() - start;
  obs::MetricsRegistry::SetEnabled(false);
  obs::MetricsRegistry::Instance().Reset();
  if (writer) std::remove(snap_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("metrics", "Live-metrics overhead smoke",
              "CI smoke workload (fewer tasks, fewer reps)");
  if (const auto exit = bench.Start(argc, argv)) return *exit;

  // Quick mode keeps full-run round count: the gate is min-across-rounds,
  // and short rounds need MORE samples, not fewer, to shed runner noise.
  const int tasks = bench.quick() ? 5000 : 20000;
  const int rounds = 7;
  constexpr double kFeatureBudgetPct = 5.0;

  const SimulationConfig config = BaseConfig(tasks);
  struct Level {
    MetricsLevel level;
    const char* name;
  };
  constexpr Level kLevels[] = {{MetricsLevel::kOff, "off"},
                               {MetricsLevel::kRegistry, "registry"},
                               {MetricsLevel::kSnapshots, "snapshots"}};
  MetricsReport report[std::size(kLevels)];
  const std::string scratch_prefix = bench.out_path() + ".scratch";
  const auto seconds =
      RunRounds(rounds, std::size(kLevels), [&](std::size_t i) {
        double s = 0.0;
        report[i] = RunOnce(config, kLevels[i].level, scratch_prefix, s);
        return s;
      });

  const Params params = {{"nodes", report[0].total_nodes}, {"tasks", tasks}};
  bool identical = true;
  for (std::size_t i = 0; i < std::size(kLevels); ++i) {
    const std::string layer = Format("metrics.{}", kLevels[i].name);
    bench.Add({layer, "cpu_seconds_min", Min(seconds[i]), "s", params});
    if (i == 0) continue;
    identical = identical && SameReport(report[0], report[i]);
    bench.AddOverhead(layer, PairedOverheadPct(seconds[0], seconds[i]),
                      params, Format("{}_overhead_pct", kLevels[i].name),
                      kFeatureBudgetPct);
  }

  obs::MetricsRegistry::SetEnabled(false);
  const Row hook{"metrics.disabled_hook", "ns_per_call",
                 DisabledHookNs(
                     [] { obs::MetricInc(obs::MetricId::kEvqPushed); }),
                 "ns", {}};
  // The hook budget is an absolute latency, so it only means anything in
  // an optimized build; the relative gates hold anywhere.
#ifdef NDEBUG
  constexpr double kDisabledHookBudgetNs = 5.0;
  bench.AddGated(hook, "disabled_hook_ns", Op::kBelow, kDisabledHookBudgetNs);
#else
  bench.Add(hook);
#endif
  bench.Check("metrics_identical", identical);
  return bench.Finish();
}

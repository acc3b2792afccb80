// Observability overhead smoke (DESIGN.md §11); writes BENCH_obs.json
// (docs/formats.md "Benchmark JSON").
//
// The run-trace & telemetry layer must be pay-for-what-you-use: with every
// observability switch off the simulator keeps its original paths (the only
// residue is one relaxed atomic load per profiler hook), and each switch —
// JSONL event tracing to disk, interval time-series sampling — must cost
// under 5% CPU on its own at the paper's 200-node scale while leaving
// every paper-facing metric bit-identical to the unobserved run.
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
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
  // The state observer shares the monitor's per-event SystemSnapshot, so
  // this measures the observability layer's own cost (serialization +
  // sampling) rather than re-billing it for the snapshot the monitor
  // already takes.
  config.seed = 42;
  return config;
}

enum class ObsLevel {
  kOff,       // every switch off: the zero-overhead baseline
  kTracer,    // JSONL run tracer to disk (--run-trace)
  kSampler,   // time-series sampler to disk (--timeline-out)
  kFull,      // tracer + sampler together
  kProfiler,  // phase profiler only (two clock reads per timed scope)
};

/// One CPU-timed run at the given observability level. Trace artifacts go
/// to `scratch_prefix` and are deleted afterwards (only the timing
/// matters).
MetricsReport RunOnce(const SimulationConfig& config, ObsLevel level,
                      const std::string& scratch_prefix, double& seconds) {
  const std::string trace_path = scratch_prefix + ".trace.jsonl";
  const std::string timeline_path = scratch_prefix + ".timeline.csv";
  const bool trace = level == ObsLevel::kTracer || level == ObsLevel::kFull;
  const bool sample = level == ObsLevel::kSampler || level == ObsLevel::kFull;
  SimulationConfig copy = config;
  obs::PhaseProfiler::SetEnabled(level == ObsLevel::kProfiler);
  obs::PhaseProfiler::Instance().Reset();
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  std::unique_ptr<obs::RunTracer> tracer;
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  if (trace) {
    obs::RunTracer::RunInfo info;
    info.label = "bench_obs";
    info.mode = ToString(sim.config().mode);
    info.seed = sim.config().seed;
    info.nodes = sim.store().node_count();
    tracer = std::make_unique<obs::RunTracer>(trace_path,
                                              obs::TraceFormat::kJsonl, info);
    sim.SetEventLogger(
        [&tracer](const core::SimEvent& e) { tracer->OnEvent(e); });
  }
  if (sample) {
    sampler = std::make_unique<obs::TimeSeriesSampler>(timeline_path, 100);
    sim.SetStateObserver(
        [&sampler](const core::StateSample& s) { sampler->Observe(s); });
  }
  const MetricsReport report = sim.Run();
  if (tracer) tracer->Finish(sim.kernel().now());
  if (sampler) sampler->Finish(sim.kernel().now());
  seconds = CpuSeconds() - start;
  obs::PhaseProfiler::SetEnabled(false);
  if (trace) std::remove(trace_path.c_str());
  if (sample) std::remove(timeline_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("obs", "Observability overhead smoke",
              "CI smoke workload (fewer tasks, fewer reps)");
  if (const auto exit = bench.Start(argc, argv)) return *exit;

  const int tasks = bench.quick() ? 5000 : 20000;
  const int rounds = bench.quick() ? 3 : 7;
  // Each observability switch is independent and each must stay under 5%
  // CPU on its own; a disabled profiler hook must stay within a few ns
  // (one relaxed atomic load + branch — the "~0% disabled" claim). The
  // all-on run and the profiler-enabled run are context, ungated: the
  // former is roughly the sum of its parts, and precise per-phase timing
  // costs two steady_clock reads per scope by design — clock-read latency
  // is a property of the host, not of this code.
  constexpr double kFeatureBudgetPct = 5.0;

  const SimulationConfig config = BaseConfig(tasks);
  struct Level {
    ObsLevel level;
    const char* name;
    bool gated;
  };
  constexpr Level kLevels[] = {{ObsLevel::kOff, "off", false},
                               {ObsLevel::kTracer, "tracer", true},
                               {ObsLevel::kSampler, "sampler", true},
                               {ObsLevel::kFull, "full", false},
                               {ObsLevel::kProfiler, "profiler", false}};
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
    const std::string layer = Format("obs.{}", kLevels[i].name);
    bench.Add({layer, "cpu_seconds_min", Min(seconds[i]), "s", params});
    if (i == 0) continue;
    identical = identical && SameReport(report[0], report[i]);
    bench.AddOverhead(layer, PairedOverheadPct(seconds[0], seconds[i]), params,
                      kLevels[i].gated
                          ? Format("{}_overhead_pct", kLevels[i].name)
                          : "",
                      kFeatureBudgetPct);
  }

  obs::PhaseProfiler::SetEnabled(false);
  const Row hook{"obs.disabled_hook", "ns_per_call",
                 DisabledHookNs([] {
                   const obs::ScopedPhaseTimer t(obs::ProfPhase::kStoreQuery);
                 }),
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

// Structure-audit overhead smoke (DESIGN.md §12); writes BENCH_audit.json
// (docs/formats.md "Benchmark JSON").
//
// The auditor must be pay-for-what-you-use: with `--audit=off` the only
// residue on the simulator's hot path is one enum comparison per scheduler
// decision. That residue is not separable from runner noise directly, so
// the gate bounds it from above: an `--audit=end` run takes the identical
// hot path PLUS one full ground-truth reconstruction, and it must stay
// under 1% CPU of the off-mode baseline at the paper's 200-node scale.
// If end mode fits in 1%, the off-mode branch is far below noise.
//
// Step mode (a reconstruction after every decision) is reported as context
// and deliberately ungated — it is Debug-scale tooling, priced like a
// sanitizer, not a feature.
//
// Every mode must also leave the paper-facing metrics bit-identical: the
// auditor is read-only by construction and never charges the
// WorkloadMeter, and this bench is the executable proof.
#include <iostream>
#include <string>

#include "core/simulator.hpp"
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
  // A light fault mix keeps the fault-visibility checks on real work.
  config.faults.mtbf = 200'000;
  config.faults.mttr = 20'000;
  config.tasks.max_required_time = 3000;
  config.max_suspension_retries = 10;
  return config;
}

struct TimedRun {
  MetricsReport report;
  double seconds = 0.0;
  bool audit_clean = true;
};

TimedRun RunOnce(const SimulationConfig& config, analysis::AuditMode mode) {
  SimulationConfig copy = config;
  copy.audit = mode;
  TimedRun run;
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  run.report = sim.Run();
  run.seconds = CpuSeconds() - start;
  // Explicit end-state audit on every run (including off mode): this bench
  // doubles as a large-scale clean-run check for the auditor itself.
  const analysis::AuditReport audit = sim.AuditStructures();
  run.audit_clean = audit.ok();
  if (!audit.ok()) std::cerr << audit.Render(1) << "\n";
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench("audit", "Structure-audit overhead smoke",
              "CI smoke workload (fewer tasks, fewer reps)");
  if (const auto exit = bench.Start(argc, argv)) return *exit;

  const int tasks = bench.quick() ? 5000 : 20000;
  const int rounds = bench.quick() ? 3 : 7;
  constexpr double kEndBudgetPct = 1.0;

  const SimulationConfig config = BaseConfig(tasks);
  constexpr analysis::AuditMode kModes[] = {analysis::AuditMode::kOff,
                                            analysis::AuditMode::kEnd};
  TimedRun last[2];
  bool audits_clean = true;
  const auto seconds = RunRounds(rounds, 2, [&](std::size_t i) {
    last[i] = RunOnce(config, kModes[i]);
    audits_clean = audits_clean && last[i].audit_clean;
    return last[i].seconds;
  });
  // One step-mode run for context (ungated: Debug-scale tooling).
  const TimedRun step = RunOnce(config, analysis::AuditMode::kStep);
  audits_clean = audits_clean && step.audit_clean;

  const Params params = {{"nodes", last[0].report.total_nodes},
                         {"tasks", tasks}};
  bench.Add({"audit.off", "cpu_seconds_min", Min(seconds[0]), "s", params});
  bench.Add({"audit.end", "cpu_seconds_min", Min(seconds[1]), "s", params});
  bench.AddOverhead("audit.end", PairedOverheadPct(seconds[0], seconds[1]),
                    params, "end_overhead_pct", kEndBudgetPct);
  bench.Add({"audit.step", "cpu_seconds", step.seconds, "s", params});
  bench.Add({"audit.step", "overhead_pct",
             OverheadPct(Min(seconds[0]), step.seconds), "%", params});
  bench.Check("metrics_identical", SameReport(last[0].report, last[1].report) &&
                                       SameReport(last[0].report, step.report));
  bench.Check("audits_clean", audits_clean);
  return bench.Finish();
}

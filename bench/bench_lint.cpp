// Lint-engine throughput gate; writes BENCH_lint.json (docs/formats.md
// "Benchmark JSON").
//
// The engine runs on every CI push and on developer loops, so it must be
// effectively free: the gate requires a full-repo scan (src, tools,
// tests, bench — the same tree CI lints) to finish in under 2 seconds of
// wall clock, and the tree itself to be clean (zero findings — a dirty
// tree is a real finding, not a perf artifact, and fails here too so the
// snapshot numbers always describe a clean baseline).
//
// The finding-count snapshot (files scanned, rules run) rides along so a
// rule-set change that silently stops scanning half the tree shows up as
// a files/rules drop in the JSON diff, not as a mysteriously faster run.
// Exit status: 1 on findings or a budget breach, 2 on an engine error.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "lint/engine.hpp"

int main(int argc, char** argv) {
  using namespace dreamsim::bench;
  Bench bench("lint", "Lint-engine throughput gate",
              "accepted for harness uniformity; the full scan is the quick "
              "mode");
  bench.cli().AddString("root", DREAMSIM_REPO_ROOT, "repository root to scan");
  if (const auto exit = bench.Start(argc, argv)) return *exit;
  const std::string root = bench.cli().GetString("root");
  constexpr double kBudgetSeconds = 2.0;

  dreamsim::lint::RunResult result;
  const double begin = WallSeconds();
  try {
    result = dreamsim::lint::RunLint(root, {"src", "tools", "tests", "bench"});
  } catch (const std::exception& e) {
    std::cerr << "bench_lint: engine error: " << e.what() << "\n";
    return 2;
  }
  const double seconds = WallSeconds() - begin;

  const Params params = {{"root", root}};
  bench.AddGated({"lint.scan", "wall_seconds", seconds, "s", params},
                 "scan_seconds", Op::kBelow, kBudgetSeconds);
  const std::pair<const char*, std::size_t> counts[] = {
      {"files", result.files},
      {"rules", dreamsim::lint::BuiltinRules().size()},
      {"findings", result.findings.size()},
      {"errors", result.errors},
      {"warnings", result.warnings}};
  for (const auto& [name, count] : counts) {
    bench.Add({"lint.scan", name, static_cast<double>(count), "count", params});
  }
  const bool clean = result.errors == 0 && result.warnings == 0;
  if (!clean) {
    std::cerr << "bench_lint: tree is not clean; run dreamsim_lint for the "
                 "finding list\n";
  }
  bench.Check("clean", clean);
  return bench.Finish();
}

// The traced run: per-layer metrics of one workload (see README.md).
//
// Layer time is taken from outside the simulator: calls into each module's
// public functions are timed here, and the simulator's own PhaseProfiler
// and MetricsRegistry are read after the run. Nothing is added inside the
// program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output-check tally: one entry per checked invocation.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Record(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      failures.push_back(error);
    }
  }
};

/// Runs the traced pass of `w` and returns every per-layer metric, in the
/// order BENCHMARK.json lists them.
[[nodiscard]] std::vector<Metric> TraceWorkload(const Workload& w,
                                                std::uint64_t seed,
                                                CheckTally& tally);

}  // namespace perfbench

// Flag set of the dreamsim tool, shared by the tool and its parser tests.
//
// Every integer flag that the tool narrows to a smaller type declares the
// range of that type (or a tighter one its meaning needs), so an
// out-of-range value is a parse error naming the flag, never a wrapped
// count. The sampling intervals must be positive.
#pragma once

#include <cstdint>
#include <limits>

#include "util/cli.hpp"

namespace dreamsim::tool {

inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
/// Each replication and each worker is a whole simulation; these bounds
/// keep a typo from asking for millions of runs or OS threads.
inline constexpr std::int64_t kMaxReplications = 1'000'000;
inline constexpr std::int64_t kMaxThreads = 1024;

inline void RegisterFlags(CliParser& cli) {
  // Resources (Table II).
  cli.AddInt("nodes", 200, "number of reconfigurable nodes", 0, kIntMax);
  cli.AddInt("node-min-area", 1000, "node TotalArea lower bound");
  cli.AddInt("node-max-area", 4000, "node TotalArea upper bound");
  cli.AddInt("configs", 50, "number of processor configurations", 0,
             kIntMax);
  cli.AddInt("config-min-area", 200, "configuration ReqArea lower bound");
  cli.AddInt("config-max-area", 2000, "configuration ReqArea upper bound");
  cli.AddInt("config-time-min", 10, "t_config lower bound (ticks)");
  cli.AddInt("config-time-max", 20, "t_config upper bound (ticks)");
  // Workload (Table II).
  cli.AddInt("tasks", 10000, "number of generated tasks", 0, kIntMax);
  cli.AddInt("interval-min", 1, "min inter-arrival gap (ticks)");
  cli.AddInt("interval-max", 50, "max inter-arrival gap (ticks)");
  cli.AddInt("time-min", 100, "min t_required (ticks)");
  cli.AddInt("time-max", 100000, "max t_required (ticks)");
  cli.AddDouble("closest-match", 0.15,
                "fraction of tasks whose C_pref is not in the catalogue");
  cli.AddDouble("closest-match-slowdown", 1.0,
                "execution-time multiplier on closest-match configurations");
  cli.AddInt("families", 1,
             "device families (bitstream compatibility; 1 = universal)", 1,
             kIntMax);
  cli.AddString("arrivals", "uniform", "arrival process: uniform|poisson|constant");
  // Scheduling.
  cli.AddString("mode", "partial", "reconfiguration mode: partial|full");
  cli.AddString("policy", "dreamsim",
                "dreamsim|first-fit|best-fit|worst-fit|random-fit|"
                "round-robin|least-loaded");
  cli.AddInt("suspension-batch", 8, "policy re-runs per completion (0=all)",
             0);
  cli.AddInt("max-retries", 0, "suspension retries before discard (0=inf)",
             0, std::numeric_limits<std::uint32_t>::max());
  cli.AddInt("queue-capacity", 0, "suspension queue bound (0=unbounded)", 0);
  // Extensions.
  cli.AddBool("contiguous", false, "contiguous-placement fabric model");
  cli.AddString("placement", "first-fit",
                "hole heuristic under --contiguous: first-fit|best-fit|worst-fit");
  // Network.
  cli.AddInt("net-bandwidth", 0, "payload bytes per tick (0 = no comm delay)");
  cli.AddInt("net-latency", 0, "base link latency (ticks)");
  cli.AddInt("net-jitter", 0, "max uniform jitter (ticks)");
  // Fault injection (disabled by default; paper figures are fault-free).
  cli.AddDouble("fault-mtbf", 0.0,
                "mean ticks between node failures (0 = no random failures)");
  cli.AddDouble("fault-mttr", 0.0,
                "mean ticks to repair a failed node (0 = failures are "
                "permanent)");
  cli.AddString("fault-script", "",
                "scripted fault events 'tick:node:fail|repair', "
                "comma-separated");
  // Metrics / output.
  cli.AddString("waste-accounting", "on-schedule",
                "on-schedule|on-configure|time-weighted|idle-configured");
  // Performance.
  cli.AddBool("scheduler-index", true,
              "O(log N) indexed scheduler queries (identical decisions and "
              "metrics; off = literal counted scans)");
  cli.AddBool("drain-index", true,
              "O(log Q) indexed suspension-queue drain (identical decisions "
              "and metrics; off = literal counted scans)");
  // Correctness tooling (DESIGN.md §12).
  cli.AddString("audit", "off",
                "structure-invariant audit: off|end (once at end of run)|"
                "step (after every scheduler decision; slow)");
  cli.AddString("csv", "", "write run/sweep rows to this CSV file");
  cli.AddString("xml", "", "write XML report(s) with this path prefix");
  cli.AddString("node-csv", "", "write the per-node detail report here");
  cli.AddString("config-csv", "",
                "write the per-configuration detail report here");
  cli.AddInt("replications", 1,
             "run N independent replications and report mean/ci95", 1,
             kMaxReplications);
  cli.AddString("trace-in", "", "replay this workload trace instead of generating");
  cli.AddString("workload-trace-out", "",
                "save the generated workload as a replayable trace");
  // Observability (DESIGN.md §11; all off by default, pure observers).
  cli.AddString("run-trace", "",
                "write a per-event run trace to this path (see --trace-format)");
  cli.AddString("trace-format", "jsonl",
                "run-trace format: jsonl|chrome (chrome://tracing JSON)");
  cli.AddString("timeline-out", "",
                "write an interval-sampled system-state time series (CSV)");
  cli.AddInt("sample-interval", 100, "timeline sampling interval (ticks)", 1);
  cli.AddString("metrics-out", "",
                "write live metrics-registry snapshots to this path (see "
                "--metrics-format)");
  cli.AddString("metrics-format", "json",
                "metrics output format: json (tick-interval JSONL snapshots)"
                "|prom (final Prometheus text exposition)");
  cli.AddInt("metrics-interval", 10000,
             "ticks between JSONL metric snapshots (json format only)", 1);
  cli.AddString("explain", "",
                "comma-separated TaskIds whose scheduling decisions are "
                "recorded as explain records in the jsonl --run-trace "
                "('all' = every task)");
  cli.AddBool("profile", false,
              "profile scheduler phases (host wall time; report on stdout)");
  // Scenario files (docs/formats.md).
  cli.AddString("scenario", "",
                "drive the run from this scenario file (device/task class "
                "blocks); structural flags then conflict, runtime knobs "
                "still apply");
  cli.AddBool("scenario-print", false,
              "print the canonical form and stable hash of --scenario, "
              "then exit");
  // Modes of operation.
  cli.AddBool("compare", false, "run both reconfiguration modes side by side");
  cli.AddBool("sweep", false, "task-count sweep (Fig. 6-10 style)");
  cli.AddDouble("scale", 0.1, "sweep task-axis scale (1.0 = 1000..100000)");
  cli.AddInt("threads", 0, "sweep worker threads (0 = hardware)", 0,
             kMaxThreads);
  // Misc.
  cli.AddInt("seed", 42, "random seed");
  cli.AddBool("verbose", false, "log scheduling decisions (very chatty)");
}

}  // namespace dreamsim::tool

// perfbench_driver: times one DReAMSim benchmark workload and prints one
// JSON line on stdout (run.py turns it into the benchmark's result line).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|reduced] [--rows]
//
// --trace 0 times the end-to-end metrics, --trace 1 runs the traced pass
// for the per-layer metrics, and --rows prints each simulated report row
// (with the flags that reproduce it) instead of timing anything.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  bool rows = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|reduced] [--rows]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--rows") {
      args.rows = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "reduced") {
          Usage("--size takes full or reduced");
        }
        args.size = value == "full" ? Size::kFull : Size::kReduced;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// Timings from an unoptimized or assertion-enabled build, or from a host
/// that cannot run the sweep's workers side by side, are not comparable.
void RefuseUnsteadyHost() {
  std::string reason;
#ifndef NDEBUG
  reason = "assertions are enabled (NDEBUG is not defined)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    reason = "this is a Debug build";
  }
  const unsigned threads = std::thread::hardware_concurrency();
  if (threads < kSweepWorkers) {
    reason = "the host has " + std::to_string(threads) +
             " hardware threads; paper_sweep runs " +
             std::to_string(kSweepWorkers) + " workers";
  }
  if (!reason.empty()) {
    std::cerr << "perfbench_driver: refusing to report timings: " << reason
              << "\n";
    std::exit(3);
  }
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void PrintResult(const Args& args, const Workload& w,
                 const std::vector<Metric>& metrics, const CheckTally& tally,
                 std::uint64_t rounds, const std::string& digest) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(w.name) << ", \"seed\": " << args.seed
      << ", \"size\": "
      << JsonString(args.size == Size::kFull ? "full" : "reduced")
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"instances\": [";
  const std::vector<std::uint64_t> seeds = InstanceSeeds(w, args.seed);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    out << (i > 0 ? ", " : "") << seeds[i];
  }
  out << "], \"rounds\": " << rounds << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < tally.failures.size() && i < 8; ++i) {
    out << (i > 0 ? ", " : "") << JsonString(tally.failures[i]);
  }
  out << "], \"digest\": " << JsonString(digest) << ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << "{\"name\": " << JsonString(metrics[i].name)
        << ", \"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "], \"stamp\": {\"hardware_threads\": "
      << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"sweep_workers\": " << kSweepWorkers << "}}";
  std::cout << out.str() << std::endl;
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// End-to-end metrics of a single-run workload: the instances are invoked
/// in turn until every one has run and `seconds` have passed.
void TimeSingle(const Args& args, const Workload& w) {
  const std::vector<std::uint64_t> seeds = InstanceSeeds(w, args.seed);
  const std::size_t n = seeds.size();
  std::vector<std::vector<double>> walls(n);
  std::vector<std::vector<double>> runs(n);
  std::vector<double> setups;
  std::vector<core::MetricsReport> first(n);
  CheckTally tally;
  const Clock::time_point start = Clock::now();
  std::size_t k = 0;
  for (; k < n || SecondsSince(start) < args.seconds; ++k) {
    const std::size_t i = k % n;
    const Invocation inv = InvokeSingle(w, seeds[i]);
    walls[i].push_back(inv.wall_s);
    runs[i].push_back(inv.run_s);
    setups.push_back(inv.setup_s());
    std::string error = CheckSingle(w, inv);
    if (k < n) {
      first[i] = inv.report;
    } else if (error.empty() && ReportRow(inv.report) != ReportRow(first[i])) {
      error = "seed " + std::to_string(seeds[i]) +
              ": report differs between rounds";
    }
    tally.Record(error);
  }
  const std::uint64_t rounds = (k + n - 1) / n;

  double wall = 0.0;
  double run = 0.0;
  double completed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    wall += Median(walls[i]);
    run += Median(runs[i]);
    completed += static_cast<double>(first[i].completed_tasks);
  }
  const std::vector<Metric> metrics = {
      {"wall_s", wall / static_cast<double>(n), "s"},
      {"setup_s", Median(setups), "s"},
      {"tasks_per_s", completed / run, "tasks/s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  PrintResult(args, w, metrics, tally, rounds, Hex(Digest(first)));
}

/// End-to-end metrics of paper_sweep: the whole grid per round.
void TimeSweep(const Args& args, const Workload& w) {
  constexpr int kSetupReps = 15;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const SetupTimes setup = SweepSetup(w, args.seed);
    setups.push_back(setup.init_s + setup.generate_s);
  }
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<core::MetricsReport> first;
  CheckTally tally;
  std::uint64_t rounds = 0;
  const Clock::time_point start = Clock::now();
  do {
    SweepInvocation inv = InvokeSweep(w, args.seed, kSweepWorkers);
    double completed = 0.0;
    for (const core::MetricsReport& r : inv.reports) {
      completed += static_cast<double>(r.completed_tasks);
    }
    walls.push_back(inv.wall_s);
    rates.push_back(completed / inv.wall_s);
    std::string error = CheckSweep(w, args.seed, inv.reports);
    if (rounds == 0) {
      first = std::move(inv.reports);
    } else if (error.empty() && Digest(inv.reports) != Digest(first)) {
      error = "grid reports differ between rounds";
    }
    tally.Record(error);
    ++rounds;
  } while (SecondsSince(start) < args.seconds);

  const std::vector<Metric> metrics = {
      {"wall_s", Median(walls), "s"},
      {"setup_s", Median(setups), "s"},
      {"tasks_per_s", Median(rates), "tasks/s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
  PrintResult(args, w, metrics, tally, rounds, Hex(Digest(first)));
}

/// --rows: each simulated report row, tab-separated after the seed, node
/// count, task count and mode that reproduce it with the dreamsim CLI.
void PrintRows(const Args& args, const Workload& w) {
  std::vector<core::MetricsReport> reports;
  if (w.sweep) {
    reports = InvokeSweep(w, args.seed, kSweepWorkers).reports;
  } else {
    for (const std::uint64_t seed : InstanceSeeds(w, args.seed)) {
      reports.push_back(InvokeSingle(w, seed).report);
    }
  }
  for (const core::MetricsReport& r : reports) {
    std::cout << r.seed << '\t' << r.total_nodes << '\t' << r.total_tasks
              << '\t' << r.mode_name << '\t' << ReportRow(r) << '\n';
  }
  std::cout << "digest\t" << Hex(Digest(reports)) << std::endl;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::optional<Workload> w = FindWorkload(args.workload, args.size);
  if (!w) Usage("unknown workload " + args.workload);
  if (args.rows) {
    PrintRows(args, *w);
    return 0;
  }
  RefuseUnsteadyHost();
  if (args.trace) {
    CheckTally tally;
    const std::vector<Metric> metrics = TraceWorkload(*w, args.seed, tally);
    PrintResult(args, *w, metrics, tally, 1, "");
  } else if (w->sweep) {
    TimeSweep(args, *w);
  } else {
    TimeSingle(args, *w);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}

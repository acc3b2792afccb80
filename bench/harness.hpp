// The gate harness shared by the bench_* programs (docs/formats.md
// "Benchmark JSON"). Every gate proves the same two things about a feature
// or an index: it leaves the paper-facing metrics bit-identical, and it
// costs less than its budget. This header holds the plumbing of that proof
// once: the CLI prologue, the timers, the interleaved-rounds runner, the
// overhead estimators and the one JSON envelope every BENCH_*.json uses.
//
// It depends on util/ alone, so bench_lint (which links no simulator code)
// uses it too; the simulator-facing helpers live in sim_harness.hpp.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace dreamsim::bench {

/// Process CPU time. The overhead gates are a few percent on a
/// single-threaded workload, and wall clock on a shared runner includes
/// scheduler steal that dwarfs the signal being gated.
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall clock.
inline double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Times `fn` (wall clock) until at least `min_seconds` of samples
/// accumulate; returns mean ns per call.
inline double NsPerCall(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm-up
  std::uint64_t iterations = 1;
  for (;;) {
    const double start = WallSeconds();
    for (std::uint64_t i = 0; i < iterations; ++i) fn();
    const double elapsed = WallSeconds() - start;
    if (elapsed >= min_seconds || iterations >= (1ULL << 26)) {
      return elapsed * 1e9 / static_cast<double>(iterations);
    }
    const double target = min_seconds * 1.2;
    const double guess = elapsed > 0.0
                             ? static_cast<double>(iterations) * target / elapsed
                             : static_cast<double>(iterations) * 16.0;
    iterations = std::max(iterations * 2, static_cast<std::uint64_t>(guess));
  }
}

/// CPU nanoseconds per call of a disabled observability hook, amortized
/// over a tight 20M-iteration loop. A template so `hook` inlines into the
/// loop exactly as it does on the simulator's hot path.
template <typename Hook>
double DisabledHookNs(Hook hook) {
  constexpr std::uint64_t kIters = 20'000'000;
  const double start = CpuSeconds();
  for (std::uint64_t i = 0; i < kIters; ++i) hook();
  return (CpuSeconds() - start) / static_cast<double>(kIters) * 1e9;
}

/// Interleaved rounds: each round calls `run(level)` for every level back
/// to back, so adjacent runs share machine conditions and slow patches
/// mostly cancel out of a same-round ratio. `run` returns the seconds it
/// measured; the result is seconds[level][round].
template <typename Run>
std::vector<std::vector<double>> RunRounds(int rounds, std::size_t levels,
                                           Run&& run) {
  std::vector<std::vector<double>> seconds(levels);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t level = 0; level < levels; ++level) {
      seconds[level].push_back(run(level));
    }
  }
  return seconds;
}

inline double OverheadPct(double base, double with) {
  return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
}

/// Per-round overhead of `with` against the same round's `base`.
inline std::vector<double> PairedOverheadPct(const std::vector<double>& base,
                                             const std::vector<double>& with) {
  std::vector<double> pct;
  for (std::size_t i = 0; i < base.size() && i < with.size(); ++i) {
    pct.push_back(OverheadPct(base[i], with[i]));
  }
  return pct;
}

inline double Min(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

/// Linear-interpolation quantile of `values` (q in [0, 1]).
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// A JSON string literal with quotes, backslashes and control characters
/// escaped.
inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u00{}{}", "0123456789abcdef"[(c >> 4) & 0xF],
                    "0123456789abcdef"[c & 0xF]);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A JSON number in its shortest round-trip form, so counts stay exact;
/// non-finite values (a rate over a zero-length interval) render as null,
/// which JSON can carry and a NaN literal cannot.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// One scalar of a row's `params` object, rendered as JSON.
class Param {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  Param(T value)
      : json_(std::is_integral_v<T> ? Format("{}", value)
                                    : JsonNumber(static_cast<double>(value))) {}
  Param(const std::string& value) : json_(JsonString(value)) {}
  Param(const char* value) : json_(JsonString(value)) {}
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

using Params = std::vector<std::pair<std::string, Param>>;

/// One measurement. `layer` names the component measured (`obs.tracer`,
/// `store_index.FindAnyIdleNode`), `name` the statistic, `params` the
/// workload it was measured on.
struct Row {
  std::string layer;
  std::string name;
  double value = 0.0;
  std::string unit;
  Params params;
};

/// A gate's comparison: the measured value must be below the budget
/// (costs) or at least the budget (throughput floors).
enum class Op { kBelow, kAtLeast };

/// One bench program: its CLI, its rows and gates, and its BENCH file.
///
///   Bench bench("obs", "Observability overhead smoke", "...");
///   if (const auto exit = bench.Start(argc, argv)) return *exit;
///   ... measure, bench.Add(...), bench.AddGated(...), bench.Check(...) ...
///   return bench.Finish();
class Bench {
 public:
  /// `name` is the envelope's "bench" value and names the default output
  /// file BENCH_<name>.json.
  Bench(std::string name, const std::string& description,
        const std::string& quick_help)
      : name_(std::move(name)),
        cli_(Format("{}; writes BENCH_{}.json", description, name_)) {
    cli_.AddBool("quick", false, quick_help);
    cli_.AddString("out", "",
                   "output JSON path (default: next to the binary)");
  }

  /// Register program-specific flags here before Start().
  CliParser& cli() { return cli_; }

  /// The CLI prologue: parses argv, answers --help, resolves the default
  /// output path next to the binary and opens the output file before any
  /// work runs, so an unwritable path fails in milliseconds. Returns the
  /// exit code to return now, or nullopt to go on measuring.
  [[nodiscard]] std::optional<int> Start(int argc, char** argv) {
    if (!cli_.Parse(argc, argv)) {
      std::cerr << cli_.error() << "\n";
      return 1;
    }
    if (cli_.help_requested()) {
      std::cout << cli_.HelpText();
      return 0;
    }
    quick_ = cli_.GetBool("quick");
    out_path_ = cli_.GetString("out");
    if (out_path_.empty()) {
      const std::string self(argv[0] != nullptr ? argv[0] : "");
      const std::size_t slash = self.find_last_of("/\\");
      out_path_ = (slash == std::string::npos ? std::string{}
                                              : self.substr(0, slash + 1)) +
                  Format("BENCH_{}.json", name_);
    }
    out_.open(out_path_);
    if (!out_.is_open()) {
      std::cerr << "error: could not open " << out_path_ << " for writing\n";
      return 1;
    }
    // Bounded-queue and fault workloads warn per discard; keep the bench
    // output to its rows.
    Log::SetLevel(LogLevel::kError);
    return std::nullopt;
  }

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] const std::string& out_path() const { return out_path_; }

  /// Records an ungated row and prints it.
  void Add(Row row) { Record(std::move(row), false); }

  /// Records a row that gate `gate` reads: pass = value `op` budget.
  void AddGated(Row row, std::string gate, Op op, double budget) {
    const double value = row.value;
    Record(std::move(row), true);
    const bool pass = op == Op::kBelow ? value < budget : value >= budget;
    gates_.push_back(
        Format("{{\"name\": {}, \"value\": {}, \"op\": \"{}\", \"budget\": {}, "
               "\"pass\": {}}}",
               JsonString(gate), JsonNumber(value),
               op == Op::kBelow ? "<" : ">=", JsonNumber(budget), pass));
    std::cout << Format("  gate {}: {} {} {} -> {}\n", gate, value,
                        op == Op::kBelow ? "<" : ">=", budget,
                        pass ? "pass" : "FAIL");
    all_pass_ = all_pass_ && pass;
  }

  /// Records a boolean gate (metrics_identical, audits_clean, ...).
  void Check(std::string gate, bool pass) {
    gates_.push_back(Format("{{\"name\": {}, \"pass\": {}}}", JsonString(gate),
                            pass));
    std::cout << Format("  gate {}: {}\n", gate, pass ? "pass" : "FAIL");
    all_pass_ = all_pass_ && pass;
  }

  /// Rows for one level's per-round paired overheads: the minimum (the
  /// estimator the overhead gates read; noise on a shared runner is
  /// additive, so the cleanest round is the closest estimate, while a real
  /// regression inflates every round) plus the median and the
  /// interquartile range, which no gate reads and which show the noise.
  /// A non-empty `gate` gates the minimum at < `budget_pct`.
  void AddOverhead(const std::string& layer, const std::vector<double>& pct,
                   const Params& params, const std::string& gate = "",
                   double budget_pct = 0.0) {
    Row min{layer, "overhead_pct_min", Min(pct), "%", params};
    if (gate.empty()) {
      Add(std::move(min));
    } else {
      AddGated(std::move(min), gate, Op::kBelow, budget_pct);
    }
    Add({layer, "overhead_pct_median", Quantile(pct, 0.5), "%", params});
    Add({layer, "overhead_pct_iqr", Quantile(pct, 0.75) - Quantile(pct, 0.25),
         "%", params});
  }

  /// Writes the envelope. Returns the exit code: 0 only when the file was
  /// written and every gate passed.
  [[nodiscard]] int Finish() {
    out_ << Format(
        "{{\"bench\": {}, \"quick\": {}, \"hardware_threads\": {},\n",
        JsonString(name_), quick_, std::thread::hardware_concurrency());
    WriteList("rows", rows_);
    out_ << ",\n";
    WriteList("gates", gates_);
    out_ << "}\n";
    out_.close();
    if (out_.fail()) {
      std::cerr << "error: could not write " << out_path_ << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path_ << "\n";
    if (!all_pass_) std::cerr << "bench_" << name_ << ": a gate FAILED\n";
    return all_pass_ ? 0 : 1;
  }

 private:
  void Record(Row row, bool gated) {
    std::string params;
    std::string shown;
    for (const auto& [key, value] : row.params) {
      params += Format("{}{}: {}", params.empty() ? "" : ", ", JsonString(key),
                       value.json());
      shown += Format(" {}={}", key, value.json());
    }
    std::cout << Format("{} {} = {} {}{}\n", row.layer, row.name, row.value,
                        row.unit, shown);
    rows_.push_back(Format(
        "{{\"layer\": {}, \"name\": {}, \"value\": {}, \"unit\": {}, "
        "\"gated\": {}, \"params\": {{{}}}}}",
        JsonString(row.layer), JsonString(row.name), JsonNumber(row.value),
        JsonString(row.unit), gated, params));
  }

  void WriteList(std::string_view key, const std::vector<std::string>& items) {
    out_ << Format(" \"{}\": [", key);
    for (std::size_t i = 0; i < items.size(); ++i) {
      out_ << (i == 0 ? "\n  " : ",\n  ") << items[i];
    }
    out_ << "]";
  }

  std::string name_;
  CliParser cli_;
  bool quick_ = false;
  std::string out_path_;
  std::ofstream out_;
  std::vector<std::string> rows_;
  std::vector<std::string> gates_;
  bool all_pass_ = true;
};

}  // namespace dreamsim::bench

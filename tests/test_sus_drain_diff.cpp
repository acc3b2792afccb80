// Differential proof of the drain-index contract (DESIGN.md "Scheduler
// index"): with the suspension queue's O(log Q) index on or off, every
// drain decision is identical and every counted operation charges the
// WorkloadMeter the same step counts.
//
// Two layers:
//   1. Queue-level twin fuzz: one random operation stream applied to an
//      indexed and a scan queue in lockstep; results and meters must agree
//      after every step, and the index's drain queries must match a
//      brute-force rescan of the queue.
//   2. Simulator-level: full runs across both reconfiguration modes,
//      priority scheduling on/off, suspension_batch in {0, 1, 8}, retry
//      budgets, bounded-capacity overflow, and contiguous placement —
//      identical event sequences and bit-identical MetricsReport fields
//      across > 100 seeded differential run pairs.
//
// The twin fuzz calls the drain queries raw to compare them against the
// brute-force rescan; meter agreement is asserted separately on the
// counted operations, so the query sites themselves carry no charge.
// lint: allow-file(uncharged-index-query)
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit_expect.hpp"
#include "core/simulator.hpp"
#include "resource/suspension_queue.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

// --- Layer 1: queue-level twin fuzz ---------------------------------------

/// The CouldUseNode / full-mode-fallback predicate in attribute form (the
/// ground truth the index must reproduce).
bool Eligible(const SusEntryAttrs& a, FamilyId family, Area bound,
              ConfigId match) {
  if (match.valid() && a.resolved_config == match) return true;
  const bool compatible =
      !a.config_family.valid() || a.config_family == family;
  return compatible && a.needed_area <= bound;
}

/// Brute-force rescans of the queue, mirroring the simulator's literal
/// loops (first match wins; priority replaces only when strictly greater).
struct BruteForce {
  const std::vector<TaskId>& queue;
  const std::unordered_map<std::uint32_t, SusEntryAttrs>& attrs;

  [[nodiscard]] const SusEntryAttrs& At(std::size_t i) const {
    return attrs.at(queue[i].value());
  }

  [[nodiscard]] std::optional<std::size_t> OldestExactMatch(
      ConfigId config) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (At(i).resolved_config == config) return i;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<std::size_t> BestPriorityExactMatch(
      ConfigId config) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (At(i).resolved_config != config) continue;
      if (!best || At(i).priority > At(*best).priority) best = i;
    }
    return best;
  }

  [[nodiscard]] std::optional<std::size_t> OldestEligible(
      FamilyId family, Area bound, std::size_t from, ConfigId match) const {
    for (std::size_t i = from; i < queue.size(); ++i) {
      if (Eligible(At(i), family, bound, match)) return i;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<std::size_t> BestPriorityEligible(
      FamilyId family, Area bound, ConfigId match) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!Eligible(At(i), family, bound, match)) continue;
      if (!best || At(i).priority > At(*best).priority) best = i;
    }
    return best;
  }
};

struct QueueTwinCase {
  std::uint64_t seed = 0;
  std::size_t capacity = 0;  // 0 = unbounded
};

void PrintTo(const QueueTwinCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " capacity=" << c.capacity;
}

class SusDrainTwinFuzz : public ::testing::TestWithParam<QueueTwinCase> {};

TEST_P(SusDrainTwinFuzz, QueriesAndMetersAgreeUnderRandomOperations) {
  const QueueTwinCase param = GetParam();
  Rng rng(param.seed);
  SuspensionQueue indexed(param.capacity);
  SuspensionQueue scan(param.capacity);
  indexed.SetDrainIndexed(true);
  ASSERT_TRUE(indexed.drain_indexed());
  ASSERT_FALSE(scan.drain_indexed());
  WorkloadMeter meter_indexed;
  WorkloadMeter meter_scan;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs_oracle;
  std::uint32_t next_task = 0;

  // Families are a function of the resolved config, as in the simulator
  // (FamilyId of the config, or invalid for unresolved / family-less).
  const auto attrs_for_config = [&rng](ConfigId config) {
    SusEntryAttrs a;
    a.resolved_config = config;
    if (config.valid() && config.value() % 2 == 1) {
      a.config_family = FamilyId{config.value() % 3};
    }
    a.needed_area = rng.uniform_int(100, 2000);
    a.priority = static_cast<double>(rng.uniform_int(0, 8));
    return a;
  };
  const auto random_config = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, 6);
    if (pick == 6) return ConfigId::invalid();
    return ConfigId{static_cast<std::uint32_t>(pick)};
  };
  const auto random_family = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, 3);
    if (pick == 3) return FamilyId::invalid();
    return FamilyId{static_cast<std::uint32_t>(pick)};
  };
  const auto random_queued = [&]() -> TaskId {
    if (scan.empty()) return TaskId::invalid();
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(scan.size()) - 1));
    return scan.tasks()[pick];
  };

  for (int op = 0; op < 3000; ++op) {
    const BruteForce brute{scan.tasks(), attrs_oracle};
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1: {  // enqueue a fresh task (overflow exercised via capacity)
        const TaskId task{next_task++};
        const SusEntryAttrs attrs = attrs_for_config(random_config());
        const bool ok_indexed = indexed.Add(task, attrs, meter_indexed);
        const bool ok_scan = scan.Add(task, attrs, meter_scan);
        ASSERT_EQ(ok_indexed, ok_scan);
        if (ok_scan) attrs_oracle[task.value()] = attrs;
        break;
      }
      case 2: {  // counted membership, present or absent
        const TaskId present = random_queued();
        const TaskId task = (present.valid() && rng.uniform_int(0, 1) == 0)
                                ? present
                                : TaskId{next_task + 17};
        ASSERT_EQ(indexed.Contains(task, meter_indexed),
                  scan.Contains(task, meter_scan));
        break;
      }
      case 3: {  // counted removal, present or absent
        const TaskId present = random_queued();
        const TaskId task = (present.valid() && rng.uniform_int(0, 1) == 0)
                                ? present
                                : TaskId{next_task + 23};
        ASSERT_EQ(indexed.Remove(task, meter_indexed),
                  scan.Remove(task, meter_scan));
        attrs_oracle.erase(task.value());
        break;
      }
      case 4: {  // positional removal
        if (scan.empty()) break;
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(scan.size()) - 1));
        attrs_oracle.erase(scan.tasks()[pos].value());
        indexed.RemoveAt(pos, meter_indexed);
        scan.RemoveAt(pos, meter_scan);
        break;
      }
      case 5: {  // predicate pop (FinishReport-style drain step)
        const std::uint32_t residue =
            static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        const auto pred = [residue](TaskId t) {
          return t.value() % 3 == residue;
        };
        const auto popped_indexed =
            indexed.PopFirstMatching(pred, meter_indexed);
        const auto popped_scan = scan.PopFirstMatching(pred, meter_scan);
        ASSERT_EQ(popped_indexed, popped_scan);
        if (popped_scan) attrs_oracle.erase(popped_scan->value());
        break;
      }
      case 6: {  // attribute re-sync after a failed drain attempt
        const TaskId task = random_queued();
        if (!task.valid()) break;
        const SusEntryAttrs attrs = attrs_for_config(random_config());
        indexed.RefreshAttrs(task, attrs);
        scan.RefreshAttrs(task, attrs);
        attrs_oracle[task.value()] = attrs;
        break;
      }
      case 7: {  // full-mode exact-match picks
        const ConfigId config = random_config();
        ASSERT_EQ(indexed.OldestExactMatch(config),
                  brute.OldestExactMatch(config));
        ASSERT_EQ(indexed.BestPriorityExactMatch(config),
                  brute.BestPriorityExactMatch(config));
        break;
      }
      case 8: {  // partial FIFO / full-mode fallback pick
        if (scan.empty()) break;
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        const auto from = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(scan.size()) - 1));
        const ConfigId match = random_config();
        ASSERT_EQ(indexed.OldestEligible(family, bound, from, match),
                  brute.OldestEligible(family, bound, from, match));
        break;
      }
      case 9: {  // partial priority pick
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        const ConfigId match = random_config();
        ASSERT_EQ(indexed.BestPriorityEligible(family, bound, match),
                  brute.BestPriorityEligible(family, bound, match));
        break;
      }
    }
    ASSERT_EQ(meter_indexed.scheduling_steps_total(),
              meter_scan.scheduling_steps_total());
    ASSERT_EQ(meter_indexed.housekeeping_steps_total(),
              meter_scan.housekeeping_steps_total());
    ASSERT_EQ(indexed.size(), scan.size());
    if (op % 250 == 0) ASSERT_TRUE(AuditsClean(indexed)) << "op " << op;
  }

  // Rebuilding from live content (index toggled mid-run) preserves both
  // attributes and query answers.
  indexed.SetDrainIndexed(false);
  indexed.SetDrainIndexed(true);
  ASSERT_TRUE(AuditsClean(indexed));
  const BruteForce brute{scan.tasks(), attrs_oracle};
  ASSERT_EQ(indexed.OldestEligible(FamilyId{1}, 1500, 0, ConfigId{2}),
            brute.OldestEligible(FamilyId{1}, 1500, 0, ConfigId{2}));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SusDrainTwinFuzz,
    ::testing::Values(QueueTwinCase{201, 0}, QueueTwinCase{202, 0},
                      QueueTwinCase{203, 25}, QueueTwinCase{204, 8},
                      QueueTwinCase{205, 0}, QueueTwinCase{206, 40}));

// --- Layer 2: full-simulation differential runs ---------------------------

struct SimCase {
  sched::ReconfigMode mode = sched::ReconfigMode::kPartial;
  bool priority = false;
  std::size_t batch = 8;       // suspension_batch (0 = whole queue)
  std::uint32_t retries = 0;   // max_suspension_retries (0 = unbounded)
  std::size_t capacity = 0;    // suspension_capacity (0 = unbounded)
  bool contiguous = false;
  int families = 1;
};

void PrintTo(const SimCase& c, std::ostream* os) {
  *os << (c.mode == sched::ReconfigMode::kPartial ? "partial" : "full")
      << (c.priority ? " priority" : " fifo") << " batch=" << c.batch
      << " retries=" << c.retries << " capacity=" << c.capacity
      << (c.contiguous ? " contiguous" : " scalar")
      << " families=" << c.families;
}

/// A saturating workload with non-degenerate priorities (the generator
/// leaves priority at 0; drawing it here exercises the priority-ordered
/// drain paths for real).
std::vector<workload::GeneratedTask> MakeWorkload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<workload::GeneratedTask> tasks;
  Tick at = 0;
  for (int i = 0; i < 140; ++i) {
    workload::GeneratedTask t;
    at += rng.uniform_int(1, 4);
    t.create_time = at;
    if (rng.uniform_int(0, 9) < 8) {
      t.preferred_config =
          ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
    }
    t.needed_area = rng.uniform_int(200, 2000);
    t.required_time = rng.uniform_int(60, 600);
    t.priority = static_cast<double>(rng.uniform_int(0, 9));
    tasks.push_back(t);
  }
  return tasks;
}

struct RunResult {
  std::vector<SimEvent> events;
  core::MetricsReport report;
};

RunResult RunOne(const SimCase& c, std::uint64_t seed, bool indexed) {
  SimulationConfig config;
  config.nodes.count = 16;
  config.nodes.family_count = c.families;
  config.nodes.contiguous_placement = c.contiguous;
  config.configs.count = 8;
  config.configs.family_count = c.families;
  config.mode = c.mode;
  config.priority_scheduling = c.priority;
  config.suspension_batch = c.batch;
  config.max_suspension_retries = c.retries;
  config.suspension_capacity = c.capacity;
  config.drain_index = indexed;
  config.seed = seed;
  // Structure audit rides along: every decision in Debug, end-of-run in
  // Release (see test_simulator_fuzz.cpp).
#ifndef NDEBUG
  config.audit = analysis::AuditMode::kStep;
#else
  config.audit = analysis::AuditMode::kEnd;
#endif
  Simulator sim(std::move(config));
  RunResult result;
  sim.SetEventLogger([&](const SimEvent& e) { result.events.push_back(e); });
  result.report = sim.RunWithWorkload(MakeWorkload(seed));
  EXPECT_EQ(sim.suspension().drain_indexed(), indexed);
  EXPECT_TRUE(AuditsClean(sim.suspension()));
  return result;
}

void ExpectIdentical(const RunResult& idx, const RunResult& ref) {
  ASSERT_EQ(idx.events.size(), ref.events.size());
  for (std::size_t i = 0; i < idx.events.size(); ++i) {
    const SimEvent& a = idx.events[i];
    const SimEvent& b = ref.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.tick, b.tick) << "event " << i;
    ASSERT_EQ(a.task, b.task) << "event " << i;
    ASSERT_EQ(a.node, b.node) << "event " << i;
    ASSERT_EQ(a.config, b.config) << "event " << i;
  }
  const core::MetricsReport& x = idx.report;
  const core::MetricsReport& y = ref.report;
  EXPECT_EQ(x.total_tasks, y.total_tasks);
  EXPECT_EQ(x.completed_tasks, y.completed_tasks);
  EXPECT_EQ(x.discarded_tasks, y.discarded_tasks);
  EXPECT_EQ(x.suspended_ever, y.suspended_ever);
  EXPECT_EQ(x.closest_match_tasks, y.closest_match_tasks);
  EXPECT_EQ(x.avg_wasted_area_per_task, y.avg_wasted_area_per_task);
  EXPECT_EQ(x.avg_task_running_time, y.avg_task_running_time);
  EXPECT_EQ(x.avg_reconfig_count_per_node, y.avg_reconfig_count_per_node);
  EXPECT_EQ(x.avg_config_time_per_task, y.avg_config_time_per_task);
  EXPECT_EQ(x.avg_waiting_time_per_task, y.avg_waiting_time_per_task);
  EXPECT_EQ(x.avg_scheduling_steps_per_task, y.avg_scheduling_steps_per_task);
  EXPECT_EQ(x.total_scheduler_workload, y.total_scheduler_workload);
  EXPECT_EQ(x.total_used_nodes, y.total_used_nodes);
  EXPECT_EQ(x.total_simulation_time, y.total_simulation_time);
  EXPECT_EQ(x.scheduling_steps_total, y.scheduling_steps_total);
  EXPECT_EQ(x.housekeeping_steps_total, y.housekeeping_steps_total);
  EXPECT_EQ(x.total_reconfigurations, y.total_reconfigurations);
  EXPECT_EQ(x.total_configuration_time, y.total_configuration_time);
  EXPECT_EQ(x.avg_suspension_retries, y.avg_suspension_retries);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(x.placements_by_kind[k], y.placements_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(x.placements_per_config, y.placements_per_config);
}

class SusDrainSimDiff : public ::testing::TestWithParam<SimCase> {};

TEST_P(SusDrainSimDiff, IndexedRunsAreBitIdenticalAcrossSeeds) {
  const SimCase c = GetParam();
  // 9 combos x 13 seeds = 117 seeded differential run pairs overall.
  std::uint64_t suspended_total = 0;
  for (std::uint64_t seed = 1; seed <= 13; ++seed) {
    const RunResult idx = RunOne(c, seed * 6151, true);
    const RunResult ref = RunOne(c, seed * 6151, false);
    ExpectIdentical(idx, ref);
    suspended_total += idx.report.suspended_ever;
    if (HasFatalFailure()) return;
  }
  // The workload must actually exercise the drain paths being compared.
  EXPECT_GT(suspended_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DrainCombos, SusDrainSimDiff,
    ::testing::Values(
        SimCase{sched::ReconfigMode::kPartial, false, 8, 0, 0, false, 1},
        SimCase{sched::ReconfigMode::kPartial, false, 0, 2, 0, true, 1},
        SimCase{sched::ReconfigMode::kPartial, false, 1, 0, 12, false, 2},
        SimCase{sched::ReconfigMode::kPartial, true, 8, 3, 0, false, 1},
        SimCase{sched::ReconfigMode::kPartial, true, 0, 0, 10, false, 2},
        SimCase{sched::ReconfigMode::kPartial, true, 1, 1, 0, true, 1},
        SimCase{sched::ReconfigMode::kFull, false, 8, 0, 0, false, 1},
        SimCase{sched::ReconfigMode::kFull, true, 8, 2, 0, false, 2},
        SimCase{sched::ReconfigMode::kFull, false, 1, 1, 8, true, 1}));

}  // namespace
}  // namespace dreamsim

// Differential proof of the maintained system totals (DESIGN.md "System
// totals: one source of truth"): ResourceStore::totals(), Snapshot(),
// TotalWastedArea() and TotalIdleWastedArea() are O(1) reads of a record
// the store updates at its mutation points, and must equal the O(N) sums
// over store.nodes() they replaced.
//
// Two layers:
//   1. Store level: a seeded random stream of every mutation (Configure,
//      ReclaimSlot, BlankNode, AssignTask, ReleaseTask, FailNode,
//      RepairNode) over scalar and contiguous, single- and multi-family
//      stores; every totals field and Snapshot() is compared against a
//      recount after every operation.
//   2. Simulator level: a reference observer recomputes the sums at every
//      point the simulator reads them and rebuilds the StateSample stream,
//      the UtilizationReport and the Eq. 6 report fields from the
//      recounts; all must be bit-identical to the run's own, for every
//      WasteAccounting mode, a fault run and a heterogeneous scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "audit_expect.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "resource/store.hpp"
#include "rms/monitor.hpp"
#include "rms/resource_info.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef DREAMSIM_SCENARIO_DIR
#error "build must define DREAMSIM_SCENARIO_DIR (see tests/CMakeLists.txt)"
#endif

namespace dreamsim {
namespace {

using core::MetricsReport;
using core::SimulationConfig;
using core::Simulator;
using core::StateSample;
using core::WasteAccounting;
using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::Node;
using resource::ResourceStore;
using resource::StoreTotals;

// --- Reference: O(N) sums over store.nodes() -------------------------------

StoreTotals Recount(const ResourceStore& store) {
  StoreTotals t;
  for (const Node& n : store.nodes()) {
    t.total_fabric_area += n.total_area();
    if (n.blank()) {
      ++t.blank_nodes;
      continue;
    }
    t.configured_area += n.total_area() - n.available_area();
    t.wasted_area += n.available_area();
    if (n.busy()) {
      ++t.busy_nodes;
      t.running_tasks += n.running_tasks();
    } else {
      t.idle_wasted_area += n.available_area();
    }
  }
  return t;
}

rms::SystemSnapshot RecountSnapshot(const ResourceStore& store, Tick at) {
  const StoreTotals t = Recount(store);
  rms::SystemSnapshot s;
  s.at = at;
  s.total_nodes = store.node_count();
  s.blank_nodes = t.blank_nodes;
  s.busy_nodes = t.busy_nodes;
  s.running_tasks = t.running_tasks;
  s.total_fabric_area = t.total_fabric_area;
  s.configured_area = t.configured_area;
  s.wasted_area = t.wasted_area;
  if (s.total_fabric_area > 0) {
    s.area_utilization = static_cast<double>(s.configured_area) /
                         static_cast<double>(s.total_fabric_area);
  }
  return s;
}

std::string Describe(const StoreTotals& t) {
  return "wasted=" + std::to_string(t.wasted_area) +
         " idle_wasted=" + std::to_string(t.idle_wasted_area) +
         " configured=" + std::to_string(t.configured_area) +
         " fabric=" + std::to_string(t.total_fabric_area) +
         " blank=" + std::to_string(t.blank_nodes) +
         " busy=" + std::to_string(t.busy_nodes) +
         " running=" + std::to_string(t.running_tasks);
}

/// Every totals read the store offers against the recount.
void ExpectTotalsMatch(const ResourceStore& store, Tick at) {
  const StoreTotals want = Recount(store);
  ASSERT_EQ(store.totals(), want)
      << "maintained: " << Describe(store.totals())
      << "\nrecount:    " << Describe(want);
  ASSERT_EQ(store.TotalWastedArea(), want.wasted_area);
  ASSERT_EQ(store.TotalIdleWastedArea(), want.idle_wasted_area);
  const rms::SystemSnapshot got =
      rms::ResourceInformationManager(store).Snapshot(at);
  const rms::SystemSnapshot ref = RecountSnapshot(store, at);
  ASSERT_EQ(got.at, ref.at);
  ASSERT_EQ(got.total_nodes, ref.total_nodes);
  ASSERT_EQ(got.blank_nodes, ref.blank_nodes);
  ASSERT_EQ(got.busy_nodes, ref.busy_nodes);
  ASSERT_EQ(got.running_tasks, ref.running_tasks);
  ASSERT_EQ(got.total_fabric_area, ref.total_fabric_area);
  ASSERT_EQ(got.configured_area, ref.configured_area);
  ASSERT_EQ(got.wasted_area, ref.wasted_area);
  ASSERT_EQ(got.area_utilization, ref.area_utilization);  // bit-identical
}

// --- Layer 1: store-level random mutations ---------------------------------

struct StoreCase {
  std::uint64_t seed = 0;
  bool contiguous = false;
  int families = 1;
};

void PrintTo(const StoreCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << (c.contiguous ? " contiguous" : " scalar")
      << " families=" << c.families;
}

ResourceStore MakeStore(Rng& rng, const StoreCase& c) {
  ConfigCatalogue catalogue;
  for (int i = 0; i < 10; ++i) {
    Configuration cfg;
    cfg.required_area = rng.uniform_int(200, 2000);
    cfg.config_time = rng.uniform_int(10, 20);
    if (c.families > 1) {
      cfg.family = FamilyId{static_cast<std::uint32_t>(i % c.families)};
    }
    catalogue.Add(cfg);
  }
  ResourceStore store(std::move(catalogue));
  // Odd seeds run the literal scans: the totals must not depend on it.
  store.SetIndexed(c.seed % 2 == 0);
  for (int i = 0; i < 36; ++i) {
    const auto family = FamilyId{static_cast<std::uint32_t>(i % c.families)};
    (void)store.AddNode(rng.uniform_int(1000, 4000), family, {}, 0,
                        c.contiguous);
  }
  return store;
}

template <typename T>
T TakeRandom(Rng& rng, std::vector<T>& pool) {
  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  const T value = pool[pick];
  pool[pick] = pool.back();
  pool.pop_back();
  return value;
}

class StoreTotalsFuzz : public ::testing::TestWithParam<StoreCase> {};

TEST_P(StoreTotalsFuzz, TotalsMatchRecountAfterEveryMutation) {
  const StoreCase param = GetParam();
  Rng rng(param.seed);
  ResourceStore store = MakeStore(rng, param);
  ASSERT_NO_FATAL_FAILURE(ExpectTotalsMatch(store, 0));

  std::vector<EntryRef> idle;
  std::vector<EntryRef> busy;
  std::vector<NodeId> failed;
  std::uint32_t next_task = 0;
  const auto random_node = [&] {
    return NodeId{static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(store.node_count()) - 1))};
  };
  const auto drop_node = [&](NodeId id) {
    std::erase_if(idle, [&](EntryRef e) { return e.node == id; });
    std::erase_if(busy, [&](EntryRef e) { return e.node == id; });
  };
  std::size_t mutations = 0;

  for (int op = 0; op < 1500; ++op) {
    switch (rng.uniform_int(0, 8)) {
      case 0:
      case 1: {  // Configure (weighted up: it feeds every other mutation)
        const auto cfg_id = ConfigId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(
                                   store.configs().size()) - 1))};
        const Configuration& cfg = store.configs().Get(cfg_id);
        const NodeId id = random_node();
        const Node& n = store.node(id);
        if (n.failed() || !cfg.CompatibleWith(n.family()) ||
            !n.CanHost(cfg.required_area)) {
          continue;
        }
        idle.push_back(store.Configure(id, cfg_id));
        break;
      }
      case 2: {  // AssignTask
        if (idle.empty()) continue;
        const EntryRef e = TakeRandom(rng, idle);
        store.AssignTask(e, TaskId{next_task++});
        busy.push_back(e);
        break;
      }
      case 3: {  // ReleaseTask
        if (busy.empty()) continue;
        const EntryRef e = TakeRandom(rng, busy);
        (void)store.ReleaseTask(e);
        idle.push_back(e);
        break;
      }
      case 4: {  // ReclaimSlot
        if (idle.empty()) continue;
        store.ReclaimSlot(TakeRandom(rng, idle));
        break;
      }
      case 5: {  // BlankNode
        const NodeId id = random_node();
        const Node& n = store.node(id);
        if (n.failed() || n.busy()) continue;
        store.BlankNode(id);
        drop_node(id);
        break;
      }
      case 6:
      case 7: {  // FailNode (busy, idle or blank nodes alike)
        const NodeId id = random_node();
        if (store.node(id).failed()) continue;
        const std::size_t running = store.node(id).running_tasks();
        EXPECT_EQ(store.FailNode(id).size(), running);
        drop_node(id);
        failed.push_back(id);
        break;
      }
      case 8: {  // RepairNode
        if (failed.empty()) continue;
        store.RepairNode(TakeRandom(rng, failed));
        break;
      }
    }
    ++mutations;
    ASSERT_NO_FATAL_FAILURE(ExpectTotalsMatch(store, op))
        << "after op " << op;
  }
  EXPECT_GT(mutations, 500u);
  EXPECT_TRUE(AuditsClean(store));
}

std::vector<StoreCase> StoreCases() {
  std::vector<StoreCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool contiguous : {false, true}) {
      for (const int families : {1, 3}) {
        cases.push_back({seed * 7919, contiguous, families});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, StoreTotalsFuzz,
                         ::testing::ValuesIn(StoreCases()));

// --- Layer 2: simulator level ----------------------------------------------

/// Recomputes every sum the simulator reads from the store, at the moment it
/// reads it, and rebuilds from those recounts what the run reports.
class ReferenceObserver {
 public:
  explicit ReferenceObserver(Simulator& sim)
      : sim_(sim),
        accounting_(sim.config().waste_accounting) {
    waste_signal_.Set(0, 0.0);
    sim.SetStateObserver([this](const StateSample& s) { OnSample(s); });
    // The explain observer fires for every scheduling attempt right after
    // the Eq. 6 sample, before the store changes again.
    sim.SetExplainObserver(
        [this](const core::ExplainRecord& r) { OnAttempt(r); });
  }

  /// Compares everything the run produced against the rebuilt reference.
  void ExpectIdentical(const MetricsReport& report) const {
    EXPECT_GT(samples_, 0u);
    EXPECT_EQ(mismatched_samples_, 0u) << first_mismatch_;

    const rms::UtilizationReport want =
        monitor_.Finish(report.total_simulation_time);
    const rms::UtilizationReport& got = sim_.utilization();
    EXPECT_EQ(got.avg_running_tasks, want.avg_running_tasks);
    EXPECT_EQ(got.avg_busy_nodes, want.avg_busy_nodes);
    EXPECT_EQ(got.avg_wasted_area, want.avg_wasted_area);
    EXPECT_EQ(got.peak_running_tasks, want.peak_running_tasks);
    EXPECT_EQ(got.peak_suspended_tasks, want.peak_suspended_tasks);
    EXPECT_EQ(got.observed_until, want.observed_until);

    MetricsReport ref = report;
    const double tasks = report.total_tasks > 0
                             ? static_cast<double>(report.total_tasks)
                             : 1.0;
    switch (accounting_) {
      case WasteAccounting::kOnSchedule:
      case WasteAccounting::kIdleConfigured:
        ref.avg_wasted_area_per_task = waste_accum_ / tasks;
        ref.wasted_area_samples = waste_samples_;
        break;
      case WasteAccounting::kTimeWeighted:
        ref.avg_wasted_area_per_task =
            waste_signal_.AverageUntil(report.total_simulation_time);
        break;
      case WasteAccounting::kOnConfigure:
        break;  // per-node sample; reads no system total
    }
    EXPECT_EQ(core::CsvReportRow(report), core::CsvReportRow(ref));
    EXPECT_EQ(report.avg_wasted_area_per_task, ref.avg_wasted_area_per_task);
    const OnlineStats& a = report.wasted_area_samples;
    const OnlineStats& b = ref.wasted_area_samples;
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.variance(), b.variance());
  }

 private:
  void OnSample(const StateSample& got) {
    ++samples_;
    const rms::SystemSnapshot snap = RecountSnapshot(sim_.store(), got.tick);
    monitor_.ObserveSnapshot(snap, got.suspended_tasks);
    StateSample want = got;  // tick, queue depth, steps, failed: pass-through
    want.busy_nodes = snap.busy_nodes;
    want.running_tasks = snap.running_tasks;
    want.wasted_area = snap.wasted_area;
    if (want.busy_nodes != got.busy_nodes ||
        want.running_tasks != got.running_tasks ||
        want.wasted_area != got.wasted_area) {
      if (mismatched_samples_++ == 0) {
        first_mismatch_ = "tick " + std::to_string(got.tick) + ": busy " +
                          std::to_string(got.busy_nodes) + "/" +
                          std::to_string(want.busy_nodes) + " running " +
                          std::to_string(got.running_tasks) + "/" +
                          std::to_string(want.running_tasks) + " wasted " +
                          std::to_string(got.wasted_area) + "/" +
                          std::to_string(want.wasted_area);
      }
    }
  }

  void OnAttempt(const core::ExplainRecord& r) {
    const StoreTotals t = Recount(sim_.store());
    if (r.is_arrival) {
      // MetricsCollector::OnScheduleAttempt's Eq. 6 sample.
      double wasted = 0.0;
      if (accounting_ == WasteAccounting::kOnSchedule) {
        wasted = static_cast<double>(t.wasted_area);
      } else if (accounting_ == WasteAccounting::kIdleConfigured) {
        wasted = static_cast<double>(t.idle_wasted_area);
      }
      if (accounting_ == WasteAccounting::kOnSchedule ||
          accounting_ == WasteAccounting::kIdleConfigured) {
        waste_accum_ += wasted;
        waste_samples_.Add(wasted);
      }
    }
    // MetricsCollector::OnWasteSignal fires on every fresh configuration.
    if (r.outcome == sched::Outcome::kPlaced && r.config_time > 0 &&
        accounting_ == WasteAccounting::kTimeWeighted) {
      waste_signal_.Set(r.tick, static_cast<double>(t.wasted_area));
    }
  }

  Simulator& sim_;
  rms::MonitoringModule monitor_;
  WasteAccounting accounting_;
  std::size_t samples_ = 0;
  std::size_t mismatched_samples_ = 0;
  std::string first_mismatch_;
  double waste_accum_ = 0.0;
  OnlineStats waste_samples_;
  TimeWeightedValue waste_signal_;
};

MetricsReport RunAgainstReference(const SimulationConfig& config) {
  Simulator sim(config);
  ReferenceObserver reference(sim);
  const MetricsReport report = sim.Run();
  EXPECT_GT(report.completed_tasks, 0u);
  reference.ExpectIdentical(report);
  return report;
}

struct SimCase {
  WasteAccounting accounting = WasteAccounting::kOnSchedule;
  bool faults = false;
};

void PrintTo(const SimCase& c, std::ostream* os) {
  *os << core::ToString(c.accounting) << (c.faults ? " faults" : "");
}

class SimulatorTotals : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorTotals, ReportsMatchRecountingObserverAcrossSeeds) {
  const SimCase param = GetParam();
  std::uint64_t failures = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimulationConfig config;
    config.nodes.count = 14;
    config.configs.count = 10;
    config.tasks.total_tasks = 300;
    config.waste_accounting = param.accounting;
    config.mode = seed % 2 == 0 ? sched::ReconfigMode::kPartial
                                : sched::ReconfigMode::kFull;
    config.seed = seed;
    if (param.faults) {
      config.tasks.min_required_time = 80;
      config.tasks.max_required_time = 900;
      config.faults.mtbf = 4'000;
      config.faults.mttr = 800;
      config.max_suspension_retries = 8;
    }
    failures += RunAgainstReference(config).failures_injected;
    ASSERT_FALSE(HasFatalFailure());
  }
  EXPECT_EQ(failures > 0, param.faults);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SimulatorTotals,
    ::testing::Values(SimCase{WasteAccounting::kOnSchedule, false},
                      SimCase{WasteAccounting::kOnConfigure, false},
                      SimCase{WasteAccounting::kTimeWeighted, false},
                      SimCase{WasteAccounting::kIdleConfigured, false},
                      SimCase{WasteAccounting::kOnSchedule, true},
                      SimCase{WasteAccounting::kTimeWeighted, true}));

TEST(SimulatorTotalsScenario, HeterogeneousFamiliesMatchRecountingObserver) {
  auto parsed = scenario::ParseScenarioFile(
      std::string(DREAMSIM_SCENARIO_DIR) + "/mixed_families.scn");
  ASSERT_TRUE(parsed.has_value()) << scenario::Render(parsed.error());
  SimulationConfig config = parsed.value().config;
  ASSERT_GE(config.device_classes.size(), 2u);
  for (const WasteAccounting accounting :
       {WasteAccounting::kOnSchedule, WasteAccounting::kTimeWeighted,
        WasteAccounting::kIdleConfigured}) {
    SCOPED_TRACE(std::string(core::ToString(accounting)));
    config.waste_accounting = accounting;
    (void)RunAgainstReference(config);
    ASSERT_FALSE(HasFatalFailure());
  }
}

}  // namespace
}  // namespace dreamsim

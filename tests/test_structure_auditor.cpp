// StructureAuditor tests: the auditor must be green on healthy structures
// and, for every seeded-corruption class the StructureCorruptor can
// inject, report exactly the matching violation slug(s) — proving the
// audit is neither vacuous nor trigger-happy (DESIGN.md §12).
#include "analysis/structure_auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/corruptor.hpp"
#include "obs/metrics.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "resource/task.hpp"
#include "sim/event_queue.hpp"

namespace dreamsim::analysis {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

ConfigCatalogue MakeCatalogue(std::initializer_list<Area> areas) {
  ConfigCatalogue c;
  std::uint32_t i = 0;
  for (const Area a : areas) {
    Configuration cfg;
    cfg.required_area = a;
    cfg.config_time = 10 + static_cast<Tick>(i++);
    c.Add(cfg);
  }
  return c;
}

/// Distinct invariant slugs present in the report, in sorted order — the
/// corruption tests assert this equals exactly the expected slug set.
std::set<std::string> Slugs(const AuditReport& report) {
  std::set<std::string> slugs;
  for (const Violation& v : report.violations) slugs.insert(v.invariant);
  return slugs;
}

/// A store with a little of everything: blank, idle, and busy nodes.
ResourceStore MakePopulatedStore(bool indexed) {
  ResourceStore store(MakeCatalogue({300, 500, 800}));
  store.SetIndexed(indexed);
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(2000);
  (void)store.AddNode(4000);  // stays blank
  const EntryRef idle_a = store.Configure(a, ConfigId{0});
  (void)idle_a;
  const EntryRef busy_b = store.Configure(b, ConfigId{1});
  store.AssignTask(busy_b, TaskId{7});
  (void)store.Configure(b, ConfigId{0});  // second idle entry for config 0
  return store;
}

/// One contiguous 1000-unit node holding an idle 300-unit configuration
/// at [0, 300) and a busy 500-unit one at [300, 800); the hole [800, 1000)
/// stays free.
ResourceStore MakeContiguousStore(bool indexed) {
  ResourceStore store(MakeCatalogue({300, 500}));
  store.SetIndexed(indexed);
  const NodeId node = store.AddNode(1000, FamilyId{0}, resource::Caps{}, 0,
                                    /*contiguous=*/true);
  (void)store.Configure(node, ConfigId{0});
  store.AssignTask(store.Configure(node, ConfigId{1}), TaskId{3});
  return store;
}

// --- Clean structures audit clean -------------------------------------------

TEST(StructureAuditorClean, FreshStore) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const AuditReport report = StructureAuditor::AuditStore(store);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.Render(), "structure audit: clean");
}

TEST(StructureAuditorClean, PopulatedStoreIndexedAndNot) {
  for (const bool indexed : {false, true}) {
    const ResourceStore store = MakePopulatedStore(indexed);
    const AuditReport report = StructureAuditor::AuditStore(store);
    EXPECT_TRUE(report.ok()) << "indexed=" << indexed << "\n"
                             << report.Render();
  }
}

TEST(StructureAuditorClean, FragmentedContiguousStore) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakeContiguousStore(indexed);
    // Reclaiming the idle extent at [0, 300) leaves two holes around the
    // busy one; a fresh 300-unit configuration then refills the first.
    const EntryRef idle{NodeId{0}, 0};
    store.ReclaimSlot(idle);
    AuditReport report = StructureAuditor::AuditStore(store);
    EXPECT_TRUE(report.ok()) << "indexed=" << indexed << "\n"
                             << report.Render();
    EXPECT_EQ(store.node(NodeId{0}).layout().hole_count(), 2u);
    (void)store.Configure(NodeId{0}, ConfigId{0});
    report = StructureAuditor::AuditStore(store);
    EXPECT_TRUE(report.ok()) << "indexed=" << indexed << "\n"
                             << report.Render();
  }
}

TEST(StructureAuditorClean, PopulatedSuspensionQueue) {
  for (const bool indexed : {false, true}) {
    SuspensionQueue queue(/*capacity=*/8);
    queue.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 5; ++t) {
      SusEntryAttrs attrs;
      attrs.resolved_config = ConfigId{t % 2};
      attrs.needed_area = 100 + t;
      attrs.priority = static_cast<double>(t);
      ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
    }
    ASSERT_TRUE(queue.Remove(TaskId{2}, meter));
    const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
    EXPECT_TRUE(report.ok()) << "indexed=" << indexed << "\n"
                             << report.Render();
  }
}

TEST(StructureAuditorClean, EventQueueWithCancellations) {
  sim::EventQueue queue;
  (void)queue.Push(10, sim::EventPriority::kArrival, [] {});
  const sim::EventHandle h =
      queue.Push(20, sim::EventPriority::kCompletion, [] {});
  (void)queue.Push(20, sim::EventPriority::kControl, [] {});
  ASSERT_TRUE(queue.Cancel(h));
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 5);
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- Each corruption class reports exactly its slug(s) ----------------------

TEST(StructureAuditorCorruption, OrphanIdleEntryIsFig3IdleList) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // An entry whose slot does not exist on the (live, non-failed) node: the
  // idle list claims a pair the node's slots cannot justify.
  StructureCorruptor::InjectOrphanIdleEntry(store, ConfigId{0},
                                            EntryRef{NodeId{2}, 9});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.idle-list"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SwappedPositionsAreFig3Positions) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // Config 0 has two idle entries (nodes a and b); swap their position-map
  // slots. Membership is intact, so only the inverse-map check can see it.
  StructureCorruptor::CorruptPositionMap(store, ConfigId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.positions"})
      << report.Render();
  // Both displaced cells are reported.
  EXPECT_EQ(report.violations.size(), 2u) << report.Render();
}

TEST(StructureAuditorCorruption, SkewedFenwickLeafIsIdxCount) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewIndexConfigCount(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.count"})
      << report.Render();
}

TEST(StructureAuditorCorruption, ExposedFailedNodeIsFaultVisibility) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // Node 2 is blank; raising its failed flag behind the store's back leaves
  // it both in the blank list (visible to the scheduler) and outside the
  // failed-node counter.
  StructureCorruptor::ExposeFailedNode(store, NodeId{2});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  const std::set<std::string> expected{"fault.visibility", "fault.count"};
  EXPECT_EQ(Slugs(report), expected) << report.Render();
}

TEST(StructureAuditorCorruption, SkewedTotalsAreStoreTotals) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    // Every node and list is intact; only the maintained Eq. 6 total is off,
    // so only the O(N) recount can see it.
    StructureCorruptor::SkewStoreTotals(store);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok()) << "indexed=" << indexed;
    EXPECT_EQ(Slugs(report), std::set<std::string>{"store.totals"})
        << report.Render();
    ASSERT_EQ(report.violations.size(), 1u) << report.Render();
    EXPECT_EQ(report.violations[0].path, "store totals.wasted_area");
  }
}

TEST(StructureAuditorCorruption, OvercommittedNodeIsEq4Area) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    // Node 0 (TotalArea 1000, one idle 300-unit entry) shrinks to 299:
    // Eq. 4 still balances, but AvailableArea is -1. Totals and index move
    // with it, so only the sign check sees the overcommit.
    StructureCorruptor::OvercommitNode(store, NodeId{0});
    ASSERT_EQ(store.node(NodeId{0}).available_area(), -1);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok()) << "indexed=" << indexed;
    EXPECT_EQ(Slugs(report), std::set<std::string>{"eq4.area"})
        << report.Render();
    ASSERT_EQ(report.violations.size(), 1u) << report.Render();
    EXPECT_EQ(report.violations[0].path, "node 0");
  }
}

TEST(StructureAuditorCorruption, LeakedFabricUnitIsFabricLayout) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakeContiguousStore(indexed);
    // The hole [800, 1000) loses its last unit: the layout's holes no
    // longer complement the live extents and its free area drops to 199.
    StructureCorruptor::LeakFabricHole(store, NodeId{0});
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok()) << "indexed=" << indexed;
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fabric.layout"})
        << report.Render();
    EXPECT_EQ(report.violations.size(), 2u) << report.Render();
  }
}

TEST(StructureAuditorCorruption, ShrunkSlotExtentIsFabricLayout) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakeContiguousStore(indexed);
    // The idle slot's extent becomes [0, 299): narrower than its ReqArea,
    // and the unit at 299 is neither free nor owned.
    StructureCorruptor::ShrinkSlotExtent(store, NodeId{0}, 0);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok()) << "indexed=" << indexed;
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fabric.layout"})
        << report.Render();
    EXPECT_EQ(report.violations.size(), 2u) << report.Render();
  }
}

TEST(StructureAuditorCorruption, MisplacedBucketSeqIsSusidxBucket) {
  SuspensionQueue queue(/*capacity=*/0);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 4; ++t) {
    SusEntryAttrs attrs;
    attrs.resolved_config = ConfigId{t % 2};
    attrs.needed_area = 100;
    ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
  }
  // Task 1 resolved to config 1; move its seq into config 5's bucket.
  StructureCorruptor::MisplaceSusBucketEntry(queue, TaskId{1}, ConfigId{5});
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.bucket"})
      << report.Render();
}

TEST(StructureAuditorCorruption, OrphanActionIsEvqOrphanAction) {
  sim::EventQueue queue;
  (void)queue.Push(10, sim::EventPriority::kArrival, [] {});
  StructureCorruptor::OrphanEventAction(queue);
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.orphan-action"})
      << report.Render();
}

// --- Metrics conservation (DESIGN.md §16) -----------------------------------

/// Enables + resets the live registry for one test, restoring the disabled
/// default on exit so the global singleton never leaks state across tests.
struct ScopedMetricsRegistry {
  ScopedMetricsRegistry() {
    obs::MetricsRegistry::SetEnabled(true);
    obs::MetricsRegistry::Instance().Reset();
  }
  ~ScopedMetricsRegistry() {
    obs::MetricsRegistry::SetEnabled(false);
    obs::MetricsRegistry::Instance().Reset();
  }
};

TEST(StructureAuditorMetrics, DisabledRegistryAuditsEmpty) {
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const SuspensionQueue queue;
  const sim::EventQueue events;
  const resource::TaskStore tasks;
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  EXPECT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
}

TEST(StructureAuditorMetrics, ConservationHoldsOnInstrumentedOps) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  SuspensionQueue queue;
  WorkloadMeter meter;
  sim::EventQueue events;
  const resource::TaskStore tasks;
  // Drive only instrumented paths: counters and structures move together.
  (void)events.Push(10, sim::EventPriority::kArrival, [] {});
  const sim::EventHandle h =
      events.Push(20, sim::EventPriority::kCompletion, [] {});
  ASSERT_TRUE(events.Cancel(h));
  SusEntryAttrs attrs;
  attrs.resolved_config = ConfigId{0};
  attrs.needed_area = 100;
  ASSERT_TRUE(queue.Add(TaskId{0}, attrs, meter));
  ASSERT_TRUE(queue.Add(TaskId{1}, attrs, meter));
  ASSERT_TRUE(queue.Remove(TaskId{0}, meter));
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST(StructureAuditorMetrics, SkewedCounterIsMetricsConservation) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  SuspensionQueue queue;
  WorkloadMeter meter;
  const sim::EventQueue events;
  const resource::TaskStore tasks;
  SusEntryAttrs attrs;
  attrs.resolved_config = ConfigId{0};
  attrs.needed_area = 100;
  ASSERT_TRUE(queue.Add(TaskId{0}, attrs, meter));
  ASSERT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
  // Seeded corruption: the counter claims one enqueue the FIFO never saw.
  obs::MetricsRegistry::Instance().Add(obs::MetricId::kSusEnqueued);
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"metrics.conservation"})
      << report.Render();
}

TEST(StructureAuditorMetrics, SkewedGaugeIsMetricsConservation) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const SuspensionQueue queue;
  sim::EventQueue events;
  const resource::TaskStore tasks;
  (void)events.Push(10, sim::EventPriority::kArrival, [] {});
  ASSERT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
  // Seeded corruption: stale depth gauge (a missed update on some path).
  obs::MetricsRegistry::Instance().GaugeSet(obs::MetricId::kEvqDepth, 7);
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"metrics.conservation"})
      << report.Render();
}

// --- Report rendering (docs/formats.md "Auditor violation report") ----------

TEST(StructureAuditorReport, RenderCapsLongReports) {
  AuditReport report;
  for (int i = 0; i < 12; ++i) {
    report.violations.push_back(
        {"fig3.idle-list", "config 0 idle pos 0", "detail"});
  }
  const std::string rendered = report.Render(/*max_lines=*/8);
  EXPECT_NE(rendered.find("structure audit: 12 violation(s)"),
            std::string::npos);
  EXPECT_NE(rendered.find("... 4 more"), std::string::npos);
  // Exactly 8 violation lines plus the header and the cap line.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 9);
}

}  // namespace
}  // namespace dreamsim::analysis

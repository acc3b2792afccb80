// Tests for the per-configuration idle/busy membership lists and their
// step accounting (Fig. 3 structures).
#include "resource/entry_list.hpp"

#include <gtest/gtest.h>

namespace dreamsim::resource {
namespace {

EntryRef E(std::uint32_t node, SlotIndex slot) {
  return EntryRef{NodeId{node}, slot};
}

TEST(EntryList, AddAndContains) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 1), meter);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.Contains(E(1, 0), meter, StepKind::kHousekeeping));
  EXPECT_FALSE(list.Contains(E(3, 0), meter, StepKind::kHousekeeping));
}

TEST(EntryList, AddChargesOneHousekeepingStep) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  EXPECT_EQ(meter.housekeeping_steps_total(), 1u);
  EXPECT_EQ(meter.scheduling_steps_total(), 0u);
}

TEST(EntryList, RemoveExistingAndMissing) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 0), meter);
  EXPECT_TRUE(list.Remove(E(1, 0), meter));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.Remove(E(1, 0), meter));
  EXPECT_TRUE(list.Contains(E(2, 0), meter, StepKind::kHousekeeping));
}

TEST(EntryList, RemoveChargesTraversalSteps) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) list.Add(E(i, 0), meter);
  const Steps before = meter.housekeeping_steps_total();
  // Element at position 7 costs 8 visited cells.
  EXPECT_TRUE(list.Remove(E(7, 0), meter));
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 8u);
}

TEST(EntryList, SlotDistinguishesEntriesOnSameNode) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(1, 1), meter);
  EXPECT_TRUE(list.Remove(E(1, 1), meter));
  EXPECT_TRUE(list.Contains(E(1, 0), meter, StepKind::kHousekeeping));
  EXPECT_FALSE(list.Contains(E(1, 1), meter, StepKind::kHousekeeping));
}

TEST(EntryList, FindFirstStopsAtMatch) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) list.Add(E(i, 0), meter);
  const Steps before = meter.scheduling_steps_total();
  const auto found = list.FindFirst(
      [](EntryRef e) { return e.node.value() == 3; }, meter,
      StepKind::kSchedulingSearch);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->node.value(), 3u);
  EXPECT_EQ(meter.scheduling_steps_total() - before, 4u);
}

TEST(EntryList, FindFirstMissScansAll) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 5; ++i) list.Add(E(i, 0), meter);
  const Steps before = meter.scheduling_steps_total();
  const auto found = list.FindFirst([](EntryRef) { return false; }, meter,
                                    StepKind::kSchedulingSearch);
  EXPECT_FALSE(found.has_value());
  EXPECT_EQ(meter.scheduling_steps_total() - before, 5u);
}

TEST(EntryList, FindMinSelectsSmallestKey) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(5, 0), meter);
  list.Add(E(2, 0), meter);
  list.Add(E(8, 0), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef) { return true; }, meter, StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->node.value(), 2u);
}

TEST(EntryList, FindMinHonoursAcceptFilter) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 0), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef e) { return e.node.value() != 1; }, meter,
      StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->node.value(), 2u);
}

TEST(EntryList, FindMinEmptyOrAllRejected) {
  EntryList list;
  WorkloadMeter meter;
  EXPECT_FALSE(list.FindMin([](EntryRef) { return 0LL; },
                            [](EntryRef) { return true; }, meter,
                            StepKind::kSchedulingSearch)
                   .has_value());
  list.Add(E(1, 0), meter);
  EXPECT_FALSE(list.FindMin([](EntryRef) { return 0LL; },
                            [](EntryRef) { return false; }, meter,
                            StepKind::kSchedulingSearch)
                   .has_value());
}

TEST(EntryList, FindMinTieKeepsEarliest) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(4, 0), meter);
  list.Add(E(4, 1), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef) { return true; }, meter, StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->slot, 0u);
}

TEST(EntryListTwin, ReserveNeverChangesContentsOrCharges) {
  EntryList reserved;
  EntryList bare;
  WorkloadMeter mr;
  WorkloadMeter mb;
  reserved.Reserve(512);
  for (std::uint32_t i = 0; i < 300; ++i) {
    reserved.Add(E(i, 0), mr);
    bare.Add(E(i, 0), mb);
  }
  EXPECT_EQ(mr.total_workload(), mb.total_workload());
  // lint: allow(entry-cells-iteration) — twin equality needs raw storage
  EXPECT_EQ(reserved.cells(), bare.cells());
  // The position map locates every cell: each entry removes, and the list
  // ends empty.
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(reserved.Remove(E(i, 0), mr)) << i;
  }
  EXPECT_TRUE(reserved.empty());
}

TEST(WorkloadMeter, SeparatesKindsAndTotals) {
  WorkloadMeter meter;
  meter.BeginTask();
  meter.Add(StepKind::kSchedulingSearch, 3);
  meter.Add(StepKind::kHousekeeping, 2);
  EXPECT_EQ(meter.current_task_steps(), 3u);
  EXPECT_EQ(meter.scheduling_steps_total(), 3u);
  EXPECT_EQ(meter.housekeeping_steps_total(), 2u);
  EXPECT_EQ(meter.total_workload(), 5u);

  meter.BeginTask();
  EXPECT_EQ(meter.current_task_steps(), 0u);
  EXPECT_EQ(meter.total_workload(), 5u);  // totals survive BeginTask
}

TEST(WorkloadMeter, ResetClearsEverything) {
  WorkloadMeter meter;
  meter.Add(StepKind::kSchedulingSearch, 10);
  meter.Reset();
  EXPECT_EQ(meter.total_workload(), 0u);
  EXPECT_EQ(meter.scheduling_steps_total(), 0u);
  EXPECT_EQ(meter.housekeeping_steps_total(), 0u);
}

}  // namespace
}  // namespace dreamsim::resource

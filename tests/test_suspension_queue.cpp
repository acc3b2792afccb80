// Tests for the suspension queue (SusList).
//
// The drain queries are exercised raw against expected positions here —
// the tests assert what the queries answer, not the modeled effort, which
// the simulator-level differential suites pin down.
// lint: allow-file(uncharged-index-query)
#include "resource/suspension_queue.hpp"

#include <gtest/gtest.h>

#include "audit_expect.hpp"

namespace dreamsim::resource {
namespace {

TEST(SuspensionQueue, FifoOrder) {
  SuspensionQueue q;
  WorkloadMeter meter;
  ASSERT_TRUE(q.Add(TaskId{1}, meter));
  ASSERT_TRUE(q.Add(TaskId{2}, meter));
  ASSERT_TRUE(q.Add(TaskId{3}, meter));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.tasks().front(), TaskId{1});
  EXPECT_EQ(q.tasks().back(), TaskId{3});
}

TEST(SuspensionQueue, CapacityBound) {
  SuspensionQueue q(2);
  WorkloadMeter meter;
  EXPECT_TRUE(q.Add(TaskId{1}, meter));
  EXPECT_TRUE(q.Add(TaskId{2}, meter));
  EXPECT_FALSE(q.Add(TaskId{3}, meter));  // overflow
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, UnboundedByDefault) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.Add(TaskId{i}, meter));
  }
  EXPECT_EQ(q.size(), 1000u);
}

TEST(SuspensionQueue, PopFirstMatchingTakesOldest) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  (void)q.Add(TaskId{3}, meter);
  const auto popped = q.PopFirstMatching(
      [](TaskId id) { return id.value() >= 2; }, meter);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, TaskId{2});
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, PopFirstMatchingNoneMatches) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  const auto popped =
      q.PopFirstMatching([](TaskId) { return false; }, meter);
  EXPECT_FALSE(popped.has_value());
  EXPECT_EQ(q.size(), 1u);
}

TEST(SuspensionQueue, PopChargesScanSteps) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) (void)q.Add(TaskId{i}, meter);
  const Steps before = meter.housekeeping_steps_total();
  (void)q.PopFirstMatching([](TaskId id) { return id.value() == 6; }, meter);
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 7u);
}

TEST(SuspensionQueue, ContainsScan) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{5}, meter);
  EXPECT_TRUE(q.Contains(TaskId{5}, meter));
  EXPECT_FALSE(q.Contains(TaskId{6}, meter));
}

TEST(SuspensionQueue, RemoveSpecificTask) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  EXPECT_TRUE(q.Remove(TaskId{1}, meter));
  EXPECT_FALSE(q.Remove(TaskId{1}, meter));
  EXPECT_EQ(q.tasks().front(), TaskId{2});
}

TEST(SuspensionQueue, RemoveAtIndex) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  (void)q.Add(TaskId{3}, meter);
  q.RemoveAt(1, meter);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.tasks()[0], TaskId{1});
  EXPECT_EQ(q.tasks()[1], TaskId{3});
}

TEST(SuspensionQueue, PreservesFifoAcrossMixedOps) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 6; ++i) (void)q.Add(TaskId{i}, meter);
  (void)q.Remove(TaskId{2}, meter);
  q.RemoveAt(0, meter);
  (void)q.Add(TaskId{9}, meter);
  std::vector<std::uint32_t> order;
  for (const TaskId id : q.tasks()) order.push_back(id.value());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 5, 9}));
}

SusEntryAttrs Attrs(std::uint32_t config, Area area, double priority,
                    std::uint32_t family = FamilyId::kInvalidValue) {
  SusEntryAttrs a;
  a.resolved_config = ConfigId{config};
  a.config_family = FamilyId{family};
  a.needed_area = area;
  a.priority = priority;
  return a;
}

TEST(SuspensionQueue, IndexedChargesMatchTheScanContract) {
  // Contains/Remove answered from the index still charge what the literal
  // FIFO scan would have: position + 1 on a hit, queue size on a miss.
  SuspensionQueue q;
  q.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 5; ++i) {
    (void)q.Add(TaskId{i}, Attrs(i, 100, 0.0), meter);
  }
  const Steps base = meter.housekeeping_steps_total();
  EXPECT_TRUE(q.Contains(TaskId{3}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 4);  // positions 0..3
  EXPECT_FALSE(q.Contains(TaskId{42}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 9);  // full miss scan
  EXPECT_TRUE(q.Remove(TaskId{1}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 11);  // positions 0..1
  EXPECT_FALSE(q.Remove(TaskId{42}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 15);  // 4 remaining
}

TEST(SuspensionQueue, IndexedDrainQueriesPickScanWinners) {
  SuspensionQueue q;
  q.SetDrainIndexed(true);
  WorkloadMeter meter;
  (void)q.Add(TaskId{0}, Attrs(7, 900, 1.0), meter);
  (void)q.Add(TaskId{1}, Attrs(5, 400, 3.0), meter);
  (void)q.Add(TaskId{2}, Attrs(7, 300, 9.0), meter);
  (void)q.Add(TaskId{3}, Attrs(5, 200, 3.0), meter);
  // Oldest vs best-priority exact matches for config 5.
  EXPECT_EQ(q.OldestExactMatch(ConfigId{5}), std::optional<std::size_t>{1});
  // Equal priorities: the FIFO-older entry wins.
  EXPECT_EQ(q.BestPriorityExactMatch(ConfigId{5}),
            std::optional<std::size_t>{1});
  // Area-bounded eligibility (family-less tasks match any family).
  EXPECT_EQ(q.OldestEligible(FamilyId::invalid(), 350, 0, ConfigId::invalid()),
            std::optional<std::size_t>{2});
  EXPECT_EQ(q.OldestEligible(FamilyId::invalid(), 350, 3, ConfigId::invalid()),
            std::optional<std::size_t>{3});
  // The exact-match rule admits config 7 regardless of its area.
  EXPECT_EQ(q.OldestEligible(FamilyId::invalid(), 100, 0, ConfigId{7}),
            std::optional<std::size_t>{0});
  EXPECT_EQ(q.BestPriorityEligible(FamilyId::invalid(), 500,
                                   ConfigId::invalid()),
            std::optional<std::size_t>{2});
  EXPECT_EQ(q.OldestEligible(FamilyId::invalid(), 100, 0, ConfigId::invalid()),
            std::nullopt);
}

TEST(SuspensionQueue, RequeueAfterKillChargesOneHousekeepingStep) {
  // Fault-injection recovery path: a queued task gets drained for
  // placement, its node fails mid-execution, and the kill re-queues it.
  // The re-queue is not a scheduling attempt — it must charge exactly the
  // one enqueue housekeeping step (no scheduling-search charge), in both
  // drain modes, so fault runs keep the paper's step accounting honest.
  for (const bool indexed : {false, true}) {
    SuspensionQueue q;
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    (void)q.Add(TaskId{1}, Attrs(2, 300, 0.0), meter);
    (void)q.Add(TaskId{2}, Attrs(3, 400, 0.0), meter);
    q.RemoveAt(0, meter);  // drained and placed on the doomed node
    const Steps sched_before = meter.scheduling_steps_total();
    const Steps house_before = meter.housekeeping_steps_total();
    ASSERT_TRUE(q.Add(TaskId{1}, Attrs(2, 300, 0.0), meter));
    EXPECT_EQ(meter.scheduling_steps_total(), sched_before) << indexed;
    EXPECT_EQ(meter.housekeeping_steps_total(), house_before + 1) << indexed;
    // The victim re-enters at the FIFO tail, behind tasks queued earlier.
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(q.tasks().front(), TaskId{2});
    EXPECT_EQ(q.tasks().back(), TaskId{1});
    EXPECT_TRUE(AuditsClean(q)) << indexed;
  }
}

TEST(SuspensionQueue, IndexRebuildsAcrossToggle) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{4}, Attrs(2, 700, 5.0), meter);
  (void)q.Add(TaskId{5}, Attrs(3, 600, 1.0), meter);
  q.SetDrainIndexed(true);  // rebuild from retained attributes
  EXPECT_TRUE(AuditsClean(q));
  EXPECT_EQ(q.OldestExactMatch(ConfigId{3}), std::optional<std::size_t>{1});
  q.RefreshAttrs(TaskId{5}, Attrs(2, 600, 1.0));
  EXPECT_EQ(q.OldestExactMatch(ConfigId{3}), std::nullopt);
  EXPECT_EQ(q.OldestExactMatch(ConfigId{2}), std::optional<std::size_t>{0});
  EXPECT_TRUE(AuditsClean(q));
}

}  // namespace
}  // namespace dreamsim::resource

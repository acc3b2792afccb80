// Tests for the contiguous-placement fabric model (extension): extent
// allocation, coalescing frees, fragmentation metrics, and the node/store
// integration that makes fragmentation observable to the scheduler.
#include "resource/fabric.hpp"

#include <gtest/gtest.h>

#include "audit_expect.hpp"
#include "resource/store.hpp"
#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

TEST(FabricLayout, StartsFullyFree) {
  FabricLayout fabric(1000);
  EXPECT_EQ(fabric.free_area(), 1000);
  EXPECT_EQ(fabric.largest_free_extent(), 1000);
  EXPECT_EQ(fabric.hole_count(), 1u);
  EXPECT_DOUBLE_EQ(fabric.FragmentationIndex(), 0.0);
  EXPECT_TRUE(fabric.Validate().empty());
}

TEST(FabricLayout, RejectsBadConstruction) {
  EXPECT_THROW(FabricLayout(0), std::invalid_argument);
  EXPECT_THROW(FabricLayout(-5), std::invalid_argument);
}

TEST(FabricLayout, FirstFitAllocatesLowestOffset) {
  FabricLayout fabric(1000);
  const auto a = fabric.Allocate(300, Placement::kFirstFit);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->offset, 0);
  EXPECT_EQ(a->size, 300);
  const auto b = fabric.Allocate(200, Placement::kFirstFit);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->offset, 300);
  EXPECT_EQ(fabric.free_area(), 500);
}

TEST(FabricLayout, AllocationFailsWhenFragmented) {
  FabricLayout fabric(1000);
  const auto a = fabric.Allocate(400, Placement::kFirstFit);  // [0, 400)
  const auto b = fabric.Allocate(200, Placement::kFirstFit);  // [400, 600)
  const auto c = fabric.Allocate(400, Placement::kFirstFit);  // [600, 1000)
  ASSERT_TRUE(a && b && c);
  fabric.Free(*a);
  fabric.Free(*c);
  // 800 units free, but the largest hole is 400.
  EXPECT_EQ(fabric.free_area(), 800);
  EXPECT_EQ(fabric.largest_free_extent(), 400);
  EXPECT_FALSE(fabric.CanAllocate(500));
  EXPECT_FALSE(fabric.Allocate(500, Placement::kFirstFit).has_value());
  EXPECT_TRUE(fabric.CanAllocate(400));
  EXPECT_DOUBLE_EQ(fabric.FragmentationIndex(), 0.5);
}

TEST(FabricLayout, BestFitPicksSmallestHole) {
  FabricLayout fabric(1000);
  const auto a = fabric.Allocate(200, Placement::kFirstFit);  // [0, 200)
  const auto b = fabric.Allocate(100, Placement::kFirstFit);  // [200, 300)
  ASSERT_TRUE(a && b);
  fabric.Free(*a);  // holes: [0,200) and [300,1000)
  const auto c = fabric.Allocate(150, Placement::kBestFit);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->offset, 0);  // the 200-hole, not the 700-hole
}

TEST(FabricLayout, WorstFitPicksLargestHole) {
  FabricLayout fabric(1000);
  const auto a = fabric.Allocate(200, Placement::kFirstFit);
  const auto b = fabric.Allocate(100, Placement::kFirstFit);
  ASSERT_TRUE(a && b);
  fabric.Free(*a);  // holes: [0,200) and [300,1000)
  const auto c = fabric.Allocate(150, Placement::kWorstFit);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->offset, 300);
}

TEST(FabricLayout, FreeCoalescesBothNeighbours) {
  FabricLayout fabric(900);
  const auto a = fabric.Allocate(300, Placement::kFirstFit);
  const auto b = fabric.Allocate(300, Placement::kFirstFit);
  const auto c = fabric.Allocate(300, Placement::kFirstFit);
  ASSERT_TRUE(a && b && c);
  fabric.Free(*a);
  fabric.Free(*c);
  EXPECT_EQ(fabric.hole_count(), 2u);
  fabric.Free(*b);  // merges everything back into one hole
  EXPECT_EQ(fabric.hole_count(), 1u);
  EXPECT_EQ(fabric.largest_free_extent(), 900);
  EXPECT_TRUE(fabric.Validate().empty());
}

TEST(FabricLayout, DoubleFreeDetected) {
  FabricLayout fabric(500);
  const auto a = fabric.Allocate(200, Placement::kFirstFit);
  ASSERT_TRUE(a.has_value());
  fabric.Free(*a);
  EXPECT_THROW(fabric.Free(*a), std::logic_error);
  EXPECT_THROW(fabric.Free(Extent{400, 200}), std::logic_error);  // bounds
}

TEST(FabricLayout, CanAllocateAfterFreeing) {
  FabricLayout fabric(1000);
  const auto a = fabric.Allocate(400, Placement::kFirstFit);  // [0,400)
  const auto b = fabric.Allocate(300, Placement::kFirstFit);  // [400,700)
  ASSERT_TRUE(a && b);
  // Current largest hole: [700,1000) = 300.
  EXPECT_FALSE(fabric.CanAllocate(600));
  // Freeing b would merge [400,700) with [700,1000): hole of 600.
  const Extent pending[] = {*b};
  EXPECT_TRUE(fabric.CanAllocateAfterFreeing(pending, 600));
  EXPECT_FALSE(fabric.CanAllocateAfterFreeing(pending, 700));
  // Freeing a too joins nothing extra (a is not adjacent to the rest).
  const Extent both[] = {*a, *b};
  EXPECT_TRUE(fabric.CanAllocateAfterFreeing(both, 1000));
}

TEST(FabricLayout, RandomizedAllocFreeKeepsInvariants) {
  Rng rng(31);
  FabricLayout fabric(4000);
  std::vector<Extent> live;
  Area live_area = 0;
  for (int op = 0; op < 5000; ++op) {
    if (live.empty() || rng.uniform() < 0.55) {
      const Area size = rng.uniform_int(50, 600);
      const auto placement = static_cast<Placement>(rng.uniform_int(0, 2));
      const auto extent = fabric.Allocate(size, placement);
      if (extent) {
        live.push_back(*extent);
        live_area += size;
      }
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      fabric.Free(live[pick]);
      live_area -= live[pick].size;
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(fabric.free_area(), 4000 - live_area) << "op " << op;
    const auto violations = fabric.Validate();
    ASSERT_TRUE(violations.empty()) << "op " << op << ": " << violations[0];
  }
}

// ---- Node / store integration ----

Configuration MakeConfig(std::uint32_t id, Area area) {
  Configuration c;
  c.id = ConfigId{id};
  c.required_area = area;
  c.config_time = 10;
  return c;
}

TEST(ContiguousNode, FragmentationBlocksPlacement) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{}, /*contiguous=*/true);
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 400));
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 200));
  const SlotIndex c = n.SendBitstream(MakeConfig(2, 400));
  (void)b;
  n.MakeNodePartiallyBlank(a, 400);
  n.MakeNodePartiallyBlank(c, 400);
  // 800 free but split 400 + 400: a 500-unit configuration cannot land.
  EXPECT_EQ(n.available_area(), 800);
  EXPECT_FALSE(n.CanHost(500));
  EXPECT_FALSE(n.TrySendBitstream(MakeConfig(3, 500)).has_value());
  EXPECT_THROW((void)n.SendBitstream(MakeConfig(3, 500)), std::logic_error);
  EXPECT_GT(n.Fragmentation(), 0.4);
  // The scalar model would have accepted it.
  Node scalar(NodeId{1}, 1000, FamilyId{0}, Caps{});
  EXPECT_TRUE(scalar.CanHost(500));
}

TEST(ContiguousNode, CanHostAfterReclaimingRespectsAdjacency) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{}, /*contiguous=*/true);
  const SlotIndex a = n.SendBitstream(MakeConfig(0, 400));  // [0,400)
  const SlotIndex b = n.SendBitstream(MakeConfig(1, 300));  // [400,700)
  (void)a;
  // Holes: [700,1000). Reclaiming b merges to [400,1000) = 600.
  const SlotIndex reclaim[] = {b};
  EXPECT_TRUE(n.CanHostAfterReclaiming(reclaim, 600));
  EXPECT_FALSE(n.CanHostAfterReclaiming(reclaim, 700));
}

TEST(ContiguousNode, ScalarNodeRejectsLayoutQueries) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{});
  EXPECT_FALSE(n.contiguous());
  EXPECT_THROW((void)n.layout(), std::logic_error);
  EXPECT_THROW((void)n.CanHostAfterReclaiming({}, 100), std::logic_error);
  EXPECT_DOUBLE_EQ(n.Fragmentation(), 0.0);
}

TEST(ContiguousNode, BlankResetsLayout) {
  Node n(NodeId{0}, 1000, FamilyId{0}, Caps{}, /*contiguous=*/true);
  (void)n.SendBitstream(MakeConfig(0, 400));
  (void)n.SendBitstream(MakeConfig(1, 300));
  n.MakeNodeBlank();
  EXPECT_EQ(n.layout().free_area(), 1000);
  EXPECT_EQ(n.layout().hole_count(), 1u);
  EXPECT_TRUE(n.CanHost(1000));
}

TEST(ContiguousStore, ConsistencyHoldsUnderOperations) {
  ConfigCatalogue catalogue;
  catalogue.Add(MakeConfig(0, 300));
  catalogue.Add(MakeConfig(1, 500));
  ResourceStore store(std::move(catalogue));
  const NodeId node = store.AddNode(1000, FamilyId{0}, Caps{}, 0,
                                    /*contiguous=*/true);
  const EntryRef a = store.Configure(node, ConfigId{0});
  const EntryRef b = store.Configure(node, ConfigId{1});
  store.AssignTask(b, TaskId{1});
  store.ReclaimSlot(a);
  EXPECT_TRUE(AuditsClean(store));
  (void)store.ReleaseTask(b);
  store.BlankNode(node);
  EXPECT_TRUE(AuditsClean(store));
  const auto frag = store.Fragmentation();
  EXPECT_DOUBLE_EQ(frag.mean, 0.0);
}

TEST(ContiguousStore, FindAnyIdleNodeRespectsContiguity) {
  ConfigCatalogue catalogue;
  catalogue.Add(MakeConfig(0, 400));  // will sit at [0,400)
  catalogue.Add(MakeConfig(1, 200));  // busy divider at [400,600)
  catalogue.Add(MakeConfig(2, 400));  // [600,1000)
  catalogue.Add(MakeConfig(3, 700));  // the request that cannot fit
  ResourceStore store(std::move(catalogue));
  const NodeId node = store.AddNode(1000, FamilyId{0}, Caps{}, 0,
                                    /*contiguous=*/true);
  const EntryRef a = store.Configure(node, ConfigId{0});
  const EntryRef divider = store.Configure(node, ConfigId{1});
  const EntryRef c = store.Configure(node, ConfigId{2});
  store.AssignTask(divider, TaskId{1});
  (void)a;
  (void)c;
  // Idle entries a (400) + c (400) + 0 spare = 800 >= 700 scalar-wise, but
  // the busy divider at [400,600) caps any merged hole at 400.
  EXPECT_FALSE(store.FindAnyIdleNode(700).has_value());
  // A 400-unit request fits by reclaiming just the first idle entry.
  const auto plan = store.FindAnyIdleNode(400);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node, node);
}

TEST(ContiguousSimulation, EndToEndWithFragmentation) {
  // Whole simulations run correctly under the contiguous model and leave
  // consistent stores. Fragmentation should not inflate terminal states.
  ConfigCatalogue catalogue;
  for (std::uint32_t i = 0; i < 6; ++i) {
    catalogue.Add(MakeConfig(i, 200 + 150 * static_cast<Area>(i)));
  }
  ResourceStore store(std::move(catalogue));
  Rng rng(77);
  NodeGenParams params;
  params.count = 20;
  params.contiguous_placement = true;
  params.placement = Placement::kBestFit;
  store.InitNodes(params, rng);
  for (const Node& n : store.nodes()) {
    EXPECT_TRUE(n.contiguous());
  }
  EXPECT_TRUE(AuditsClean(store));
}

}  // namespace
}  // namespace dreamsim::resource

// StructureCorruptor: deliberate invariant breakage for auditor tests.
//
// Each method injects exactly one class of structural corruption behind the
// structures' backs (via friendship), so tests/test_structure_auditor.cpp
// can prove the StructureAuditor is not vacuously green: every seeded
// corruption must surface as the matching violation slug, and nothing else.
//
// TEST SUPPORT ONLY. Nothing in the production tree may call this class;
// dreamsim_lint's mutation rules treat it like the structures' own code.
#pragma once

#include "resource/entry_list.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {

class StructureCorruptor {
 public:
  /// Fig. 3 orphan: appends `entry` to `config`'s idle list, keeping the
  /// position map internally consistent — only the cross-structure diff
  /// against the node slots can catch it. Expected slug: fig3.idle-list.
  static void InjectOrphanIdleEntry(resource::ResourceStore& store,
                                    ConfigId config,
                                    resource::EntryRef entry);

  /// Swaps the position-map entries of the first two cells of `config`'s
  /// idle list (requires >= 2 entries). Expected slug: fig3.positions.
  static void CorruptPositionMap(resource::ResourceStore& store,
                                 ConfigId config);

  /// Bumps the StoreIndex global view's config-count Fenwick leaf for
  /// `node` by one (requires the index to be enabled). Expected slug:
  /// idx.count.
  static void SkewIndexConfigCount(resource::ResourceStore& store,
                                   NodeId node);

  /// Raises the failed flag on `node` directly, leaving every list it
  /// appears in untouched — the "failed node still visible" class.
  /// Expected slugs: fault.visibility (plus fault.count for the stale
  /// store counter).
  static void ExposeFailedNode(resource::ResourceStore& store, NodeId node);

  /// Shrinks a configured, non-failed `node` so that its live ReqArea
  /// exceeds its TotalArea by one unit: TotalArea and AvailableArea drop
  /// together (Eq. 4 still balances, AvailableArea becomes -1) and the
  /// store's totals and index follow the change. Expected slug: eq4.area.
  static void OvercommitNode(resource::ResourceStore& store, NodeId node);

  /// Trims the last unit off the first free hole of contiguous `node`'s
  /// fabric: the unit is then neither free nor owned by a slot. Expected
  /// slug: fabric.layout.
  static void LeakFabricHole(resource::ResourceStore& store, NodeId node);

  /// Shortens the extent of live `slot` on contiguous `node` by one unit,
  /// leaving the free list alone. Expected slug: fabric.layout.
  static void ShrinkSlotExtent(resource::ResourceStore& store, NodeId node,
                               resource::SlotIndex slot);

  /// Adds one unit of area to the store's maintained Eq. 6 wasted-area
  /// total, leaving every node untouched. Expected slug: store.totals.
  static void SkewStoreTotals(resource::ResourceStore& store);

  /// Moves a queued task's seq from its home bucket to `wrong_config`'s
  /// bucket in the SusQueueIndex (requires the drain index). Expected
  /// slug: susidx.bucket.
  static void MisplaceSusBucketEntry(resource::SuspensionQueue& queue,
                                     TaskId task,
                                     ConfigId wrong_config);

  /// Registers a live action whose sequence has no heap entry — an event
  /// that can never fire. Expected slug: evq.orphan-action.
  static void OrphanEventAction(sim::EventQueue& queue);
};

}  // namespace dreamsim::analysis

// StructureAuditor: from-first-principles validation of every intrusive
// scheduler structure (DESIGN.md §12).
//
// The paper's Fig. 3 lists and their shadow representations (StoreIndex,
// SusQueueIndex, fault visibility) are all *derived* state: the nodes'
// config-task-pair slots and the suspension FIFO are the ground truth.
// Every past bug class in this repo — double-armed fault chains, stacked
// renewal events, index/scan divergence — was a silent divergence between
// the two that only a differential test happened to catch. The auditor
// closes that gap: it walks the primary state, independently reconstructs
// what every derived structure *must* contain, and diffs that against the
// live structures, reporting each divergence with a human-readable path
// (node id, config, family, list position).
//
// The auditor is the only checker of these structures: tests, --audit and
// the perfbench output check all run it. It restates the membership rules
// from the documented invariants instead of asking a structure to check
// itself, because a bug pattern that fools a structure can fool a
// validator maintained next to it.
//
// Read-only by construction: every entry point takes const references and
// never charges the WorkloadMeter (an audit is tooling, not scheduler
// effort the paper's Table I would count).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "resource/task.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {

/// One divergence between a live structure and reconstructed ground truth.
struct Violation {
  /// Invariant slug from the DESIGN.md §12 catalogue (e.g. "fig3.idle-list",
  /// "fault.visibility", "susidx.bucket").
  std::string invariant;
  /// Human-readable location: node id, config, family, list position.
  std::string path;
  /// What diverged (expected vs actual).
  std::string detail;
};

/// The outcome of one audit pass. Violations appear in structure-walk
/// order, so the first entry is the divergence closest to the ground truth
/// (the most useful one to debug from).
struct AuditReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// Multi-line rendering: one "[slug] path: detail" line per violation,
  /// capped at `max_lines` (docs/formats.md "Auditor violation report").
  [[nodiscard]] std::string Render(std::size_t max_lines = 8) const;
};

/// Stateless audit passes over the scheduler structures. All entry points
/// are static; the class exists to be befriended by the audited structures.
class StructureAuditor {
 public:
  /// Audits the Fig. 3 lists, the blank list, the Eq. 4 area accounting,
  /// the contiguous fabric layouts, the fault-visibility rules, the
  /// maintained system totals, and (when enabled) the StoreIndex mirror.
  [[nodiscard]] static AuditReport AuditStore(
      const resource::ResourceStore& store);

  /// Audits the suspension FIFO, its attribute table, and (when enabled)
  /// the SusQueueIndex seq/Fenwick/bucket/group/treap structures.
  [[nodiscard]] static AuditReport AuditSuspensionQueue(
      const resource::SuspensionQueue& queue);

  /// Audits the pending-event set: live-action/heap-entry correspondence,
  /// sequence bounds, ordering, and that no live event lies before `now`.
  [[nodiscard]] static AuditReport AuditEventQueue(
      const sim::EventQueue& queue, Tick now);

  /// All three passes, concatenated in the order above.
  [[nodiscard]] static AuditReport AuditAll(
      const resource::ResourceStore& store,
      const resource::SuspensionQueue& queue, const sim::EventQueue& events,
      Tick now);

  /// Cross-checks the live metrics registry against the structures it
  /// observes ("metrics.conservation"): event-queue flow conservation,
  /// suspension-queue depth, fault-gauge vs failed nodes, and terminal task
  /// counters vs TaskStore states. Valid only while the registry covers
  /// exactly the current run (enabled before the run, Reset() at its
  /// start); returns an empty report when the registry is disabled.
  [[nodiscard]] static AuditReport AuditMetrics(
      const resource::ResourceStore& store,
      const resource::SuspensionQueue& queue, const sim::EventQueue& events,
      const resource::TaskStore& tasks);

 private:
  static void AuditEntryLists(const resource::ResourceStore& store,
                              AuditReport& report);
  static void AuditAreaAccounting(const resource::ResourceStore& store,
                                  AuditReport& report);
  static void AuditFabricLayouts(const resource::ResourceStore& store,
                                 AuditReport& report);
  static void AuditBlankList(const resource::ResourceStore& store,
                             AuditReport& report);
  static void AuditFaultVisibility(const resource::ResourceStore& store,
                                   AuditReport& report);
  static void AuditTotals(const resource::ResourceStore& store,
                          AuditReport& report);
  static void AuditStoreIndex(const resource::ResourceStore& store,
                              AuditReport& report);
  static void AuditSusIndex(const resource::SuspensionQueue& queue,
                            AuditReport& report);
};

}  // namespace dreamsim::analysis

// Indexed fast path for the ResourceStore scheduler queries.
//
// The paper's headline metric is *modeled* search effort: every query walks
// the Fig. 3 lists and charges one step per visited cell (Table I, Fig. 9).
// The reference implementation executes those walks literally, so a
// paper-scale sweep pays O(tasks x nodes) host work just to compute numbers
// that are derivable from aggregate state. This layer decouples the two:
// each query is answered from ordered indexes and segment/Fenwick trees in
// O(log N) amortized host work, while the caller charges the WorkloadMeter
// exactly the steps the reference scan would have charged (the
// modeled-effort contract; DESIGN.md "Scheduler index"). Decisions and step
// counts are bit-identical with the scans — tests/test_store_index_diff.cpp
// proves it differentially.
//
// Structure: one View per device family plus a global View (family-less
// queries). A node appears in exactly two views, so total memory stays
// O(N). Each View keys its members by ascending node id (`ids[pos]`), the
// position every tree/prefix structure is indexed by:
//   - potential:   max segment tree over TotalArea - sum(busy entry areas),
//                  the Algorithm 1 feasibility bound ("max reclaimable
//                  area") used to prune FindAnyIdleNode candidates;
//   - busy_total:  max segment tree over (busy ? TotalArea : -inf) making
//                  AnyBusyNodeCouldFit an O(log N) first-at-least descent;
//   - available:   max segment tree over AvailableArea (first-fit descent);
//   - config_count: Fenwick tree of live-entry counts, evaluating the
//                  analytic step formulas (prefix sums of slots a scan
//                  would have visited);
//   - ordered sets keyed by (area, node id): blank nodes by TotalArea,
//                  all/partially-blank nodes by AvailableArea, idle
//                  configured nodes by TotalArea.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resource/index_primitives.hpp"
#include "resource/store.hpp"

namespace dreamsim::resource {

/// The acceleration structures. Owned by ResourceStore; every mutation path
/// calls Refresh() on the touched node, every accelerated query reads pure
/// index state. The index never touches the WorkloadMeter — the store
/// charges the analytic step counts.
class StoreIndex {
 public:
  explicit StoreIndex(const ConfigCatalogue& configs) : configs_(&configs) {}

  /// Re-points the catalogue reference after the owning store moved.
  void RebindCatalogue(const ConfigCatalogue& configs) { configs_ = &configs; }

  /// Registers a node (ids must arrive dense from 0, in order) with the
  /// given busy area (sum of its busy entries' required areas).
  void AddNode(const Node& node, Area busy_area);

  /// Re-derives every indexed property of `node` and applies the delta.
  void Refresh(const Node& node, Area busy_area);

  // --- Query mirrors (decision only; the store charges the steps) ---

  /// FindBestBlankNode: minimum TotalArea among fitting blank nodes; ties
  /// resolved by blank-list position (`blank_pos`), matching the reference
  /// scan's first-in-list-order winner.
  [[nodiscard]] std::optional<NodeId> BestBlank(
      Area needed_area, FamilyId family,
      const std::vector<std::size_t>& blank_pos) const;

  /// FindBestPartiallyBlankNode: non-blank node with minimum AvailableArea
  /// >= needed (ties: minimum id); contiguous nodes must pass CanHost.
  [[nodiscard]] std::optional<NodeId> BestPartiallyBlank(
      Area needed_area, FamilyId family, const std::vector<Node>& nodes) const;

  /// FindBestIdleConfiguredNode: idle, non-blank node with minimum
  /// TotalArea >= needed (ties: minimum id).
  [[nodiscard]] std::optional<NodeId> BestIdleConfigured(Area needed_area,
                                                         FamilyId family) const;

  struct BusyFit {
    bool found = false;
    Steps steps = 0;  // what the early-exiting reference scan would charge
  };
  /// AnyBusyNodeCouldFit plus its analytic step charge.
  [[nodiscard]] BusyFit AnyBusyFit(Area needed_area, FamilyId family) const;

  struct AnyIdle {
    std::optional<ReconfigPlan> plan;
    Steps steps = 0;  // node visits + slot visits of the reference scan
  };
  /// FindAnyIdleNode (Algorithm 1): candidates come from the `potential`
  /// descent in id order; the per-candidate reclaim plan replays the
  /// paper's slot-order accumulation.
  [[nodiscard]] AnyIdle FindAnyIdle(Area needed_area, FamilyId family,
                                    const std::vector<Node>& nodes) const;

  /// Heuristic Class B host search (first/best/worst fit over all nodes).
  [[nodiscard]] std::optional<NodeId> RankedHost(
      Area needed_area, HostRank rank, FamilyId family,
      const std::vector<Node>& nodes) const;

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// (area, node id): ordered first by key area, then by id — lower_bound
  /// on {area, 0} lands on the tightest fit with the smallest id.
  using AreaKey = std::pair<Area, std::uint32_t>;

  struct View {
    std::vector<std::uint32_t> ids;  // ascending node ids in this view
    MaxSegTree potential;
    MaxSegTree busy_total;
    MaxSegTree available;
    PrefixSumTree config_count;
    std::set<AreaKey> blank_by_total;
    std::set<AreaKey> all_by_avail;
    std::set<AreaKey> partial_by_avail;
    std::set<AreaKey> idle_cfg_by_total;
  };

  /// Last-applied snapshot of one node's indexed properties.
  struct Snapshot {
    Area total = 0;
    Area available = 0;
    Area potential = 0;
    std::int64_t config_count = 0;
    bool blank = true;
    bool busy = false;
    bool failed = false;
    std::uint32_t family = 0;     // FamilyId::kInvalidValue when familyless
    std::size_t family_pos = 0;   // position within the family view
  };

  [[nodiscard]] static Snapshot Capture(const Node& node, Area busy_area);
  // Failed nodes are invisible to every query: their tree keys collapse to
  // -inf and they leave every ordered set, exactly as the reference scans
  // skip them (absent from the blank list, CanHost/busy() false, no slots).
  [[nodiscard]] static std::int64_t PotentialKey(const Snapshot& snap);
  [[nodiscard]] static std::int64_t AvailableKey(const Snapshot& snap);
  [[nodiscard]] const View* ViewFor(FamilyId family) const;
  static void AppendToView(View& view, const Snapshot& snap, std::uint32_t id);
  static void ApplyToView(View& view, std::size_t pos, const Snapshot& was,
                          const Snapshot& now, std::uint32_t id);
  [[nodiscard]] std::optional<ReconfigPlan> ReplayReclaimScan(
      const Node& node, Area needed_area) const;

  const ConfigCatalogue* configs_;
  View global_;
  std::unordered_map<std::uint32_t, View> family_views_;
  std::vector<Snapshot> cached_;  // indexed by node id
};

}  // namespace dreamsim::resource

// ResourceStore: the resource information manager's dynamic data structures
// (Sec. IV-B, Fig. 3) behind one consistent interface.
//
// It owns the nodes, the configuration catalogue, the per-configuration
// idle/busy lists, the blank-node list, and the workload meter. Every query
// the scheduler runs is a counted traversal; every mutation keeps the lists
// consistent with the node slot states (the invariants the
// analysis::StructureAuditor checks, DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "resource/config.hpp"
#include "resource/entry_list.hpp"
#include "resource/node.hpp"
#include "resource/workload_meter.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

class StoreIndex;

/// Result of Algorithm 1 (FindAnyIdleNode): a reconfigurable node plus the
/// idle entries whose removal frees enough area for the new configuration.
struct ReconfigPlan {
  NodeId node;
  std::vector<SlotIndex> removable_entries;
};

/// Host-selection order for FindRankedHostNode (the heuristic baselines'
/// Class B search over every node).
enum class HostRank : std::uint8_t {
  kFirstFit,  // first fitting node in id order
  kBestFit,   // minimum AvailableArea among fitting nodes (ties: min id)
  kWorstFit,  // maximum AvailableArea among fitting nodes (ties: min id)
};

/// Whole-system aggregates over the node population (DESIGN.md "System
/// totals: one source of truth"). The store maintains one record at its
/// mutation points; the monitor, the metrics, the timeline sampler and the
/// state observer all read it. Integer throughout, so every reader sees
/// exactly the sums an O(N) walk over the nodes would produce.
struct StoreTotals {
  Area wasted_area = 0;          // Eq. 6: Σ AvailableArea, non-blank nodes
  Area idle_wasted_area = 0;     // Eq. 6 restricted to non-busy nodes
  Area configured_area = 0;      // Σ (TotalArea − AvailableArea)
  Area total_fabric_area = 0;    // Σ TotalArea
  std::size_t blank_nodes = 0;   // zero-configuration nodes, failed included
  std::size_t busy_nodes = 0;    // nodes running >= 1 task
  std::size_t running_tasks = 0;

  bool operator==(const StoreTotals&) const = default;
};

/// Owning store of nodes + configurations + membership lists.
class ResourceStore {
 public:
  explicit ResourceStore(ConfigCatalogue configs);
  ~ResourceStore();
  ResourceStore(ResourceStore&&) noexcept;
  ResourceStore& operator=(ResourceStore&&) noexcept;

  // --- Construction of the node population ---

  /// Adds one node; returns its id. `contiguous` enables the
  /// fabric-placement extension on this node.
  NodeId AddNode(Area total_area, FamilyId family = FamilyId{0},
                 Caps caps = {}, Tick network_delay = 0,
                 bool contiguous = false,
                 Placement placement = Placement::kFirstFit);

  /// InitNodes(): generates `params.count` nodes with uniformly distributed
  /// TotalArea in [min_area, max_area] (Table II), families assigned
  /// round-robin, caps scaled with area.
  void InitNodes(const NodeGenParams& params, Rng& rng);

  /// Heterogeneous-population variant (scenario `device class:` blocks):
  /// generates each class in order, class index == FamilyId. Every class
  /// draws from its own deterministic sub-stream of `seed_base` so classes
  /// are statistically decoupled — except class 0, which consumes
  /// Rng(seed_base) exactly like InitNodes() does, so a single-class
  /// population with matching ranges is bit-identical to the homogeneous
  /// path (the scenario differential contract, DESIGN.md §15).
  void InitDeviceClasses(std::span<const DeviceClassParams> classes,
                         std::uint64_t seed_base);

  // --- Accessors ---

  [[nodiscard]] const ConfigCatalogue& configs() const { return configs_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] WorkloadMeter& meter() { return meter_; }
  [[nodiscard]] const WorkloadMeter& meter() const { return meter_; }

  [[nodiscard]] const EntryList& idle_list(ConfigId config) const;
  [[nodiscard]] const EntryList& busy_list(ConfigId config) const;
  [[nodiscard]] std::size_t blank_node_count() const { return blank_.size(); }
  [[nodiscard]] std::size_t failed_node_count() const { return failed_count_; }

  /// The maintained system totals. O(1); not charged to the meter.
  [[nodiscard]] const StoreTotals& totals() const { return totals_; }

  // --- Indexed fast path (DESIGN.md "Scheduler index") ---

  /// Enables/disables the O(log N) query index. Decisions and WorkloadMeter
  /// charges are bit-identical either way; off means every query runs the
  /// literal counted scan. Rebuilds from current node state, so it can be
  /// toggled at any point. Default: enabled.
  void SetIndexed(bool enabled);
  [[nodiscard]] bool indexed() const { return index_ != nullptr; }

  /// TotalArea minus the areas of busy entries: the Algorithm 1 upper bound
  /// on what reclaiming idle entries could free ("max reclaimable area").
  /// O(1); not charged to the meter (metric bookkeeping, not search).
  [[nodiscard]] Area ReclaimablePotential(NodeId id) const;

  /// True when `id` could host `needed_area` now or after reclaiming its
  /// idle entries — the exact outcome of the suspension-drain prefilter's
  /// idle-area accumulation, answered in O(1). Not charged to the meter
  /// (the reference accumulation is not either).
  [[nodiscard]] bool CouldEventuallyHost(NodeId id, Area needed_area) const;

  /// The threshold form of CouldEventuallyHost: the largest area for which
  /// it returns true (it is monotone in `needed_area`). Lets the drain
  /// index evaluate the prefilter for a whole queue with one bound.
  [[nodiscard]] Area CouldEventuallyHostBound(NodeId id) const;

  // --- Counted scheduler queries (StepKind::kSchedulingSearch) ---

  /// FindBestNode(): among idle entries configured with `config`, the one
  /// on the node with minimum AvailableArea ("so that the nodes with larger
  /// AvailableArea are utilized for later re-configurations").
  [[nodiscard]] std::optional<EntryRef> FindBestIdleEntry(ConfigId config);

  /// Best blank node for a configuration of `needed_area`: minimum
  /// TotalArea among blank nodes that fit it. A valid `family` restricts
  /// candidates to that device family (bitstream compatibility, Eq. 1/2);
  /// invalid means unconstrained (the paper's single-family evaluation).
  [[nodiscard]] std::optional<NodeId> FindBestBlankNode(
      Area needed_area, FamilyId family = FamilyId::invalid());

  /// FindBestPartiallyBlankNode(): non-blank node with AvailableArea >=
  /// needed_area, minimizing AvailableArea (tightest fit). Family filter
  /// as in FindBestBlankNode().
  [[nodiscard]] std::optional<NodeId> FindBestPartiallyBlankNode(
      Area needed_area, FamilyId family = FamilyId::invalid());

  /// FindAnyIdleNode() — Algorithm 1: a node whose AvailableArea plus the
  /// areas of its idle entries reaches `needed_area`; reports which idle
  /// entries to reclaim. The entry list is the minimal prefix (in slot
  /// order) that reaches the target, as in the paper's pseudo-code.
  /// Family filter as in FindBestBlankNode().
  [[nodiscard]] std::optional<ReconfigPlan> FindAnyIdleNode(
      Area needed_area, FamilyId family = FamilyId::invalid());

  /// True when some currently busy node could *eventually* host a
  /// configuration of `needed_area` (TotalArea large enough) — the paper's
  /// "query busy list for potential candidate" before suspending.
  /// Family filter as in FindBestBlankNode().
  [[nodiscard]] bool AnyBusyNodeCouldFit(
      Area needed_area, FamilyId family = FamilyId::invalid());

  /// Full-reconfiguration fallback: the configured, idle, non-blank node
  /// with minimum TotalArea >= needed_area (ties: lowest id). Charges one
  /// step per node, like the scan it models.
  [[nodiscard]] std::optional<NodeId> FindBestIdleConfiguredNode(
      Area needed_area, FamilyId family = FamilyId::invalid());

  /// Heuristic Class B host search: the node ranked best by `rank` among
  /// those that can host `needed_area` right now. Charges one step per
  /// node (the reference scan never early-exits).
  [[nodiscard]] std::optional<NodeId> FindRankedHostNode(
      Area needed_area, HostRank rank, FamilyId family = FamilyId::invalid());

  // --- Mutations (housekeeping steps) ---

  /// SendBitstream() + list maintenance: configures `config` onto `node_id`
  /// and registers the fresh idle entry. Throws if the area does not fit.
  EntryRef Configure(NodeId node_id, ConfigId config);

  /// MakeNodePartiallyBlank() + list maintenance: removes one idle entry
  /// and reclaims its area.
  void ReclaimSlot(EntryRef entry);

  /// MakeNodeBlank() + list maintenance: removes every (idle) entry of the
  /// node. Throws if any entry is busy.
  void BlankNode(NodeId node_id);

  /// AddTaskToNode() + list maintenance: idle entry -> busy entry.
  void AssignTask(EntryRef entry, TaskId task);

  /// RemoveTaskFromNode() + list maintenance: busy entry -> idle entry.
  /// Returns the task that was running there.
  TaskId ReleaseTask(EntryRef entry);

  // --- Fault injection (DESIGN.md §10) ---

  /// Node failure: atomically removes the node from every structure —
  /// idle/busy entry lists, the blank list, and the query index — wipes
  /// all of its configurations, and marks it failed. Returns the tasks
  /// that were running there (in slot order) so the simulator can re-enter
  /// them through the suspension path. List removals charge the same
  /// housekeeping steps a completion-time removal would; the charges do
  /// not depend on the index mode. Throws if the node is already failed.
  std::vector<TaskId> FailNode(NodeId node_id);

  /// Node repair: re-inserts the node as a blank node (it pays full
  /// configuration time again). Throws if the node is not failed.
  void RepairNode(NodeId node_id);

  // --- Metrics support ---

  /// Eq. 6: sum of AvailableArea over nodes holding >= 1 configuration.
  /// O(1) read of totals(); not charged to the workload meter (it is
  /// metric bookkeeping, not scheduler effort).
  [[nodiscard]] Area TotalWastedArea() const { return totals_.wasted_area; }

  /// Variant of Eq. 6 restricted to configured nodes that are currently
  /// idle (no running task) — area that is provably going to waste right
  /// now. Backs WasteAccounting::kIdleConfigured. O(1).
  [[nodiscard]] Area TotalIdleWastedArea() const {
    return totals_.idle_wasted_area;
  }

  /// Sum of reconfig_count over all nodes.
  [[nodiscard]] std::uint64_t TotalReconfigurations() const;

  /// Mean and max external fragmentation across nodes (0 under the scalar
  /// model). Meaningful with NodeGenParams::contiguous_placement.
  struct FragmentationStats {
    double mean = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] FragmentationStats Fragmentation() const;

  /// Number of nodes that performed at least one reconfiguration
  /// (Table I "total used nodes").
  [[nodiscard]] std::size_t UsedNodeCount() const;

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  static constexpr std::size_t kNotBlank = static_cast<std::size_t>(-1);

  [[nodiscard]] EntryList& idle_list_mut(ConfigId config);
  [[nodiscard]] EntryList& busy_list_mut(ConfigId config);
  /// Shared InitNodes/InitDeviceClasses tail: pre-sizes the per-config
  /// idle/busy lists for a population of `node_count` nodes.
  void ReserveEntryLists(int node_count);
  void RemoveFromBlank(NodeId node_id);
  void PushBlank(NodeId node_id);
  /// The single post-mutation hook: moves totals_ by the node's change
  /// since `before` (its contribution captured ahead of the mutation) and
  /// refreshes the index.
  void Refresh(NodeId node_id, const StoreTotals& before);

  ConfigCatalogue configs_;
  std::vector<Node> nodes_;
  std::vector<EntryList> idle_lists_;   // indexed by ConfigId::value()
  std::vector<EntryList> busy_lists_;   // indexed by ConfigId::value()
  std::vector<NodeId> blank_;           // nodes with zero configurations
  std::vector<std::size_t> blank_pos_;  // node id -> blank_ slot, kNotBlank
  std::vector<Area> busy_area_;         // node id -> sum of busy entry areas
  std::size_t failed_count_ = 0;        // nodes currently failed
  StoreTotals totals_;                  // maintained by AddNode + Refresh
  std::unique_ptr<StoreIndex> index_;   // null = scan mode
  Area min_config_area_ = 0;            // smallest catalogue area (slot hint)
  WorkloadMeter meter_;
};

}  // namespace dreamsim::resource

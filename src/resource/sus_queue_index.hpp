// Indexed fast path for the suspension-queue drain queries.
//
// Every task completion drains the SusList: the reference implementation
// walks the whole queue (all three policy variants — full-mode exact
// match/fallback, partial priority, partial FIFO) and charges one modeled
// step per visited entry, so a saturated run pays O(completions x queue)
// host work. This index answers each candidate-selection query in
// O(log Q) host work from incrementally maintained structures, while the
// caller charges the WorkloadMeter exactly what the literal scan would
// have charged (the modeled-effort contract; DESIGN.md "Scheduler
// index"). Decisions are bit-identical with the scans —
// tests/test_sus_drain_diff.cpp proves it differentially.
//
// Layout. Each queued task gets a monotonically increasing sequence
// number at Add time; because the queue is strictly FIFO (a task is
// enqueued at the back and only ever removed, never reordered), queue
// position order == seq order, and an entry's current position is the
// count of live seqs below its own (Fenwick prefix sum). On top of that:
//   - buckets keyed by resolved_config: ordered seq set (oldest match)
//     and (-priority, seq) set (best-priority match, FIFO tie-break) for
//     the full-mode exact-match pick and the partial-mode "rule 1"
//     candidates;
//   - per-family-group structures for the area-bounded fallback
//     ("rule 3": needed_area <= bound). A group holds the tasks whose
//     resolved config pins them to one device family, plus a wildcard
//     group for tasks that are compatible with every family (unresolved
//     config or family-less config):
//       - a MaxSegTree over seq positions storing -needed_area, so
//         "earliest entry at/after a cursor with needed_area <= bound" is
//         one FirstAtLeast(cursor, -bound) descent;
//       - an AreaTreap ordered by (-priority, seq) with subtree-min
//         needed_area, so "highest-priority entry with needed_area <=
//         bound" is one left-first descent.
// A task lives in exactly one bucket and one group, so memory stays O(Q).
// The index never touches the WorkloadMeter — the simulator charges the
// analytic step counts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resource/index_primitives.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// The drain-relevant attributes of one suspended task, captured at
/// enqueue time and re-synced whenever a failed drain attempt may have
/// rewritten the task's resolved config.
struct SusEntryAttrs {
  ConfigId resolved_config;  // invalid = not resolved yet
  FamilyId config_family;    // family of resolved config; invalid = any
  Area needed_area = 0;
  double priority = 0.0;

  friend bool operator==(const SusEntryAttrs&,
                         const SusEntryAttrs&) = default;
};

/// Treap ordered by (-priority, seq) — i.e. highest priority first, FIFO
/// ties — augmented with the subtree minimum of needed_area, supporting
/// "first element in order with needed_area <= bound" by left-first
/// descent. Heap priorities are a deterministic hash of seq, so structure
/// (and therefore behaviour) is reproducible across runs.
class AreaTreap {
 public:
  void Insert(double neg_priority, std::uint64_t seq, Area area);
  void Erase(double neg_priority, std::uint64_t seq);
  /// (neg_priority, seq) of the first in-order element with area <=
  /// `bound`, or nullopt.
  [[nodiscard]] std::optional<std::pair<double, std::uint64_t>>
  FirstWithAreaAtMost(Area bound) const;
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  // The auditor walks the treap to re-derive its in-order content and
  // augmentation from first principles. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;

  static constexpr std::int32_t kNull = -1;
  struct Node {
    double neg_priority = 0.0;
    std::uint64_t seq = 0;
    Area area = 0;
    Area min_area = 0;  // min over this subtree
    std::uint64_t heap = 0;
    std::int32_t left = kNull;
    std::int32_t right = kNull;
  };

  [[nodiscard]] Area MinArea(std::int32_t n) const;
  void Pull(std::int32_t n);
  /// Splits `n` into keys < (np, seq) and keys >= (np, seq).
  void Split(std::int32_t n, double np, std::uint64_t seq, std::int32_t& lo,
             std::int32_t& hi);
  [[nodiscard]] std::int32_t Merge(std::int32_t lo, std::int32_t hi);

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_;
  std::int32_t root_ = kNull;
  std::size_t count_ = 0;
};

/// The acceleration structures. Owned by SuspensionQueue; every mutation
/// keeps them in sync, every drain query reads pure index state.
class SusQueueIndex {
 public:
  /// Appends `task` at the back of the FIFO. A task must not already be
  /// present.
  void Add(TaskId task, const SusEntryAttrs& attrs);

  /// Removes `task` (must be present).
  void Remove(TaskId task);

  /// Re-derives `task`'s placement after its attributes changed (no-op
  /// when they did not).
  void Refresh(TaskId task, const SusEntryAttrs& attrs);

  [[nodiscard]] bool Contains(TaskId task) const {
    return slots_.contains(task.value());
  }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Current FIFO position of `task` (0 = oldest). Task must be present.
  [[nodiscard]] std::size_t PositionOf(TaskId task) const;

  // --- Query mirrors (decision only; the caller charges the steps) ---

  /// Oldest entry whose resolved_config == `config` (full-mode exact
  /// match, FIFO policy).
  [[nodiscard]] std::optional<std::size_t> OldestExactMatch(
      ConfigId config) const;

  /// Highest-priority entry whose resolved_config == `config`, FIFO
  /// tie-break (full-mode exact match, priority policy).
  [[nodiscard]] std::optional<std::size_t> BestPriorityExactMatch(
      ConfigId config) const;

  /// Earliest entry at position >= `from` (position of `from_task`; pass
  /// invalid to start at the front) that either exact-matches
  /// `match_config` (when valid) or is family-compatible with `family`
  /// and has needed_area <= `area_bound` — the CouldUseNode predicate /
  /// full-mode fallback, FIFO order.
  [[nodiscard]] std::optional<std::size_t> OldestEligible(
      FamilyId family, Area area_bound, TaskId from_task,
      ConfigId match_config) const;

  /// Highest-priority eligible entry (same predicate), FIFO tie-break.
  [[nodiscard]] std::optional<std::size_t> BestPriorityEligible(
      FamilyId family, Area area_bound, ConfigId match_config) const;

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  struct Slot {
    std::uint64_t seq = 0;
    SusEntryAttrs attrs;
  };

  /// Exact-match candidates sharing one resolved_config.
  struct Bucket {
    std::set<std::uint64_t> by_seq;
    std::set<std::pair<double, std::uint64_t>> by_priority;  // (-prio, seq)
  };

  /// Area-bounded fallback candidates sharing one family constraint.
  struct Group {
    MaxSegTree by_seq;     // seq position -> -needed_area (kNegInf = absent)
    AreaTreap by_priority;
  };

  static constexpr std::uint32_t kWildcardGroup =
      FamilyId().value();  // invalid family value

  [[nodiscard]] static std::uint32_t GroupKeyOf(const SusEntryAttrs& attrs) {
    return attrs.config_family.valid() ? attrs.config_family.value()
                                       : kWildcardGroup;
  }
  void InsertInto(std::uint64_t seq, const SusEntryAttrs& attrs);
  void EraseFrom(std::uint64_t seq, const SusEntryAttrs& attrs);
  /// Sets the group's seq-tree leaf, appending kNegInf padding so that
  /// leaf positions always equal global seqs.
  static void AssignSeqLeaf(Group& group, std::uint64_t seq,
                            std::int64_t value);
  /// Position = number of live entries with a smaller seq.
  [[nodiscard]] std::size_t PositionOfSeq(std::uint64_t seq) const;
  /// The groups a task compatible with `family` may live in.
  [[nodiscard]] std::vector<const Group*> GroupsFor(FamilyId family) const;

  std::unordered_map<std::uint32_t, Slot> slots_;  // by TaskId value
  std::uint64_t next_seq_ = 0;
  PrefixSumTree live_;  // seq -> 1 while queued, 0 after removal
  std::unordered_map<std::uint32_t, Bucket> buckets_;  // by ConfigId value
  std::map<std::uint32_t, Group> groups_;  // by family value (+ wildcard)
};

}  // namespace dreamsim::resource

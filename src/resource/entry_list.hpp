// Per-configuration idle/busy membership lists (Fig. 3).
//
// The paper threads Inext/Bnext pointers through the nodes so that "these
// linked lists ease up the search effort needed to get the state information
// of a certain node". With partial reconfiguration a node can appear in
// several configurations' lists at once (idle w.r.t. config A, busy w.r.t.
// config B), so membership is per *entry* (node, slot), held in cells like
// the UML's IdleList/BusyList (`Item`, `Next`).
//
// Cells live in a contiguous vector: push is O(1), membership removal and
// all searches are counted linear traversals — the same step costs the
// paper's metrics measure on its linked lists, with better locality.
//
// Positions are kept in an open-addressing flat map over the packed 8-byte
// EntryRef instead of an unordered_map, so the mutation hot path allocates
// no hash nodes (DESIGN.md §9.3). This changes no charge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "resource/node.hpp"
#include "resource/workload_meter.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// Reference to one config-task-pair entry on one node.
struct EntryRef {
  NodeId node;
  SlotIndex slot = kInvalidSlot;

  friend constexpr bool operator==(EntryRef, EntryRef) = default;
};
static_assert(sizeof(EntryRef) == 8, "EntryRef must stay 8 bytes (packed)");

/// Packs an EntryRef into the 8-byte key the flat position map hashes.
constexpr std::uint64_t PackEntryRef(EntryRef e) {
  return (static_cast<std::uint64_t>(e.node.value()) << 32) | e.slot;
}

struct EntryRefHash {
  std::size_t operator()(EntryRef e) const noexcept {
    return std::hash<std::uint64_t>{}(PackEntryRef(e));
  }
};

/// Counted-traversal membership list of entries.
///
/// A position map makes removal O(1) host work; the meter is still charged
/// what the counted linear search would have cost (position + 1 cells, or
/// the full list on a miss), so the paper's step metrics are unchanged.
/// Entries must be unique (the store never double-adds).
class EntryList {
 public:
  /// O(1) insertion (push-front semantics of a linked list).
  void Add(EntryRef entry, WorkloadMeter& meter);

  /// Removes `entry`; O(1) via the position map, charged as the counted
  /// linear search. Returns false when absent.
  bool Remove(EntryRef entry, WorkloadMeter& meter);

  /// Counted linear membership test.
  [[nodiscard]] bool Contains(EntryRef entry, WorkloadMeter& meter,
                              StepKind kind) const;

  /// Pre-sizes the cell vector and the flat position map for `n` entries
  /// (reservation discipline, DESIGN.md §9.3). Never changes contents.
  void Reserve(std::size_t n);

  /// Visits every entry (one counted step each) and returns the first for
  /// which `pred(entry)` is true, or nullopt. The predicate itself may add
  /// further steps (e.g. when it inspects node state).
  template <typename Pred>
  [[nodiscard]] std::optional<EntryRef> FindFirst(Pred&& pred,
                                                  WorkloadMeter& meter,
                                                  StepKind kind) const {
    for (const EntryRef& e : cells_) {
      meter.Add(kind);
      if (pred(e)) return e;
    }
    return std::nullopt;
  }

  /// Full counted scan returning the entry minimizing `key(entry)`; ties
  /// keep the earliest. Returns nullopt for an empty list or when `accept`
  /// rejects every entry.
  template <typename Key, typename Accept>
  [[nodiscard]] std::optional<EntryRef> FindMin(Key&& key, Accept&& accept,
                                                WorkloadMeter& meter,
                                                StepKind kind) const {
    std::optional<EntryRef> best;
    long long best_key = 0;
    for (const EntryRef& e : cells_) {
      meter.Add(kind);
      if (!accept(e)) continue;
      const long long k = key(e);
      if (!best || k < best_key) {
        best = e;
        best_key = k;
      }
    }
    return best;
  }

  /// FindMin variant whose key also sees the cell position — the heuristic
  /// policies' Class A rank depends on the scan position (first-fit) or on
  /// stateful policy state, and routing them through here keeps raw cell
  /// iteration out of the schedulers (the entry-cells-iteration lint rule).
  template <typename Key>
  [[nodiscard]] std::optional<EntryRef> FindMinPositional(
      Key&& key, WorkloadMeter& meter, StepKind kind) const {
    std::optional<EntryRef> best;
    long long best_key = 0;
    for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
      meter.Add(kind);
      const long long k = key(cells_[pos], pos);
      if (!best || k < best_key) {
        best = cells_[pos];
        best_key = k;
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const std::vector<EntryRef>& cells() const { return cells_; }

 private:
  // The auditor reconstructs ground truth from the raw cells; the
  // corruptor breaks them on purpose in tests. Neither is part of the
  // mutation surface (dreamsim_lint enforces that for everything else).
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// Open-addressing (linear probing, backward-shift deletion) map from
  /// packed EntryRef to its cell position. The
  /// all-ones key doubles as the empty sentinel; it packs the (invalid
  /// node, invalid slot) pair, which no live entry ever carries.
  struct PosSlot {
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
    std::uint64_t key = kEmptyKey;
    std::uint32_t pos = 0;
  };

  [[nodiscard]] std::size_t ProbeStart(std::uint64_t key) const;
  /// Index of `key`'s slot, or the table size when absent.
  [[nodiscard]] std::size_t FindSlot(std::uint64_t key) const;
  /// Slot for inserting `key` (grows + rehashes at 11/16 load).
  [[nodiscard]] PosSlot& InsertSlot(std::uint64_t key);
  void EraseSlot(std::size_t index);
  void Rehash(std::size_t capacity);

  std::vector<EntryRef> cells_;
  std::vector<PosSlot> table_;  // power-of-two size; empty vector = empty map
  std::size_t table_used_ = 0;
};

}  // namespace dreamsim::resource

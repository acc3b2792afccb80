// Suspension queue (the SusList of the UML model).
//
// Tasks that cannot be placed now — but for which a currently busy node with
// sufficient TotalArea exists — wait here; "each time a node finishes
// executing a task, the suspension queue is checked ... to determine if a
// suitable task is waiting in the queue which can be executed".
//
// With the drain index enabled (the default) the queue keeps a
// SusQueueIndex in sync so membership tests and drain candidate selection
// run in O(log Q) host work; every counted operation still charges the
// WorkloadMeter exactly what the literal FIFO scan would have charged
// (DESIGN.md "Scheduler index").
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "resource/sus_queue_index.hpp"
#include "resource/workload_meter.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

/// FIFO of suspended tasks with counted traversals. An optional capacity
/// bound lets failure-injection tests exercise overflow handling.
class SuspensionQueue {
 public:
  /// `capacity` of 0 means unbounded.
  explicit SuspensionQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// AddTaskToSusQueue(): appends the task. Returns false when the queue is
  /// at capacity (caller then discards the task). The overload without
  /// attributes indexes the task with default attributes.
  [[nodiscard]] bool Add(TaskId task, WorkloadMeter& meter) {
    return Add(task, SusEntryAttrs{}, meter);
  }
  [[nodiscard]] bool Add(TaskId task, const SusEntryAttrs& attrs,
                         WorkloadMeter& meter);

  /// RemoveTaskFromSusQueue(): removes and returns the first (oldest) task
  /// satisfying `pred`; counted scan in FIFO order.
  template <typename Pred>
  [[nodiscard]] std::optional<TaskId> PopFirstMatching(Pred&& pred,
                                                       WorkloadMeter& meter) {
    obs::MetricInc(obs::MetricId::kSusqScanFallback);
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      meter.Add(StepKind::kHousekeeping);
      if (pred(queue_[i])) {
        const TaskId task = queue_[i];
        EraseAt(i);
        return task;
      }
    }
    return std::nullopt;
  }

  /// SearchSusQueue(): counted membership test. Answered from the index
  /// (O(log Q) host work) when enabled, by literal scan otherwise; the
  /// meter charge is the scan's either way (position + 1 on a hit, queue
  /// size on a miss).
  [[nodiscard]] bool Contains(TaskId task, WorkloadMeter& meter) const;

  /// Removes a specific task (e.g. when its retry budget is exhausted).
  /// Same indexed-or-scan split and charge contract as Contains().
  bool Remove(TaskId task, WorkloadMeter& meter);

  /// Removes the task at FIFO position `index` (0 = oldest). Used by
  /// callers that already paid the traversal to `index`; charges one
  /// housekeeping step for the unlink itself.
  void RemoveAt(std::size_t index, WorkloadMeter& meter);

  /// Re-syncs the indexed attributes of a queued task after a failed
  /// drain attempt may have rewritten its resolved config. Charges
  /// nothing — the reference scans re-read task state for free.
  void RefreshAttrs(TaskId task, const SusEntryAttrs& attrs);

  /// Enables or disables the drain index, rebuilding it from the current
  /// queue content (attributes are retained across toggles).
  void SetDrainIndexed(bool enabled);
  [[nodiscard]] bool drain_indexed() const { return index_ != nullptr; }

  // --- Indexed drain queries (require drain_indexed()) ---
  // Decision mirrors of the Simulator::DrainSuspensionQueue scans; the
  // caller charges the analytic step counts. See SusQueueIndex. That
  // caller-charges contract is why these thin delegates carry
  // `lint: allow(uncharged-index-query)` — dreamsim_lint's R3 otherwise
  // requires a WorkloadMeter charge next to every drain-query call.

  [[nodiscard]] std::optional<std::size_t> OldestExactMatch(
      ConfigId config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryOldestExact);
    return index_->OldestExactMatch(config);  // lint: allow(uncharged-index-query)
  }
  [[nodiscard]] std::optional<std::size_t> BestPriorityExactMatch(
      ConfigId config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryBestPrioExact);
    return index_->BestPriorityExactMatch(config);  // lint: allow(uncharged-index-query)
  }
  /// `from` is a FIFO position (entries before it are skipped).
  [[nodiscard]] std::optional<std::size_t> OldestEligible(
      FamilyId family, Area area_bound, std::size_t from,
      ConfigId match_config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryOldestEligible);
    // lint: allow(uncharged-index-query)
    return index_->OldestEligible(family, area_bound,
                                  from == 0 ? TaskId::invalid() : queue_[from],
                                  match_config);
  }
  [[nodiscard]] std::optional<std::size_t> BestPriorityEligible(
      FamilyId family, Area area_bound, ConfigId match_config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryBestPrioEligible);
    // lint: allow(uncharged-index-query)
    return index_->BestPriorityEligible(family, area_bound, match_config);
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Read-only view in FIFO order (oldest first).
  [[nodiscard]] const std::vector<TaskId>& tasks() const { return queue_; }

  /// Pre-reserves FIFO and attribute-map capacity for `expected` entries.
  void Reserve(std::size_t expected) {
    queue_.reserve(expected);
    attrs_.reserve(expected);
  }

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// Unlinks position `index` from the queue, the attribute map, and the
  /// index (uncounted; callers charge per their own contract).
  void EraseAt(std::size_t index);

  std::size_t capacity_;
  std::vector<TaskId> queue_;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs_;  // by TaskId value
  std::unique_ptr<SusQueueIndex> index_;
};

}  // namespace dreamsim::resource

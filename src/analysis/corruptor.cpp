// Seeded corruption for the auditor tests. Every mutation here is a bug by
// construction; the point is that the StructureAuditor must say so.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/corruptor.hpp"

#include <stdexcept>
#include <utility>

#include "resource/store_index.hpp"
#include "resource/sus_queue_index.hpp"

namespace dreamsim::analysis {

void StructureCorruptor::InjectOrphanIdleEntry(resource::ResourceStore& store,
                                               ConfigId config,
                                               resource::EntryRef entry) {
  resource::EntryList& list = store.idle_lists_.at(config.value());
  // Keep the flat map fully consistent with the orphan, so only the
  // cross-structure diff against the node slots can catch it.
  list.InsertSlot(resource::PackEntryRef(entry)).pos =
      static_cast<std::uint32_t>(list.cells_.size());
  list.cells_.push_back(entry);
}

void StructureCorruptor::CorruptPositionMap(resource::ResourceStore& store,
                                            ConfigId config) {
  resource::EntryList& list = store.idle_lists_.at(config.value());
  if (list.cells_.size() < 2) {
    throw std::logic_error("CorruptPositionMap: need >= 2 idle entries");
  }
  const std::size_t s0 = list.FindSlot(resource::PackEntryRef(list.cells_[0]));
  const std::size_t s1 = list.FindSlot(resource::PackEntryRef(list.cells_[1]));
  if (s0 == list.table_.size() || s1 == list.table_.size()) {
    throw std::logic_error("CorruptPositionMap: cells missing from the map");
  }
  std::swap(list.table_[s0].pos, list.table_[s1].pos);
}

void StructureCorruptor::SkewIndexConfigCount(resource::ResourceStore& store,
                                              NodeId node) {
  if (store.index_ == nullptr) {
    throw std::logic_error("SkewIndexConfigCount: index disabled");
  }
  // Global-view positions are dense node ids.
  resource::PrefixSumTree& counts = store.index_->global_.config_count;
  const std::size_t pos = node.value();
  counts.Assign(pos, counts.Value(pos) + 1);
}

void StructureCorruptor::ExposeFailedNode(resource::ResourceStore& store,
                                          NodeId node) {
  store.nodes_.at(node.value()).failed_ = true;
}

void StructureCorruptor::OvercommitNode(resource::ResourceStore& store,
                                        NodeId node) {
  resource::Node& n = store.nodes_.at(node.value());
  if (n.blank() || n.failed() || n.contiguous()) {
    throw std::logic_error("OvercommitNode: need a configured scalar node");
  }
  const Area cut = n.available_area_ + 1;
  n.total_area_ -= cut;
  n.available_area_ -= cut;
  // Keep every derived structure in step, so only the Eq. 4 sign check
  // can see the node.
  resource::StoreTotals& totals = store.totals_;
  totals.total_fabric_area -= cut;
  totals.wasted_area -= cut;
  if (!n.busy()) totals.idle_wasted_area -= cut;
  if (store.index_ != nullptr) {
    store.index_->Refresh(n, store.busy_area_[node.value()]);
  }
}

void StructureCorruptor::LeakFabricHole(resource::ResourceStore& store,
                                        NodeId node) {
  resource::Node& n = store.nodes_.at(node.value());
  if (!n.layout_ || n.layout_->free_.empty()) {
    throw std::logic_error("LeakFabricHole: need a contiguous free hole");
  }
  --n.layout_->free_.front().size;
}

void StructureCorruptor::ShrinkSlotExtent(resource::ResourceStore& store,
                                          NodeId node,
                                          resource::SlotIndex slot) {
  resource::Node& n = store.nodes_.at(node.value());
  if (!n.layout_ || !n.SlotLive(slot)) {
    throw std::logic_error("ShrinkSlotExtent: need a live contiguous slot");
  }
  --n.slot_extents_[slot].size;
}

void StructureCorruptor::SkewStoreTotals(resource::ResourceStore& store) {
  ++store.totals_.wasted_area;
}

void StructureCorruptor::MisplaceSusBucketEntry(
    resource::SuspensionQueue& queue, TaskId task,
    ConfigId wrong_config) {
  if (queue.index_ == nullptr) {
    throw std::logic_error("MisplaceSusBucketEntry: drain index disabled");
  }
  resource::SusQueueIndex& index = *queue.index_;
  const auto& slot = index.slots_.at(task.value());
  resource::SusQueueIndex::Bucket& home =
      index.buckets_.at(slot.attrs.resolved_config.value());
  home.by_seq.erase(slot.seq);
  index.buckets_[wrong_config.value()].by_seq.insert(slot.seq);
}

void StructureCorruptor::OrphanEventAction(sim::EventQueue& queue) {
  queue.actions_.emplace(queue.next_sequence_, [] {});
  ++queue.next_sequence_;
}

}  // namespace dreamsim::analysis

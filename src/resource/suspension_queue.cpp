#include "resource/suspension_queue.hpp"

#include <algorithm>

namespace dreamsim::resource {

bool SuspensionQueue::Add(TaskId task, const SusEntryAttrs& attrs,
                          WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  if (capacity_ != 0 && queue_.size() >= capacity_) {
    obs::MetricInc(obs::MetricId::kSusOverflow);
    return false;
  }
  queue_.push_back(task);
  attrs_[task.value()] = attrs;
  if (index_) index_->Add(task, attrs);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusEnqueued);
    reg.GaugeSet(obs::MetricId::kSusDepth, queue_.size());
    reg.GaugeMax(obs::MetricId::kSusDepthPeak, queue_.size());
  }
  return true;
}

bool SuspensionQueue::Contains(TaskId task, WorkloadMeter& meter) const {
  if (!index_) obs::MetricInc(obs::MetricId::kSusqScanFallback);
  if (index_) {
    if (index_->Contains(task)) {
      // The scan stops at the hit: position + 1 visited entries.
      meter.Add(StepKind::kHousekeeping, index_->PositionOf(task) + 1);
      return true;
    }
    meter.Add(StepKind::kHousekeeping, queue_.size());
    return false;
  }
  for (const TaskId t : queue_) {
    meter.Add(StepKind::kHousekeeping);
    if (t == task) return true;
  }
  return false;
}

void SuspensionQueue::RemoveAt(std::size_t index, WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  EraseAt(index);
}

bool SuspensionQueue::Remove(TaskId task, WorkloadMeter& meter) {
  if (!index_) obs::MetricInc(obs::MetricId::kSusqScanFallback);
  if (index_) {
    if (!index_->Contains(task)) {
      meter.Add(StepKind::kHousekeeping, queue_.size());
      return false;
    }
    const std::size_t pos = index_->PositionOf(task);
    meter.Add(StepKind::kHousekeeping, pos + 1);
    EraseAt(pos);
    return true;
  }
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    meter.Add(StepKind::kHousekeeping);
    if (queue_[i] == task) {
      EraseAt(i);
      return true;
    }
  }
  return false;
}

void SuspensionQueue::RefreshAttrs(TaskId task, const SusEntryAttrs& attrs) {
  attrs_[task.value()] = attrs;
  if (index_) index_->Refresh(task, attrs);
}

void SuspensionQueue::SetDrainIndexed(bool enabled) {
  if (!enabled) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<SusQueueIndex>();
  for (const TaskId task : queue_) {
    index_->Add(task, attrs_.at(task.value()));
  }
}

void SuspensionQueue::EraseAt(std::size_t index) {
  const TaskId task = queue_[index];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  attrs_.erase(task.value());
  if (index_) index_->Remove(task);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusRemoved);
    reg.GaugeSet(obs::MetricId::kSusDepth, queue_.size());
  }
}

}  // namespace dreamsim::resource

#include "resource/sus_queue_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dreamsim::resource {

namespace {

constexpr Area kAreaMax = std::numeric_limits<Area>::max();

/// Deterministic heap priority for treap nodes (splitmix64 finalizer) —
/// the structure must not depend on run-to-run randomness.
std::uint64_t HeapPriority(std::uint64_t seq) {
  std::uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Lexicographic (neg_priority, seq) "less than".
bool KeyLess(double np_a, std::uint64_t seq_a, double np_b,
             std::uint64_t seq_b) {
  if (np_a != np_b) return np_a < np_b;
  return seq_a < seq_b;
}

}  // namespace

// --- AreaTreap ---

Area AreaTreap::MinArea(std::int32_t n) const {
  return n == kNull ? kAreaMax : nodes_[static_cast<std::size_t>(n)].min_area;
}

void AreaTreap::Pull(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.min_area =
      std::min({node.area, MinArea(node.left), MinArea(node.right)});
}

void AreaTreap::Split(std::int32_t n, double np, std::uint64_t seq,
                      std::int32_t& lo, std::int32_t& hi) {
  if (n == kNull) {
    lo = hi = kNull;
    return;
  }
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (KeyLess(node.neg_priority, node.seq, np, seq)) {
    lo = n;
    Split(node.right, np, seq, node.right, hi);
  } else {
    hi = n;
    Split(node.left, np, seq, lo, node.left);
  }
  Pull(n);
}

std::int32_t AreaTreap::Merge(std::int32_t lo, std::int32_t hi) {
  if (lo == kNull) return hi;
  if (hi == kNull) return lo;
  Node& a = nodes_[static_cast<std::size_t>(lo)];
  Node& b = nodes_[static_cast<std::size_t>(hi)];
  if (a.heap >= b.heap) {
    a.right = Merge(a.right, hi);
    Pull(lo);
    return lo;
  }
  b.left = Merge(lo, b.left);
  Pull(hi);
  return hi;
}

void AreaTreap::Insert(double neg_priority, std::uint64_t seq, Area area) {
  std::int32_t fresh;
  if (!free_.empty()) {
    fresh = free_.back();
    free_.pop_back();
  } else {
    fresh = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[static_cast<std::size_t>(fresh)];
  node = Node{neg_priority, seq,  area, area, HeapPriority(seq),
              kNull,        kNull};
  std::int32_t lo = kNull;
  std::int32_t hi = kNull;
  Split(root_, neg_priority, seq, lo, hi);
  root_ = Merge(Merge(lo, fresh), hi);
  ++count_;
}

void AreaTreap::Erase(double neg_priority, std::uint64_t seq) {
  // Split out the half-open key range [(np, seq), (np, seq + 1)) — seqs
  // are unique, so it holds exactly the node to delete. Split/Merge
  // re-pull min_area along every touched path.
  std::int32_t lo = kNull;
  std::int32_t mid = kNull;
  std::int32_t hi = kNull;
  Split(root_, neg_priority, seq, lo, mid);
  Split(mid, neg_priority, seq + 1, mid, hi);
  if (mid == kNull) throw std::logic_error("AreaTreap::Erase: key not found");
  const Node& node = nodes_[static_cast<std::size_t>(mid)];
  if (node.left != kNull || node.right != kNull || node.seq != seq) {
    throw std::logic_error("AreaTreap::Erase: key range not a single node");
  }
  free_.push_back(mid);
  --count_;
  root_ = Merge(lo, hi);
}

std::optional<std::pair<double, std::uint64_t>> AreaTreap::FirstWithAreaAtMost(
    Area bound) const {
  std::int32_t cur = root_;
  if (cur == kNull || MinArea(cur) > bound) return std::nullopt;
  while (true) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.left != kNull && MinArea(node.left) <= bound) {
      cur = node.left;
      continue;
    }
    if (node.area <= bound) return std::make_pair(node.neg_priority, node.seq);
    cur = node.right;  // invariant: some qualifying node exists below
  }
}

// --- SusQueueIndex ---

void SusQueueIndex::Add(TaskId task, const SusEntryAttrs& attrs) {
  auto [it, inserted] = slots_.emplace(task.value(), Slot{next_seq_, attrs});
  if (!inserted) {
    throw std::logic_error("SusQueueIndex::Add: task already queued");
  }
  ++next_seq_;
  live_.Append(1);
  InsertInto(it->second.seq, attrs);
}

void SusQueueIndex::Remove(TaskId task) {
  const auto it = slots_.find(task.value());
  if (it == slots_.end()) {
    throw std::logic_error("SusQueueIndex::Remove: task not queued");
  }
  live_.Assign(it->second.seq, 0);
  EraseFrom(it->second.seq, it->second.attrs);
  slots_.erase(it);
}

void SusQueueIndex::Refresh(TaskId task, const SusEntryAttrs& attrs) {
  const auto it = slots_.find(task.value());
  if (it == slots_.end()) {
    throw std::logic_error("SusQueueIndex::Refresh: task not queued");
  }
  if (it->second.attrs == attrs) return;
  EraseFrom(it->second.seq, it->second.attrs);
  it->second.attrs = attrs;
  InsertInto(it->second.seq, attrs);
}

std::size_t SusQueueIndex::PositionOf(TaskId task) const {
  return PositionOfSeq(slots_.at(task.value()).seq);
}

std::size_t SusQueueIndex::PositionOfSeq(std::uint64_t seq) const {
  return static_cast<std::size_t>(live_.Prefix(static_cast<std::size_t>(seq)));
}

void SusQueueIndex::AssignSeqLeaf(Group& group, std::uint64_t seq,
                                  std::int64_t value) {
  while (group.by_seq.size() <= seq) group.by_seq.Append(MaxSegTree::kNegInf);
  group.by_seq.Assign(static_cast<std::size_t>(seq), value);
}

void SusQueueIndex::InsertInto(std::uint64_t seq, const SusEntryAttrs& attrs) {
  Bucket& bucket = buckets_[attrs.resolved_config.value()];
  bucket.by_seq.insert(seq);
  bucket.by_priority.emplace(-attrs.priority, seq);
  Group& group = groups_[GroupKeyOf(attrs)];
  AssignSeqLeaf(group, seq, -attrs.needed_area);
  group.by_priority.Insert(-attrs.priority, seq, attrs.needed_area);
}

void SusQueueIndex::EraseFrom(std::uint64_t seq, const SusEntryAttrs& attrs) {
  Bucket& bucket = buckets_.at(attrs.resolved_config.value());
  bucket.by_seq.erase(seq);
  bucket.by_priority.erase({-attrs.priority, seq});
  Group& group = groups_.at(GroupKeyOf(attrs));
  AssignSeqLeaf(group, seq, MaxSegTree::kNegInf);
  group.by_priority.Erase(-attrs.priority, seq);
}

std::vector<const SusQueueIndex::Group*> SusQueueIndex::GroupsFor(
    FamilyId family) const {
  // A task is family-compatible when its config family is invalid (the
  // wildcard group) or equals the node's family — Configuration::
  // CompatibleWith. A family-less node only matches the wildcard group.
  std::vector<const Group*> out;
  if (const auto it = groups_.find(kWildcardGroup); it != groups_.end()) {
    out.push_back(&it->second);
  }
  if (family.valid()) {
    if (const auto it = groups_.find(family.value()); it != groups_.end()) {
      out.push_back(&it->second);
    }
  }
  return out;
}

std::optional<std::size_t> SusQueueIndex::OldestExactMatch(
    ConfigId config) const {
  const auto it = buckets_.find(config.value());
  if (it == buckets_.end() || it->second.by_seq.empty()) return std::nullopt;
  return PositionOfSeq(*it->second.by_seq.begin());
}

std::optional<std::size_t> SusQueueIndex::BestPriorityExactMatch(
    ConfigId config) const {
  const auto it = buckets_.find(config.value());
  if (it == buckets_.end() || it->second.by_priority.empty()) {
    return std::nullopt;
  }
  return PositionOfSeq(it->second.by_priority.begin()->second);
}

std::optional<std::size_t> SusQueueIndex::OldestEligible(
    FamilyId family, Area area_bound, TaskId from_task,
    ConfigId match_config) const {
  std::uint64_t from_seq = 0;
  if (from_task.valid()) from_seq = slots_.at(from_task.value()).seq;
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  bool found = false;
  if (match_config.valid()) {
    if (const auto it = buckets_.find(match_config.value());
        it != buckets_.end()) {
      const auto seq_it = it->second.by_seq.lower_bound(from_seq);
      if (seq_it != it->second.by_seq.end()) {
        best_seq = *seq_it;
        found = true;
      }
    }
  }
  for (const Group* group : GroupsFor(family)) {
    const std::size_t pos = group->by_seq.FirstAtLeast(
        static_cast<std::size_t>(from_seq), -area_bound);
    if (pos != MaxSegTree::npos && static_cast<std::uint64_t>(pos) < best_seq) {
      best_seq = static_cast<std::uint64_t>(pos);
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return PositionOfSeq(best_seq);
}

std::optional<std::size_t> SusQueueIndex::BestPriorityEligible(
    FamilyId family, Area area_bound, ConfigId match_config) const {
  std::optional<std::pair<double, std::uint64_t>> best;
  const auto consider = [&best](std::pair<double, std::uint64_t> key) {
    if (!best || key < *best) best = key;
  };
  if (match_config.valid()) {
    if (const auto it = buckets_.find(match_config.value());
        it != buckets_.end() && !it->second.by_priority.empty()) {
      consider(*it->second.by_priority.begin());
    }
  }
  for (const Group* group : GroupsFor(family)) {
    if (const auto key = group->by_priority.FirstWithAreaAtMost(area_bound)) {
      consider(*key);
    }
  }
  if (!best) return std::nullopt;
  return PositionOfSeq(best->second);
}

}  // namespace dreamsim::resource

// Ground-truth reconstruction and diffing for every scheduler structure.
//
// Each pass walks the primary state (node slots, the suspension FIFO, the
// live-action table), derives what the audited structure must contain, and
// reports divergences. The membership rules are restated here from the
// documented invariants on purpose — a structure's own helpers could let
// one bug hide in both places (DESIGN.md §12).
//
// The auditor reads private state of the audited structures via friendship.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/structure_auditor.hpp"


#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "resource/entry_list.hpp"
#include "resource/index_primitives.hpp"
#include "resource/node.hpp"
#include "resource/store_index.hpp"
#include "resource/sus_queue_index.hpp"
#include "util/fmt.hpp"

namespace dreamsim::analysis {
namespace {

using resource::AreaTreap;
using resource::EntryList;
using resource::EntryRef;
using resource::EntryRefHash;
using resource::Extent;
using resource::MaxSegTree;
using resource::Node;
using resource::PackEntryRef;
using resource::ResourceStore;
using resource::StoreIndex;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::SusQueueIndex;

/// A corrupted structure can contain arbitrarily many divergences; the
/// first handful pinpoints the bug, the rest is noise.
constexpr std::size_t kMaxViolations = 64;

void Report(AuditReport& report, std::string invariant, std::string path,
            std::string detail) {
  if (report.violations.size() >= kMaxViolations) return;
  report.violations.push_back(
      Violation{std::move(invariant), std::move(path), std::move(detail)});
}

std::string EntryPath(ConfigId config, const char* list, std::size_t pos,
                      EntryRef entry) {
  return Format("config {} {} list pos {} (node {} slot {})", config.value(),
                list, pos, entry.node.value(), entry.slot);
}

/// Ground truth recomputed per node straight from the slot array — no
/// derived counter of the node or the store is trusted.
struct NodeTruth {
  std::size_t live = 0;
  std::size_t running = 0;
  Area live_area = 0;  // sum of ReqArea over live slots
  Area busy_area = 0;  // sum of ReqArea over busy slots
};

NodeTruth RecountNode(const ResourceStore& store, const Node& node,
                      AuditReport& report) {
  NodeTruth truth;
  node.ForEachSlot([&](resource::SlotIndex slot,
                       const resource::ConfigTaskPair& pair) {
    ++truth.live;
    if (!store.configs().Contains(pair.config)) {
      Report(report, "fig3.slot",
             Format("node {} slot {}", node.id().value(), slot),
             Format("live slot holds unknown config {}", pair.config.value()));
      return;
    }
    const Area area = store.configs().Get(pair.config).required_area;
    truth.live_area += area;
    if (!pair.idle()) {
      ++truth.running;
      truth.busy_area += area;
    }
  });
  return truth;
}

}  // namespace

std::string AuditReport::Render(std::size_t max_lines) const {
  if (ok()) return "structure audit: clean";
  std::string out = Format("structure audit: {} violation(s)",
                           violations.size());
  std::size_t shown = 0;
  for (const Violation& v : violations) {
    if (shown++ == max_lines) {
      out += Format("\n  ... {} more", violations.size() - max_lines);
      break;
    }
    out += Format("\n  [{}] {}: {}", v.invariant, v.path, v.detail);
  }
  return out;
}

// --- Fig. 3 idle/busy lists -------------------------------------------------

void StructureAuditor::AuditEntryLists(const ResourceStore& store,
                                       AuditReport& report) {
  const std::size_t config_count = store.configs_.size();
  if (store.idle_lists_.size() != config_count ||
      store.busy_lists_.size() != config_count) {
    Report(report, "fig3.idle-list", "catalogue",
           Format("{} idle / {} busy lists for {} configurations",
                  store.idle_lists_.size(), store.busy_lists_.size(),
                  config_count));
    return;
  }

  // Ground truth: walk every live slot of every node.
  using EntrySet = std::unordered_set<EntryRef, EntryRefHash>;
  std::vector<EntrySet> expected_idle(config_count);
  std::vector<EntrySet> expected_busy(config_count);
  for (const Node& node : store.nodes_) {
    node.ForEachSlot([&](resource::SlotIndex slot,
                         const resource::ConfigTaskPair& pair) {
      if (pair.config.value() >= config_count) return;  // fig3.slot above
      const EntryRef entry{node.id(), slot};
      (pair.idle() ? expected_idle : expected_busy)[pair.config.value()]
          .insert(entry);
    });
  }

  const auto audit_list = [&](ConfigId config, const EntryList& list,
                              const EntrySet& expected, const char* label) {
    EntrySet seen;
    for (std::size_t pos = 0; pos < list.cells_.size(); ++pos) {
      const EntryRef entry = list.cells_[pos];
      if (!seen.insert(entry).second) {
        Report(report, Format("fig3.{}-list", label),
               EntryPath(config, label, pos, entry), "duplicate entry");
        continue;
      }
      if (expected.contains(entry)) continue;
      // Diagnose the orphan: failed node, dead slot, or mismatched state.
      if (entry.node.value() >= store.nodes_.size()) {
        Report(report, Format("fig3.{}-list", label),
               EntryPath(config, label, pos, entry), "unknown node");
        continue;
      }
      const Node& node = store.nodes_[entry.node.value()];
      if (node.failed()) {
        Report(report, "fault.visibility",
               EntryPath(config, label, pos, entry),
               Format("failed node still visible in the {} list", label));
      } else if (!node.SlotLive(entry.slot)) {
        Report(report, Format("fig3.{}-list", label),
               EntryPath(config, label, pos, entry),
               "entry references a dead slot");
      } else {
        const resource::ConfigTaskPair& pair = node.Slot(entry.slot);
        Report(report, Format("fig3.{}-list", label),
               EntryPath(config, label, pos, entry),
               Format("slot holds config {} ({}); list expects config {} ({})",
                      pair.config.value(), pair.idle() ? "idle" : "busy",
                      config.value(), label));
      }
    }
    for (const EntryRef& entry : expected) {
      if (!seen.contains(entry)) {
        Report(report, Format("fig3.{}-list", label),
               Format("config {} {} list", config.value(), label),
               Format("node {} slot {} is {} but missing from the list",
                      entry.node.value(), entry.slot, label));
      }
    }
    // Position map (open-addressing flat table): exact inverse of the cell
    // vector.
    if (list.table_used_ != list.cells_.size()) {
      Report(report, "fig3.positions",
             Format("config {} {} list", config.value(), label),
             Format("{} occupied table slots for {} cells", list.table_used_,
                    list.cells_.size()));
    }
    for (std::size_t pos = 0; pos < list.cells_.size(); ++pos) {
      const std::size_t slot = list.FindSlot(PackEntryRef(list.cells_[pos]));
      if (slot == list.table_.size()) {
        Report(report, "fig3.positions",
               EntryPath(config, label, pos, list.cells_[pos]),
               "cell has no position entry");
      } else if (list.table_[slot].pos != pos) {
        Report(report, "fig3.positions",
               EntryPath(config, label, pos, list.cells_[pos]),
               Format("position map says {}", list.table_[slot].pos));
      }
    }
  };

  for (std::size_t c = 0; c < config_count; ++c) {
    const ConfigId config{static_cast<std::uint32_t>(c)};
    audit_list(config, store.idle_lists_[c], expected_idle[c], "idle");
    audit_list(config, store.busy_lists_[c], expected_busy[c], "busy");
  }
}

// --- Eq. 4 area accounting --------------------------------------------------

void StructureAuditor::AuditAreaAccounting(const ResourceStore& store,
                                           AuditReport& report) {
  if (store.busy_area_.size() != store.nodes_.size()) {
    Report(report, "eq4.busy-area", "store",
           Format("busy-area mirror tracks {} nodes, store has {}",
                  store.busy_area_.size(), store.nodes_.size()));
    return;
  }
  for (const Node& node : store.nodes_) {
    const NodeTruth truth = RecountNode(store, node, report);
    const std::string path = Format("node {}", node.id().value());
    if (node.available_area() != node.total_area() - truth.live_area) {
      Report(report, "eq4.area", path,
             Format("AvailableArea {} != TotalArea {} - live ReqArea {}",
                    node.available_area(), node.total_area(),
                    truth.live_area));
    }
    if (node.available_area() < 0) {
      Report(report, "eq4.area", path,
             Format("AvailableArea {} < 0: live ReqArea {} overcommits "
                    "TotalArea {}",
                    node.available_area(), truth.live_area,
                    node.total_area()));
    }
    if (node.config_count() != truth.live ||
        node.running_tasks() != truth.running) {
      Report(report, "fig3.slot", path,
             Format("counters say {} live / {} running, slots hold {} / {}",
                    node.config_count(), node.running_tasks(), truth.live,
                    truth.running));
    }
    if (store.busy_area_[node.id().value()] != truth.busy_area) {
      Report(report, "eq4.busy-area", path,
             Format("mirror {} != busy ReqArea sum {}",
                    store.busy_area_[node.id().value()], truth.busy_area));
    }
  }
}

// --- Contiguous fabric layouts ----------------------------------------------

void StructureAuditor::AuditFabricLayouts(const ResourceStore& store,
                                          AuditReport& report) {
  for (const Node& node : store.nodes_) {
    if (!node.contiguous()) continue;
    const resource::FabricLayout& layout = node.layout();
    const std::string path = Format("node {} fabric", node.id().value());
    // Ground truth: the live slots' extents, each in bounds and exactly
    // its configuration's ReqArea wide.
    std::vector<std::pair<Extent, resource::SlotIndex>> used;
    node.ForEachSlot([&](resource::SlotIndex slot,
                         const resource::ConfigTaskPair& pair) {
      const Extent& extent = node.SlotExtent(slot);
      if (extent.offset < 0 || extent.size <= 0 ||
          extent.end() > layout.total_) {
        Report(report, "fabric.layout", path,
               Format("slot {} extent [{}, {}) outside [0, {})", slot,
                      extent.offset, extent.end(), layout.total_));
      }
      if (store.configs().Contains(pair.config) &&
          extent.size != store.configs().Get(pair.config).required_area) {
        Report(report, "fabric.layout", path,
               Format("slot {} extent size {} != ReqArea {} of config {}",
                      slot, extent.size,
                      store.configs().Get(pair.config).required_area,
                      pair.config.value()));
      }
      used.emplace_back(extent, slot);
    });
    std::sort(used.begin(), used.end(), [](const auto& a, const auto& b) {
      return a.first.offset < b.first.offset;
    });
    // The free holes must be the sorted, coalesced complement of the live
    // extents; the extents themselves must be pairwise disjoint.
    std::vector<Extent> want;
    Area cursor = 0;
    for (std::size_t i = 0; i < used.size(); ++i) {
      const Extent& extent = used[i].first;
      if (i > 0 && extent.offset < cursor) {
        Report(report, "fabric.layout", path,
               Format("slot {} extent at {} overlaps slot {} (ends at {})",
                      used[i].second, extent.offset, used[i - 1].second,
                      cursor));
      }
      if (extent.offset > cursor) {
        want.push_back(Extent{cursor, extent.offset - cursor});
      }
      cursor = std::max(cursor, extent.end());
    }
    if (cursor < layout.total_) {
      want.push_back(Extent{cursor, layout.total_ - cursor});
    }
    const auto describe = [](const std::vector<Extent>& holes,
                             std::size_t i) {
      return i < holes.size() ? Format("[{}, {})", holes[i].offset,
                                       holes[i].end())
                              : std::string("none");
    };
    for (std::size_t i = 0; i < std::max(layout.free_.size(), want.size());
         ++i) {
      if (i < layout.free_.size() && i < want.size() &&
          layout.free_[i] == want[i]) {
        continue;
      }
      Report(report, "fabric.layout", Format("{} hole {}", path, i),
             Format("layout has {}, live extents leave {}",
                    describe(layout.free_, i), describe(want, i)));
      break;
    }
    Area free_area = 0;
    for (const Extent& hole : layout.free_) free_area += hole.size;
    if (free_area != node.available_area()) {
      Report(report, "fabric.layout", path,
             Format("layout free area {} != AvailableArea {}", free_area,
                    node.available_area()));
    }
  }
}

// --- Blank list -------------------------------------------------------------

void StructureAuditor::AuditBlankList(const ResourceStore& store,
                                      AuditReport& report) {
  std::unordered_set<std::uint32_t> expected;
  for (const Node& node : store.nodes_) {
    bool any_slot = false;
    node.ForEachSlot([&](resource::SlotIndex, const resource::ConfigTaskPair&) {
      any_slot = true;
    });
    if (!any_slot && !node.failed()) expected.insert(node.id().value());
  }
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t pos = 0; pos < store.blank_.size(); ++pos) {
    const NodeId id = store.blank_[pos];
    const std::string path = Format("blank list pos {} (node {})", pos,
                                    id.value());
    if (!seen.insert(id.value()).second) {
      Report(report, "blank.list", path, "duplicate entry");
      continue;
    }
    if (!expected.contains(id.value())) {
      const bool failed = id.value() < store.nodes_.size() &&
                          store.nodes_[id.value()].failed();
      Report(report, failed ? "fault.visibility" : "blank.list", path,
             failed ? "failed node still in the blank list"
                    : "node has live configurations");
    }
  }
  for (const std::uint32_t id : expected) {
    if (!seen.contains(id)) {
      Report(report, "blank.list", Format("node {}", id),
             "blank node missing from the blank list");
    }
  }
  // blank_pos_: exact inverse of blank_ (kNotBlank everywhere else).
  if (store.blank_pos_.size() != store.nodes_.size()) {
    Report(report, "blank.pos", "store",
           Format("blank-pos tracks {} nodes, store has {}",
                  store.blank_pos_.size(), store.nodes_.size()));
    return;
  }
  std::vector<std::size_t> truth(store.nodes_.size(),
                                 ResourceStore::kNotBlank);
  for (std::size_t pos = 0; pos < store.blank_.size(); ++pos) {
    if (store.blank_[pos].value() < truth.size()) {
      truth[store.blank_[pos].value()] = pos;
    }
  }
  for (std::size_t id = 0; id < truth.size(); ++id) {
    if (store.blank_pos_[id] != truth[id]) {
      Report(report, "blank.pos", Format("node {}", id),
             Format("blank-pos {} != blank-list position {}",
                    store.blank_pos_[id] == ResourceStore::kNotBlank
                        ? std::string("none")
                        : Format("{}", store.blank_pos_[id]),
                    truth[id] == ResourceStore::kNotBlank
                        ? std::string("none")
                        : Format("{}", truth[id])));
    }
  }
}

// --- Fault visibility -------------------------------------------------------

void StructureAuditor::AuditFaultVisibility(const ResourceStore& store,
                                            AuditReport& report) {
  std::size_t failed = 0;
  for (const Node& node : store.nodes_) {
    if (!node.failed()) continue;
    ++failed;
    const std::string path = Format("node {}", node.id().value());
    bool any_slot = false;
    node.ForEachSlot([&](resource::SlotIndex, const resource::ConfigTaskPair&) {
      any_slot = true;
    });
    if (any_slot) {
      Report(report, "fault.visibility", path,
             "failed node still holds configurations");
    }
    if (node.available_area() != node.total_area()) {
      Report(report, "fault.visibility", path,
             "failed node's area was not reclaimed");
    }
  }
  if (store.failed_count_ != failed) {
    Report(report, "fault.count", "store",
           Format("failed-count {} != {} failed nodes", store.failed_count_,
                  failed));
  }
}

// --- System totals ----------------------------------------------------------

void StructureAuditor::AuditTotals(const ResourceStore& store,
                                   AuditReport& report) {
  // Ground truth: an O(N) re-sum over each node's own counters (which
  // eq4.area / fig3.slot check against the slots), so one stale total
  // reports here and nowhere else.
  resource::StoreTotals truth;
  for (const Node& node : store.nodes_) {
    truth.total_fabric_area += node.total_area();
    if (node.blank()) {
      ++truth.blank_nodes;
      continue;
    }
    truth.configured_area += node.total_area() - node.available_area();
    truth.wasted_area += node.available_area();
    if (node.busy()) {
      ++truth.busy_nodes;
      truth.running_tasks += node.running_tasks();
    } else {
      truth.idle_wasted_area += node.available_area();
    }
  }
  const resource::StoreTotals& live = store.totals_;
  const auto check = [&](const char* field, auto maintained, auto recount) {
    if (maintained != recount) {
      Report(report, "store.totals", Format("store totals.{}", field),
             Format("maintained {} != recount {}", maintained, recount));
    }
  };
  check("wasted_area", live.wasted_area, truth.wasted_area);
  check("idle_wasted_area", live.idle_wasted_area, truth.idle_wasted_area);
  check("configured_area", live.configured_area, truth.configured_area);
  check("total_fabric_area", live.total_fabric_area, truth.total_fabric_area);
  check("blank_nodes", live.blank_nodes, truth.blank_nodes);
  check("busy_nodes", live.busy_nodes, truth.busy_nodes);
  check("running_tasks", live.running_tasks, truth.running_tasks);
}

// --- StoreIndex mirror ------------------------------------------------------

void StructureAuditor::AuditStoreIndex(const ResourceStore& store,
                                       AuditReport& report) {
  if (store.index_ == nullptr) return;
  const StoreIndex& index = *store.index_;
  if (index.cached_.size() != store.nodes_.size()) {
    Report(report, "idx.size", "index",
           Format("index tracks {} nodes, store has {}", index.cached_.size(),
                  store.nodes_.size()));
    return;
  }

  // Ground truth per node, recomputed from the slots.
  struct IndexTruth {
    NodeTruth counts;
    bool failed = false;
    std::uint32_t family = 0;
  };
  std::vector<IndexTruth> truth(store.nodes_.size());
  for (const Node& node : store.nodes_) {
    IndexTruth& t = truth[node.id().value()];
    t.counts = RecountNode(store, node, report);
    t.failed = node.failed();
    t.family = node.family().value();
  }

  // Snapshot cache: every field must match a fresh recapture.
  for (const Node& node : store.nodes_) {
    const std::uint32_t id = node.id().value();
    const StoreIndex::Snapshot& snap = index.cached_[id];
    const IndexTruth& t = truth[id];
    const std::string path = Format("node {}", id);
    if (snap.total != node.total_area() ||
        snap.available != node.available_area() ||
        snap.potential != node.total_area() - t.counts.busy_area ||
        snap.config_count != static_cast<std::int64_t>(t.counts.live) ||
        snap.blank != (t.counts.live == 0) ||
        snap.busy != (t.counts.running > 0) || snap.failed != t.failed ||
        snap.family != t.family) {
      Report(report, "idx.snapshot", path,
             Format("cached snapshot diverges from node state "
                    "(cached potential {}, count {}; truth {}, {})",
                    snap.potential, snap.config_count,
                    node.total_area() - t.counts.busy_area, t.counts.live));
    }
  }

  // Reconstruct the view composition: every node is in the global view and
  // in the view of its family value (including the invalid "familyless"
  // value), in ascending id order.
  std::map<std::uint32_t, std::vector<std::uint32_t>> expected_families;
  std::vector<std::uint32_t> expected_global;
  for (const Node& node : store.nodes_) {
    expected_global.push_back(node.id().value());
    expected_families[node.family().value()].push_back(node.id().value());
  }

  const auto audit_view = [&](const StoreIndex::View& view,
                              const std::vector<std::uint32_t>& expected_ids,
                              const std::string& label) {
    if (view.ids != expected_ids) {
      Report(report, "idx.view", label,
             Format("view holds {} members, ground truth {}",
                    view.ids.size(), expected_ids.size()));
      return;
    }
    const std::size_t count = view.ids.size();
    if (view.potential.size() != count || view.busy_total.size() != count ||
        view.available.size() != count || view.config_count.size() != count) {
      Report(report, "idx.tree", label,
             Format("tree sizes disagree with {} members", count));
      return;
    }
    std::set<StoreIndex::AreaKey> want_blank;
    std::set<StoreIndex::AreaKey> want_all;
    std::set<StoreIndex::AreaKey> want_partial;
    std::set<StoreIndex::AreaKey> want_idle_cfg;
    for (std::size_t pos = 0; pos < count; ++pos) {
      const std::uint32_t id = view.ids[pos];
      const Node& node = store.nodes_[id];
      const IndexTruth& t = truth[id];
      const std::string path = Format("{} pos {} (node {})", label, pos, id);
      const bool blank = t.counts.live == 0;
      const bool busy = t.counts.running > 0;
      const std::int64_t potential =
          t.failed ? MaxSegTree::kNegInf
                   : node.total_area() - t.counts.busy_area;
      if (view.potential.Value(pos) != potential) {
        Report(report, "idx.tree", path,
               Format("potential {} != {}", view.potential.Value(pos),
                      potential));
      }
      const std::int64_t busy_total =
          busy ? node.total_area() : MaxSegTree::kNegInf;
      if (view.busy_total.Value(pos) != busy_total) {
        Report(report, "idx.tree", path,
               Format("busy-total {} != {}", view.busy_total.Value(pos),
                      busy_total));
      }
      const std::int64_t available =
          t.failed ? MaxSegTree::kNegInf : node.available_area();
      if (view.available.Value(pos) != available) {
        Report(report, "idx.tree", path,
               Format("available {} != {}", view.available.Value(pos),
                      available));
      }
      if (view.config_count.Value(pos) !=
          static_cast<std::int64_t>(t.counts.live)) {
        Report(report, "idx.count", path,
               Format("config-count leaf {} != {} live slots",
                      view.config_count.Value(pos), t.counts.live));
      }
      if (!t.failed) want_all.insert({node.available_area(), id});
      if (blank && !t.failed) want_blank.insert({node.total_area(), id});
      if (!blank) want_partial.insert({node.available_area(), id});
      if (!blank && !busy) want_idle_cfg.insert({node.total_area(), id});
    }
    const auto diff_set = [&](const std::set<StoreIndex::AreaKey>& live,
                              const std::set<StoreIndex::AreaKey>& want,
                              const char* name) {
      if (live == want) return;
      for (const StoreIndex::AreaKey& key : live) {
        if (!want.contains(key)) {
          const bool failed = key.second < truth.size() &&
                              truth[key.second].failed;
          Report(report, failed ? "fault.visibility" : "idx.set",
                 Format("{} {} (area {}, node {})", label, name, key.first,
                        key.second),
                 failed ? "failed node still keyed in the index"
                        : "stray key");
          return;
        }
      }
      for (const StoreIndex::AreaKey& key : want) {
        if (!live.contains(key)) {
          Report(report, "idx.set",
                 Format("{} {} (area {}, node {})", label, name, key.first,
                        key.second),
                 "expected key missing");
          return;
        }
      }
    };
    diff_set(view.blank_by_total, want_blank, "blank-by-total");
    diff_set(view.all_by_avail, want_all, "all-by-avail");
    diff_set(view.partial_by_avail, want_partial, "partial-by-avail");
    diff_set(view.idle_cfg_by_total, want_idle_cfg, "idle-cfg-by-total");
  };

  audit_view(index.global_, expected_global, "global view");
  for (const auto& [family, ids] : expected_families) {
    const auto it = index.family_views_.find(family);
    if (it == index.family_views_.end()) {
      Report(report, "idx.view", Format("family {} view", family),
             "view missing");
      continue;
    }
    audit_view(it->second, ids, Format("family {} view", family));
    // family_pos: the cached position must point at this view slot.
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      if (index.cached_[ids[pos]].family_pos != pos) {
        Report(report, "idx.snapshot",
               Format("node {}", ids[pos]),
               Format("family_pos {} != view position {}",
                      index.cached_[ids[pos]].family_pos, pos));
      }
    }
  }
  if (index.family_views_.size() != expected_families.size()) {
    Report(report, "idx.view", "index",
           Format("{} family views for {} distinct family values",
                  index.family_views_.size(), expected_families.size()));
  }
}

// --- Suspension queue + drain index ----------------------------------------

void StructureAuditor::AuditSusIndex(const SuspensionQueue& queue,
                                     AuditReport& report) {
  const SusQueueIndex& index = *queue.index_;
  // Domain: indexed tasks == queued tasks.
  if (index.slots_.size() != queue.queue_.size()) {
    Report(report, "susidx.domain", "suspension index",
           Format("index holds {} tasks, queue holds {}", index.slots_.size(),
                  queue.queue_.size()));
  }
  std::uint64_t prev_seq = 0;
  bool first = true;
  std::unordered_set<std::uint64_t> live_seqs;
  for (std::size_t pos = 0; pos < queue.queue_.size(); ++pos) {
    const TaskId task = queue.queue_[pos];
    const std::string path = Format("queue pos {} (task {})", pos,
                                    task.value());
    const auto it = index.slots_.find(task.value());
    if (it == index.slots_.end()) {
      Report(report, "susidx.domain", path, "queued task not indexed");
      continue;
    }
    const std::uint64_t seq = it->second.seq;
    live_seqs.insert(seq);
    if (seq >= index.next_seq_) {
      Report(report, "susidx.seq", path,
             Format("seq {} out of range (next {})", seq, index.next_seq_));
    }
    if (!first && seq <= prev_seq) {
      Report(report, "susidx.seq", path,
             Format("seq {} not above predecessor {} (FIFO order == seq "
                    "order)",
                    seq, prev_seq));
    }
    first = false;
    prev_seq = seq;
    const auto attrs_it = queue.attrs_.find(task.value());
    if (attrs_it != queue.attrs_.end() &&
        !(it->second.attrs == attrs_it->second)) {
      Report(report, "susidx.attrs", path,
             "indexed attrs diverge from the queue's attribute table");
    }
    if (static_cast<std::size_t>(index.live_.Prefix(
            static_cast<std::size_t>(seq))) != pos) {
      Report(report, "susidx.fenwick", path,
             Format("rank of seq {} is {}, queue position is {}", seq,
                    index.live_.Prefix(static_cast<std::size_t>(seq)), pos));
    }
  }
  // Fenwick leaves: exactly the live seqs carry a 1.
  if (index.live_.size() != index.next_seq_) {
    Report(report, "susidx.fenwick", "live tree",
           Format("{} leaves for {} seqs ever", index.live_.size(),
                  index.next_seq_));
  }
  for (std::size_t seq = 0; seq < index.live_.size(); ++seq) {
    const std::int64_t value = index.live_.Value(seq);
    const std::int64_t want = live_seqs.contains(seq) ? 1 : 0;
    if (value != want) {
      Report(report, "susidx.fenwick", Format("seq {}", seq),
             Format("leaf {} != {}", value, want));
      break;
    }
  }

  // Buckets: expected content per resolved config, built from the queue's
  // own attribute table (the ground truth the index mirrors).
  std::map<std::uint32_t, std::set<std::uint64_t>> want_bucket_seqs;
  std::map<std::uint32_t, std::set<std::pair<double, std::uint64_t>>>
      want_bucket_prio;
  std::map<std::uint32_t, std::map<std::uint64_t, SusEntryAttrs>> want_groups;
  std::unordered_map<std::uint64_t, std::uint32_t> config_of_seq;
  for (const TaskId task : queue.queue_) {
    const auto slot_it = index.slots_.find(task.value());
    const auto attrs_it = queue.attrs_.find(task.value());
    if (slot_it == index.slots_.end() || attrs_it == queue.attrs_.end()) {
      continue;  // already reported above
    }
    const std::uint64_t seq = slot_it->second.seq;
    const SusEntryAttrs& attrs = attrs_it->second;
    want_bucket_seqs[attrs.resolved_config.value()].insert(seq);
    want_bucket_prio[attrs.resolved_config.value()].insert(
        {-attrs.priority, seq});
    want_groups[SusQueueIndex::GroupKeyOf(attrs)].emplace(seq, attrs);
    config_of_seq.emplace(seq, attrs.resolved_config.value());
  }
  std::vector<std::uint32_t> bucket_keys;
  for (const auto& [config, bucket] : index.buckets_) {
    bucket_keys.push_back(config);
  }
  std::sort(bucket_keys.begin(), bucket_keys.end());
  for (const std::uint32_t config : bucket_keys) {
    const SusQueueIndex::Bucket& bucket = index.buckets_.at(config);
    const auto& want_seqs = want_bucket_seqs[config];  // empty set if absent
    for (const std::uint64_t seq : bucket.by_seq) {
      if (want_seqs.contains(seq)) continue;
      const auto home = config_of_seq.find(seq);
      Report(report, "susidx.bucket",
             Format("config {} bucket (seq {})", config, seq),
             home == config_of_seq.end()
                 ? std::string("entry is not queued at all")
                 : Format("entry belongs in the config {} bucket",
                          home->second));
    }
    for (const std::uint64_t seq : want_seqs) {
      if (!bucket.by_seq.contains(seq)) {
        Report(report, "susidx.bucket",
               Format("config {} bucket (seq {})", config, seq),
               "expected entry missing");
      }
    }
    if (bucket.by_priority != want_bucket_prio[config]) {
      Report(report, "susidx.bucket", Format("config {} bucket", config),
             "priority set diverges from ground truth");
    }
  }
  for (const auto& [config, want] : want_bucket_seqs) {
    if (!want.empty() && !index.buckets_.contains(config)) {
      Report(report, "susidx.bucket", Format("config {} bucket", config),
             Format("bucket missing ({} expected entries)", want.size()));
    }
  }

  // Groups: seq-tree leaves and the priority treap per family constraint.
  std::vector<std::uint32_t> group_keys;
  for (const auto& [family, group] : index.groups_) {
    group_keys.push_back(family);
  }
  std::sort(group_keys.begin(), group_keys.end());
  for (const std::uint32_t family : group_keys) {
    const SusQueueIndex::Group& group = index.groups_.at(family);
    const auto& members = want_groups[family];  // empty map if absent
    const std::string label =
        family == SusQueueIndex::kWildcardGroup
            ? std::string("wildcard group")
            : Format("family {} group", family);
    for (std::size_t pos = 0; pos < group.by_seq.size(); ++pos) {
      const auto member = members.find(pos);
      const std::int64_t want = member == members.end()
                                    ? MaxSegTree::kNegInf
                                    : -member->second.needed_area;
      if (group.by_seq.Value(pos) != want) {
        Report(report, "susidx.group", Format("{} seq {}", label, pos),
               member == members.end()
                   ? std::string("stale live leaf for an absent entry")
                   : Format("leaf {} != -needed_area {}",
                            group.by_seq.Value(pos),
                            member->second.needed_area));
        break;
      }
    }
    for (const auto& [seq, attrs] : members) {
      if (seq >= group.by_seq.size()) {
        Report(report, "susidx.group", Format("{} seq {}", label, seq),
               "member beyond the seq tree");
      }
    }

    // Treap: in-order walk must yield exactly the members sorted by
    // (-priority, seq), with correct min-area augmentation and heap order.
    std::vector<std::pair<double, std::uint64_t>> walked;
    std::size_t visits = 0;
    bool structural = false;
    const std::function<Area(std::int32_t, std::uint64_t)> walk =
        [&](std::int32_t n, std::uint64_t parent_heap) -> Area {
      if (n == AreaTreap::kNull || structural) {
        return std::numeric_limits<Area>::max();
      }
      if (++visits > group.by_priority.nodes_.size()) {
        structural = true;  // cycle: more visits than allocated nodes
        return std::numeric_limits<Area>::max();
      }
      const AreaTreap::Node& node =
          group.by_priority.nodes_[static_cast<std::size_t>(n)];
      if (node.heap > parent_heap) {
        Report(report, "susidx.treap", Format("{} seq {}", label, node.seq),
               "treap heap order violated");
        structural = true;
      }
      const Area left = walk(node.left, node.heap);
      walked.emplace_back(node.neg_priority, node.seq);
      const Area right = walk(node.right, node.heap);
      const Area subtree = std::min({node.area, left, right});
      if (node.min_area != subtree) {
        Report(report, "susidx.treap", Format("{} seq {}", label, node.seq),
               Format("min-area {} != subtree minimum {}", node.min_area,
                      subtree));
      }
      return subtree;
    };
    walk(group.by_priority.root_,
         std::numeric_limits<std::uint64_t>::max());
    if (structural) {
      Report(report, "susidx.treap", label, "treap walk aborted (cycle?)");
      continue;
    }
    std::vector<std::pair<double, std::uint64_t>> want_walk;
    for (const auto& [seq, attrs] : members) {
      want_walk.emplace_back(-attrs.priority, seq);
    }
    std::sort(want_walk.begin(), want_walk.end());
    if (walked != want_walk || group.by_priority.count_ != members.size()) {
      Report(report, "susidx.treap", label,
             Format("in-order walk yields {} entries, ground truth {}",
                    walked.size(), members.size()));
    }
  }
  for (const auto& [family, members] : want_groups) {
    if (!members.empty() && !index.groups_.contains(family)) {
      Report(report, "susidx.group", Format("family {} group", family),
             Format("group missing ({} expected members)", members.size()));
    }
  }
}

AuditReport StructureAuditor::AuditSuspensionQueue(
    const SuspensionQueue& queue) {
  AuditReport report;
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t pos = 0; pos < queue.queue_.size(); ++pos) {
    const TaskId task = queue.queue_[pos];
    if (!seen.insert(task.value()).second) {
      Report(report, "sus.unique",
             Format("queue pos {} (task {})", pos, task.value()),
             "task queued twice");
    }
    if (!queue.attrs_.contains(task.value())) {
      Report(report, "sus.attrs",
             Format("queue pos {} (task {})", pos, task.value()),
             "queued task has no attribute entry");
    }
  }
  if (queue.attrs_.size() != seen.size()) {
    Report(report, "sus.attrs", "suspension queue",
           Format("{} attribute entries for {} distinct queued tasks",
                  queue.attrs_.size(), seen.size()));
  }
  if (queue.capacity_ != 0 && queue.queue_.size() > queue.capacity_) {
    Report(report, "sus.capacity", "suspension queue",
           Format("{} queued tasks exceed capacity {}", queue.queue_.size(),
                  queue.capacity_));
  }
  if (queue.index_ != nullptr) AuditSusIndex(queue, report);
  return report;
}

// --- Event queue ------------------------------------------------------------

AuditReport StructureAuditor::AuditEventQueue(const sim::EventQueue& queue,
                                              Tick now) {
  AuditReport report;
  // Pop a copy: the pop order re-derives the heap's total order, so a
  // corrupted heap array surfaces as an out-of-order stream.
  auto heap = queue.heap_;
  std::unordered_set<std::uint64_t> heap_seqs;
  bool have_prev = false;
  sim::EventQueue::Entry prev{};
  const sim::EventQueue::Later later;
  std::size_t pos = 0;
  while (!heap.empty()) {
    const sim::EventQueue::Entry entry = heap.top();
    heap.pop();
    const std::string path = Format("heap pos {} (seq {}, tick {})", pos,
                                    entry.sequence, entry.tick);
    ++pos;
    if (entry.sequence == 0 || entry.sequence >= queue.next_sequence_) {
      Report(report, "evq.sequence", path,
             Format("sequence out of range [1, {})", queue.next_sequence_));
    }
    if (!heap_seqs.insert(entry.sequence).second) {
      Report(report, "evq.sequence", path, "duplicate sequence in the heap");
    }
    if (have_prev && later(prev, entry)) {
      Report(report, "evq.order", path,
             Format("(tick {}, seq {}) popped first despite being later",
                    prev.tick, prev.sequence));
    }
    const bool live = queue.actions_.contains(entry.sequence);
    if (live && entry.tick < now) {
      Report(report, "evq.past-tick", path,
             Format("live event scheduled before now ({})", now));
    }
    prev = entry;
    have_prev = true;
  }
  std::vector<std::uint64_t> orphaned;
  for (const auto& kv : queue.actions_) {
    if (!heap_seqs.contains(kv.first)) orphaned.push_back(kv.first);
  }
  std::sort(orphaned.begin(), orphaned.end());
  for (const std::uint64_t sequence : orphaned) {
    Report(report, "evq.orphan-action", Format("seq {}", sequence),
           "live action has no heap entry (event can never fire)");
  }
  return report;
}

// --- Entry points -----------------------------------------------------------

AuditReport StructureAuditor::AuditStore(const ResourceStore& store) {
  AuditReport report;
  AuditEntryLists(store, report);
  AuditAreaAccounting(store, report);
  AuditFabricLayouts(store, report);
  AuditBlankList(store, report);
  AuditFaultVisibility(store, report);
  AuditTotals(store, report);
  AuditStoreIndex(store, report);
  return report;
}

AuditReport StructureAuditor::AuditMetrics(const ResourceStore& store,
                                           const SuspensionQueue& queue,
                                           const sim::EventQueue& events,
                                           const resource::TaskStore& tasks) {
  AuditReport report;
  if (!obs::MetricsRegistry::enabled()) return report;
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().TakeSnapshot();
  const auto value = [&snap](obs::MetricId id) {
    return snap.value[static_cast<std::size_t>(id)];
  };
  const auto check = [&report](bool ok, std::string_view path,
                               std::string detail) {
    if (!ok) {
      report.violations.push_back(
          {"metrics.conservation", std::string(path), std::move(detail)});
    }
  };
  using obs::MetricId;

  // Event-queue flow: every pushed event is live, executed, or cancelled.
  const std::uint64_t pushed = value(MetricId::kEvqPushed);
  const std::uint64_t popped = value(MetricId::kEvqPopped);
  const std::uint64_t cancelled = value(MetricId::kEvqCancelled);
  check(pushed == popped + cancelled + events.size(), "event-queue",
        Format("pushed {} != popped {} + cancelled {} + live {}", pushed,
               popped, cancelled, events.size()));
  check(value(MetricId::kEvqDepth) == events.size(), "event-queue",
        Format("depth gauge {} != live events {}", value(MetricId::kEvqDepth),
               events.size()));

  // Suspension-queue flow and depth gauge.
  const std::uint64_t enqueued = value(MetricId::kSusEnqueued);
  const std::uint64_t removed = value(MetricId::kSusRemoved);
  check(enqueued == removed + queue.size(), "suspension-queue",
        Format("enqueued {} != removed {} + queued {}", enqueued, removed,
               queue.size()));
  check(value(MetricId::kSusDepth) == queue.size(), "suspension-queue",
        Format("depth gauge {} != queued {}", value(MetricId::kSusDepth),
               queue.size()));

  // Fault flow: failures not yet repaired are exactly the failed nodes.
  const std::uint64_t failures = value(MetricId::kFaultFailures);
  const std::uint64_t repairs = value(MetricId::kFaultRepairs);
  check(failures == repairs + store.failed_node_count(), "faults",
        Format("failures {} != repairs {} + failed nodes {}", failures,
               repairs, store.failed_node_count()));
  check(value(MetricId::kFaultFailedNodes) == store.failed_node_count(),
        "faults",
        Format("failed-nodes gauge {} != failed nodes {}",
               value(MetricId::kFaultFailedNodes),
               store.failed_node_count()));

  // Terminal task counters vs the TaskStore's ground-truth states (the
  // counter increments share the call sites that set the states).
  const std::size_t completed =
      tasks.CountInState(resource::TaskState::kCompleted);
  const std::size_t discarded =
      tasks.CountInState(resource::TaskState::kDiscarded);
  check(value(MetricId::kTasksCompleted) == completed, "tasks",
        Format("completed counter {} != completed tasks {}",
               value(MetricId::kTasksCompleted), completed));
  check(value(MetricId::kTasksDiscarded) == discarded, "tasks",
        Format("discarded counter {} != discarded tasks {}",
               value(MetricId::kTasksDiscarded), discarded));
  return report;
}

AuditReport StructureAuditor::AuditAll(const ResourceStore& store,
                                       const SuspensionQueue& queue,
                                       const sim::EventQueue& events,
                                       Tick now) {
  AuditReport report = AuditStore(store);
  AuditReport sus = AuditSuspensionQueue(queue);
  AuditReport evq = AuditEventQueue(events, now);
  report.violations.insert(report.violations.end(),
                           std::make_move_iterator(sus.violations.begin()),
                           std::make_move_iterator(sus.violations.end()));
  report.violations.insert(report.violations.end(),
                           std::make_move_iterator(evq.violations.begin()),
                           std::make_move_iterator(evq.violations.end()));
  return report;
}

}  // namespace dreamsim::analysis

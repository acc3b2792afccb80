#include "rms/resource_info.hpp"

namespace dreamsim::rms {

NodeStaticInfo ResourceInformationManager::StaticInfo(NodeId id) const {
  const resource::Node& n = store_.node(id);
  return NodeStaticInfo{n.id(), n.total_area(), n.family(), n.caps(),
                        n.network_delay()};
}

NodeDynamicInfo ResourceInformationManager::DynamicInfo(NodeId id) const {
  const resource::Node& n = store_.node(id);
  return NodeDynamicInfo{n.id(),          n.available_area(),
                         n.config_count(), n.running_tasks(),
                         n.busy(),         n.reconfig_count()};
}

SystemSnapshot ResourceInformationManager::Snapshot(Tick now) const {
  const resource::StoreTotals& t = store_.totals();
  SystemSnapshot s;
  s.at = now;
  s.total_nodes = store_.node_count();
  s.blank_nodes = t.blank_nodes;
  s.busy_nodes = t.busy_nodes;
  s.running_tasks = t.running_tasks;
  s.total_fabric_area = t.total_fabric_area;
  s.configured_area = t.configured_area;
  s.wasted_area = t.wasted_area;
  if (s.total_fabric_area > 0) {
    s.area_utilization = static_cast<double>(s.configured_area) /
                         static_cast<double>(s.total_fabric_area);
  }
  return s;
}

}  // namespace dreamsim::rms

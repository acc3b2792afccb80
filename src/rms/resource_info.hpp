// Resource information manager (information subsystem, Sec. III).
//
// "The resource information manager maintains all sorts of information
// about the nodes ... static and dynamic information." The dynamic data
// structures themselves live in resource::ResourceStore; this manager layers
// the aggregate snapshot the monitoring module consumes on top of them.
#pragma once

#include <cstddef>

#include "resource/store.hpp"
#include "util/types.hpp"

namespace dreamsim::rms {

/// Aggregate system state at one instant.
struct SystemSnapshot {
  Tick at = 0;
  std::size_t total_nodes = 0;
  std::size_t blank_nodes = 0;
  std::size_t busy_nodes = 0;
  std::size_t running_tasks = 0;
  Area total_fabric_area = 0;
  Area configured_area = 0;   // area occupied by live configurations
  Area wasted_area = 0;       // Eq. 6
  double area_utilization = 0.0;  // configured / total fabric
};

/// Read-only query surface over the store.
class ResourceInformationManager {
 public:
  explicit ResourceInformationManager(const resource::ResourceStore& store)
      : store_(store) {}

  /// Aggregates the whole system at tick `now`: an O(1) read of the
  /// store's maintained totals.
  [[nodiscard]] SystemSnapshot Snapshot(Tick now) const;

 private:
  const resource::ResourceStore& store_;
};

}  // namespace dreamsim::rms

// Load-balancing manager (future work in the paper: "we will implement
// load balancing manager to perform a better load distribution among all
// the nodes" — implemented here as an extension).
//
// It measures imbalance over the running-task distribution (coefficient of
// variation, Jain's fairness index). Placement stays with the policies:
// sched::Heuristic::kLeastLoaded ranks its candidates itself.
#pragma once

#include "resource/store.hpp"
#include "util/types.hpp"

namespace dreamsim::rms {

/// Instantaneous load-distribution metrics.
struct LoadMetrics {
  double mean_running_tasks = 0.0;
  double stddev_running_tasks = 0.0;
  /// Coefficient of variation (stddev / mean); 0 for a perfectly even or
  /// empty system.
  double imbalance = 0.0;
  /// Jain's fairness index in (0, 1]; 1 means perfectly even.
  double fairness = 1.0;
};

class LoadBalancer {
 public:
  explicit LoadBalancer(const resource::ResourceStore& store)
      : store_(store) {}

  /// Computes load metrics over all nodes.
  [[nodiscard]] LoadMetrics Measure() const;

 private:
  const resource::ResourceStore& store_;
};

}  // namespace dreamsim::rms

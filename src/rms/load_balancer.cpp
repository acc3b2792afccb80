#include "rms/load_balancer.hpp"

#include <cmath>

namespace dreamsim::rms {

LoadMetrics LoadBalancer::Measure() const {
  LoadMetrics m;
  const std::size_t n = store_.node_count();
  if (n == 0) return m;

  double sum = 0.0;
  double sum_sq = 0.0;
  for (const resource::Node& node : store_.nodes()) {
    const auto load = static_cast<double>(node.running_tasks());
    sum += load;
    sum_sq += load * load;
  }
  const auto count = static_cast<double>(n);
  m.mean_running_tasks = sum / count;
  const double variance =
      sum_sq / count - m.mean_running_tasks * m.mean_running_tasks;
  m.stddev_running_tasks = std::sqrt(std::max(0.0, variance));
  m.imbalance = m.mean_running_tasks > 0.0
                    ? m.stddev_running_tasks / m.mean_running_tasks
                    : 0.0;
  m.fairness = sum_sq > 0.0 ? (sum * sum) / (count * sum_sq) : 1.0;
  return m;
}

}  // namespace dreamsim::rms

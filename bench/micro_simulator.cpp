// Micro-benchmarks for end-to-end simulator throughput: tasks simulated per
// second in both reconfiguration modes and under each scheduling policy.
#include <benchmark/benchmark.h>

#include "core/simulator.hpp"

namespace {

using namespace dreamsim;

core::SimulationConfig BenchConfig(std::int64_t tasks, std::int64_t nodes) {
  core::SimulationConfig config;
  config.nodes.count = static_cast<int>(nodes);
  config.tasks.total_tasks = static_cast<int>(tasks);
  config.seed = 42;
  return config;
}

void BM_SimulatorPartial(benchmark::State& state) {
  for (auto _ : state) {
    core::SimulationConfig config = BenchConfig(state.range(0), 200);
    config.mode = sched::ReconfigMode::kPartial;
    core::Simulator sim(std::move(config));
    benchmark::DoNotOptimize(sim.Run().completed_tasks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorPartial)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_SimulatorFull(benchmark::State& state) {
  for (auto _ : state) {
    core::SimulationConfig config = BenchConfig(state.range(0), 200);
    config.mode = sched::ReconfigMode::kFull;
    core::Simulator sim(std::move(config));
    benchmark::DoNotOptimize(sim.Run().completed_tasks);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorFull)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_SimulatorByPolicy(benchmark::State& state) {
  const auto policy = static_cast<core::PolicyChoice>(state.range(0));
  for (auto _ : state) {
    core::SimulationConfig config = BenchConfig(2000, 200);
    config.policy = policy;
    core::Simulator sim(std::move(config));
    benchmark::DoNotOptimize(sim.Run().completed_tasks);
  }
  state.SetLabel(std::string(core::ToString(policy)));
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SimulatorByPolicy)
    ->DenseRange(0, 6)
    ->Unit(benchmark::kMillisecond);

// Measurement note (PR 7): ResourceStore::InitNodes pre-reserves every
// per-configuration EntryList from the node-count hint (count*2/configs +
// slack), the same discipline as the event-heap/FIFO reservations. Setup
// below covers node generation plus those reservations; before the change
// the first saturation wave paid the list growth instead, which showed up
// as rehash spikes inside the *timed* region of BM_SimulatorPartial.
void BM_SimulatorSetup(benchmark::State& state) {
  for (auto _ : state) {
    core::Simulator sim(BenchConfig(100, state.range(0)));
    benchmark::DoNotOptimize(sim.store().node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorSetup)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

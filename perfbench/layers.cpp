#include "layers.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rms/resource_info.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace obs = dreamsim::obs;
namespace rms = dreamsim::rms;
namespace sim = dreamsim::sim;
using dreamsim::Tick;

/// Sampled calls of the O(N) system-total hooks per traced run.
constexpr std::uint64_t kHookSamples = 4096;

/// Untraced invocations timed beside the traced one for trace.overhead_pct.
constexpr int kUntracedReps = 3;

/// Operations of the standalone event-queue measurement are capped here.
constexpr std::uint64_t kMaxQueueOps = 8'000'000;

struct PhaseTime {
  double ns = 0.0;
  double calls = 0.0;
};

/// Everything the traced run measures, before it is named.
struct LayerValues {
  PhaseTime snapshot;     // rms::ResourceInformationManager::Snapshot
  PhaseTime wasted_area;  // resource::ResourceStore::TotalWastedArea
  std::array<PhaseTime, 5> phases;  // Fig. 5 phases, PlacementKind order
  double steps_per_task = 0.0;
  PhaseTime store_query;
  std::array<double, 6> store_query_kinds{};
  double sus_drain_ns = 0.0;
  double susq_query_ns = 0.0;
  double sus_enqueued = 0.0;
  double sus_removed = 0.0;
  double sus_depth_peak = 0.0;
  double drain_attempts = 0.0;
  double drain_placements = 0.0;
  double init_ns = 0.0;
  double evq_pushed = 0.0;
  double evq_popped = 0.0;
  double evq_cancelled = 0.0;
  double evq_dead_dropped = 0.0;
  double evq_depth_peak = 0.0;
  double evq_ns_per_op = 0.0;
  double generate_ns = 0.0;
  double tasks = 0.0;
  double report_ns = 0.0;
  double sweep_point_s_max = 0.0;
  double sweep_efficiency = 0.0;
  double attributed_pct = 0.0;
  double overhead_pct = 0.0;
};

void StartTracing() {
  obs::PhaseProfiler::Instance().Reset();
  obs::MetricsRegistry::Instance().Reset();
  obs::PhaseProfiler::SetEnabled(true);
  obs::MetricsRegistry::SetEnabled(true);
}

void StopTracing() {
  obs::PhaseProfiler::SetEnabled(false);
  obs::MetricsRegistry::SetEnabled(false);
}

/// Reads the profiler and the registry into `v` (quiescent, after a run).
void ReadTraces(LayerValues& v) {
  const obs::PhaseProfiler& prof = obs::PhaseProfiler::Instance();
  const auto time_of = [&prof](obs::ProfPhase phase) {
    const obs::PhaseProfiler::PhaseStats s = prof.stats(phase);
    return PhaseTime{static_cast<double>(s.total_ns),
                     static_cast<double>(s.calls)};
  };
  v.phases = {time_of(obs::ProfPhase::kAllocation),
              time_of(obs::ProfPhase::kConfiguration),
              time_of(obs::ProfPhase::kPartialConfiguration),
              time_of(obs::ProfPhase::kPartialReconfiguration),
              time_of(obs::ProfPhase::kFullReconfiguration)};
  v.store_query = time_of(obs::ProfPhase::kStoreQuery);
  v.sus_drain_ns = time_of(obs::ProfPhase::kSuspensionDrain).ns;
  v.susq_query_ns = time_of(obs::ProfPhase::kSusQueueQuery).ns;

  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().TakeSnapshot();
  const auto reg = [&snap](obs::MetricId id) {
    return static_cast<double>(snap.value[static_cast<std::size_t>(id)]);
  };
  v.store_query_kinds = {reg(obs::MetricId::kStoreQueryIdleEntry),
                         reg(obs::MetricId::kStoreQueryBlank),
                         reg(obs::MetricId::kStoreQueryPartialBlank),
                         reg(obs::MetricId::kStoreQueryReclaim),
                         reg(obs::MetricId::kStoreQueryBusyFit),
                         reg(obs::MetricId::kStoreQueryIdleConfigured)};
  v.sus_enqueued = reg(obs::MetricId::kSusEnqueued);
  v.sus_removed = reg(obs::MetricId::kSusRemoved);
  v.sus_depth_peak = reg(obs::MetricId::kSusDepthPeak);
  v.drain_attempts = reg(obs::MetricId::kDrainAttempts);
  v.drain_placements = reg(obs::MetricId::kDrainPlacements);
  v.evq_pushed = reg(obs::MetricId::kEvqPushed);
  v.evq_popped = reg(obs::MetricId::kEvqPopped);
  v.evq_cancelled = reg(obs::MetricId::kEvqCancelled);
  v.evq_dead_dropped = reg(obs::MetricId::kEvqDeadDropped);
  v.evq_depth_peak = reg(obs::MetricId::kEvqDepthPeak);
}

/// A standalone sim::EventQueue held at `depth` live events and driven
/// through `ops` Pop + Push pairs (each pop re-schedules one event ahead,
/// as completions and arrivals do). Returns ns per queue operation.
double EventQueueNsPerOp(double depth, double ops, std::uint64_t seed) {
  dreamsim::Rng rng(seed);
  std::vector<Tick> gaps(1 << 16);
  for (Tick& gap : gaps) gap = rng.uniform_int(1, 100000);
  const auto live = static_cast<std::size_t>(std::max(1.0, depth));
  const auto pairs = static_cast<std::uint64_t>(
      std::clamp(ops, 1.0, static_cast<double>(kMaxQueueOps)));

  sim::EventQueue queue;
  queue.Reserve(live + 1);
  std::uint64_t sink = 0;
  // Captures the size of the simulator's completion events (this, task id,
  // entry), so Action storage matches the real queue's.
  struct Capture {
    std::uint64_t* sink;
    std::uint64_t a;
    std::uint64_t b;
  };
  const auto push = [&queue](Tick tick, std::uint64_t i, std::uint64_t* out) {
    const Capture c{out, i, i ^ 0x5bd1e995u};
    queue.Push(tick,
               i % 2 == 0 ? sim::EventPriority::kCompletion
                          : sim::EventPriority::kArrival,
               [c] { *c.sink += c.a ^ c.b; });
  };
  for (std::size_t i = 0; i < live; ++i) push(gaps[i % gaps.size()], i, &sink);

  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    sim::EventQueue::Popped popped = queue.Pop();
    popped.action();
    push(popped.tick + gaps[i % gaps.size()], i, &sink);
  }
  const double ns = SecondsSince(start) * 1e9;
  volatile std::uint64_t keep = sink;
  static_cast<void>(keep);
  return ns / (2.0 * static_cast<double>(pairs));
}

/// Non-overlapping layer time of a run. Store and sus-queue queries nest
/// inside the Fig. 5 phases and the drain, and the drain runs policy
/// attempts (phases) of its own; phase time inside drains is apportioned
/// by attempt count: arrivals attempt once each, drains drain_attempts
/// times. The only store query outside every phase is the busy-fit test.
double SelfTimeNs(const LayerValues& v) {
  const double attempts = v.tasks + v.drain_attempts;
  const double outside = attempts > 0.0 ? v.tasks / attempts : 1.0;
  double phases = 0.0;
  for (const PhaseTime& p : v.phases) phases += p.ns;
  const double store_mean =
      v.store_query.calls > 0.0 ? v.store_query.ns / v.store_query.calls : 0.0;
  const double busy_fit = store_mean * v.store_query_kinds[4] * outside;
  // Waste samples: one per arrival, one per fresh configuration (those
  // inside drains are already drain time).
  const double configures = std::max(0.0, v.wasted_area.calls - v.tasks);
  const double wasted_mean =
      v.wasted_area.calls > 0.0 ? v.wasted_area.ns / v.wasted_area.calls : 0.0;
  const double wasted = wasted_mean * (v.tasks + configures * outside);
  const double evq = v.evq_ns_per_op *
                     (v.evq_pushed + v.evq_popped + v.evq_dead_dropped);
  return v.init_ns + v.generate_ns + v.report_ns + v.snapshot.ns + wasted +
         evq + v.sus_drain_ns + phases * outside + busy_fit;
}

std::vector<Metric> Named(const LayerValues& v) {
  std::vector<Metric> out = {
      {"rms.snapshot_calls", v.snapshot.calls, "count"},
      {"rms.snapshot_ns", v.snapshot.ns, "ns"},
      {"resource.wasted_area_calls", v.wasted_area.calls, "count"},
      {"resource.wasted_area_ns", v.wasted_area.ns, "ns"},
  };
  static constexpr std::array<const char*, 5> kPhaseNames = {
      "allocation", "configuration", "partial_configuration",
      "partial_reconfiguration", "full_reconfiguration"};
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    const std::string stem = std::string("sched.") + kPhaseNames[i];
    out.push_back({stem + "_ns", v.phases[i].ns, "ns"});
    out.push_back({stem + "_calls", v.phases[i].calls, "count"});
  }
  out.push_back({"sched.steps_per_task", v.steps_per_task, "steps"});
  out.push_back({"resource.store_query_ns", v.store_query.ns, "ns"});
  out.push_back({"resource.store_query_calls", v.store_query.calls, "count"});
  static constexpr std::array<const char*, 6> kQueryNames = {
      "q_idle_entry", "q_blank",     "q_partial_blank",
      "q_reclaim",    "q_busy_fit", "q_idle_configured"};
  for (std::size_t i = 0; i < kQueryNames.size(); ++i) {
    out.push_back({std::string("resource.") + kQueryNames[i],
                   v.store_query_kinds[i], "count"});
  }
  const double drain_yield = v.drain_attempts > 0.0
                                 ? v.drain_placements / v.drain_attempts
                                 : 0.0;
  const std::vector<Metric> rest = {
      {"resource.sus_drain_ns", v.sus_drain_ns, "ns"},
      {"resource.susq_query_ns", v.susq_query_ns, "ns"},
      {"resource.sus_enqueued", v.sus_enqueued, "count"},
      {"resource.sus_removed", v.sus_removed, "count"},
      {"resource.sus_depth_peak", v.sus_depth_peak, "count"},
      {"resource.drain_attempts", v.drain_attempts, "count"},
      {"resource.drain_placements", v.drain_placements, "count"},
      {"resource.drain_yield", drain_yield, "fraction"},
      {"resource.init_ns", v.init_ns, "ns"},
      {"sim.evq_pushed", v.evq_pushed, "count"},
      {"sim.evq_popped", v.evq_popped, "count"},
      {"sim.evq_cancelled", v.evq_cancelled, "count"},
      {"sim.evq_dead_dropped", v.evq_dead_dropped, "count"},
      {"sim.evq_depth_peak", v.evq_depth_peak, "count"},
      {"sim.evq_ns_per_op", v.evq_ns_per_op, "ns"},
      {"workload.generate_ns", v.generate_ns, "ns"},
      {"workload.tasks", v.tasks, "count"},
      {"core.report_ns", v.report_ns, "ns"},
      {"core.sweep_point_s_max", v.sweep_point_s_max, "s"},
      {"core.sweep_efficiency", v.sweep_efficiency, "fraction"},
      {"trace.attributed_pct", v.attributed_pct, "%"},
      {"trace.overhead_pct", v.overhead_pct, "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

double OverheadPct(double traced_s, double untraced_s) {
  return 100.0 * (traced_s - untraced_s) / untraced_s;
}

/// Times Snapshot() and TotalWastedArea() on the live store from the
/// state-observer callback, every `stride`-th monitoring point.
struct HookSampler {
  std::uint64_t stride = 1;
  std::uint64_t observed = 0;
  std::uint64_t sampled = 0;
  double snapshot_ns = 0.0;
  double wasted_ns = 0.0;
  std::int64_t sink = 0;

  void Install(core::Simulator& sim) {
    core::Simulator* target = &sim;
    sim.SetStateObserver([this, target](const core::StateSample& sample) {
      if (observed++ % stride != 0) return;
      const rms::ResourceInformationManager info(target->store());
      const Clock::time_point t0 = Clock::now();
      const rms::SystemSnapshot snap = info.Snapshot(sample.tick);
      const Clock::time_point t1 = Clock::now();
      const dreamsim::Area wasted = target->store().TotalWastedArea();
      const Clock::time_point t2 = Clock::now();
      snapshot_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      wasted_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
      sink += snap.wasted_area ^ wasted;
      ++sampled;
    });
  }
  [[nodiscard]] double SnapshotMeanNs() const {
    return sampled > 0 ? snapshot_ns / static_cast<double>(sampled) : 0.0;
  }
  [[nodiscard]] double WastedMeanNs() const {
    return sampled > 0 ? wasted_ns / static_cast<double>(sampled) : 0.0;
  }
};

std::vector<Metric> TraceSingle(const Workload& w, std::uint64_t seed,
                                CheckTally& tally) {
  std::vector<double> untraced;
  std::string untraced_row;
  for (int i = 0; i < kUntracedReps; ++i) {
    const Invocation inv = InvokeSingle(w, seed);
    untraced.push_back(inv.wall_s);
    untraced_row = ReportRow(inv.report);
    tally.Record(CheckSingle(w, inv));
  }

  HookSampler hooks;
  hooks.stride = std::max<std::uint64_t>(
      1, 2 * static_cast<std::uint64_t>(w.tasks) / kHookSamples);
  StartTracing();
  const Invocation traced = InvokeSingle(
      w, seed, [&hooks](core::Simulator& sim) { hooks.Install(sim); });
  StopTracing();
  std::string error = CheckSingle(w, traced);
  if (error.empty() && ReportRow(traced.report) != untraced_row) {
    error = "tracing changed the simulated output";
  }
  tally.Record(error);

  const core::MetricsReport& r = traced.report;
  LayerValues v;
  ReadTraces(v);
  v.snapshot = {hooks.SnapshotMeanNs() * static_cast<double>(hooks.observed),
                static_cast<double>(hooks.observed)};
  // One Eq. 6 sample per arrival (on-schedule accounting) and one waste
  // signal per placement that loaded a fresh configuration.
  double calls = static_cast<double>(r.total_tasks);
  for (std::size_t k = 1; k < 5; ++k) {
    calls += static_cast<double>(r.placements_by_kind[k]);
  }
  v.wasted_area = {hooks.WastedMeanNs() * calls, calls};
  v.steps_per_task = r.avg_scheduling_steps_per_task;
  v.init_ns = traced.init_s * 1e9;
  v.generate_ns = traced.generate_s * 1e9;
  v.tasks = static_cast<double>(r.total_tasks);
  v.report_ns = traced.report_s * 1e9;
  v.evq_ns_per_op = EventQueueNsPerOp(v.evq_depth_peak, v.evq_pushed, seed);
  v.attributed_pct = 100.0 * SelfTimeNs(v) / (traced.wall_s * 1e9);
  v.overhead_pct = OverheadPct(traced.wall_s, Median(untraced));
  return Named(v);
}

std::vector<Metric> TraceSweep(const Workload& w, std::uint64_t seed,
                               CheckTally& tally) {
  const SweepInvocation untraced = InvokeSweep(w, seed, kSweepWorkers);
  tally.Record(CheckSweep(w, seed, untraced.reports));

  StartTracing();
  const SweepInvocation traced = InvokeSweep(w, seed, kSweepWorkers);
  StopTracing();
  LayerValues v;
  ReadTraces(v);
  std::string error = Digest(traced.reports) == Digest(untraced.reports)
                          ? ""
                          : "tracing changed the simulated output";
  tally.Record(error);

  double tasks = 0.0;
  double steps = 0.0;
  for (const core::MetricsReport& r : traced.reports) {
    tasks += static_cast<double>(r.total_tasks);
    steps += static_cast<double>(r.scheduling_steps_total);
  }
  v.tasks = tasks;
  v.steps_per_task = steps / tasks;
  const SetupTimes setup = SweepSetup(w, seed);
  v.init_ns = setup.init_s * 1e9;
  v.generate_ns = setup.generate_s * 1e9;
  v.report_ns = traced.report_s * 1e9;
  v.evq_ns_per_op = EventQueueNsPerOp(v.evq_depth_peak, v.evq_pushed, seed);
  v.overhead_pct = OverheadPct(traced.wall_s, untraced.wall_s);

  // The grid once more on one worker, point by point: the slowest point,
  // the parallel efficiency, and an attribution base with no idle workers.
  StartTracing();
  const std::vector<double> walls = SweepPointWalls(w, seed);
  StopTracing();
  LayerValues serial = v;
  ReadTraces(serial);
  serial.init_ns = serial.generate_ns = serial.report_ns = 0.0;
  const double serial_s = std::accumulate(walls.begin(), walls.end(), 0.0);
  v.sweep_point_s_max = *std::max_element(walls.begin(), walls.end());
  v.sweep_efficiency = serial_s / (kSweepWorkers * traced.wall_s);
  v.attributed_pct = 100.0 * SelfTimeNs(serial) / (serial_s * 1e9);
  return Named(v);
}

}  // namespace

std::vector<Metric> TraceWorkload(const Workload& w, std::uint64_t seed,
                                  CheckTally& tally) {
  return w.sweep ? TraceSweep(w, seed, tally) : TraceSingle(w, seed, tally);
}

}  // namespace perfbench

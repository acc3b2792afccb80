#include "core/simulator.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "ptype/catalogue.hpp"
#include "sched/dreamsim_policy.hpp"
#include "sched/heuristic_policy.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace dreamsim::core {
namespace {

// Independent deterministic sub-streams derived from the run seed.
constexpr std::uint64_t kStreamWorkload = 1;
constexpr std::uint64_t kStreamResources = 2;
constexpr std::uint64_t kStreamPolicy = 3;
constexpr std::uint64_t kStreamNetwork = 4;
constexpr std::uint64_t kStreamFaults = 5;

resource::ConfigCatalogue BuildConfigs(const SimulationConfig& config,
                                       Rng& rng) {
  const ptype::Catalogue all = ptype::Catalogue::Default();
  if (config.configs.ptypes.empty()) {
    return resource::ConfigCatalogue::Generate(config.configs, all, rng);
  }
  // Scenario-selected subset: re-register the named types in the listed
  // order, so Sample() draws only from them (deterministically).
  ptype::Catalogue selected;
  for (const std::string& name : config.configs.ptypes) {
    const auto id = all.FindByName(name);
    if (!id.has_value()) {
      throw std::invalid_argument(
          Format("unknown processor type '{}' in config.configs.ptypes",
                 name));
    }
    selected.Register(all.Get(*id));
  }
  return resource::ConfigCatalogue::Generate(config.configs, selected, rng);
}

}  // namespace

std::unique_ptr<sched::Policy> MakePolicy(PolicyChoice choice,
                                          sched::ReconfigMode mode,
                                          std::uint64_t seed) {
  using sched::Heuristic;
  switch (choice) {
    case PolicyChoice::kDreamSim:
      return std::make_unique<sched::DreamSimPolicy>(mode);
    case PolicyChoice::kFirstFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kFirstFit,
                                                      seed);
    case PolicyChoice::kBestFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kBestFit,
                                                      seed);
    case PolicyChoice::kWorstFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kWorstFit,
                                                      seed);
    case PolicyChoice::kRandomFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kRandomFit,
                                                      seed);
    case PolicyChoice::kRoundRobin:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kRoundRobin,
                                                      seed);
    case PolicyChoice::kLeastLoaded:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kLeastLoaded,
                                                      seed);
  }
  throw std::invalid_argument("unknown policy choice");
}

std::string_view ToString(SimEvent::Kind kind) {
  switch (kind) {
    case SimEvent::Kind::kArrival: return "arrival";
    case SimEvent::Kind::kPlaced: return "placed";
    case SimEvent::Kind::kSuspended: return "suspended";
    case SimEvent::Kind::kRequeued: return "requeued";
    case SimEvent::Kind::kDiscarded: return "discarded";
    case SimEvent::Kind::kCompleted: return "completed";
    case SimEvent::Kind::kKilled: return "killed";
    case SimEvent::Kind::kNodeFailed: return "node-failed";
    case SimEvent::Kind::kNodeRepaired: return "node-repaired";
  }
  return "?";
}

std::unique_ptr<sched::Policy> Simulator::MakePolicy() const {
  return core::MakePolicy(config_.policy, config_.mode,
                          DeriveSeed(config_.seed, kStreamPolicy));
}

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)),
      rng_(DeriveSeed(config_.seed, kStreamWorkload)),
      store_([&] {
        Rng resource_rng(DeriveSeed(config_.seed, kStreamResources));
        return resource::ResourceStore(BuildConfigs(config_, resource_rng));
      }()),
      suspension_(config_.suspension_capacity),
      policy_(MakePolicy()),
      network_(config_.network, DeriveSeed(config_.seed, kStreamNetwork)),
      metrics_(config_.waste_accounting),
      info_(store_),
      monitor_(info_),
      jobs_(kernel_, tasks_),
      faults_(config_.faults, DeriveSeed(config_.seed, kStreamFaults)) {
  store_.SetIndexed(config_.scheduler_index);
  suspension_.SetDrainIndexed(config_.drain_index);
  if (config_.device_classes.empty()) {
    Rng resource_rng(DeriveSeed(config_.seed, kStreamResources) ^ 0x5bd1e995u);
    store_.InitNodes(config_.nodes, resource_rng);
  } else {
    store_.InitDeviceClasses(
        config_.device_classes,
        DeriveSeed(config_.seed, kStreamResources) ^ 0x5bd1e995u);
  }
  // Pre-reserve the hot-path containers from the configured problem size so
  // the steady state never reallocates: every task contributes one arrival
  // and at most one completion to the event heap (plus a bounded number of
  // control events), and the suspension FIFO never outgrows its capacity or
  // the task population.
  std::size_t expected_tasks = 0;
  if (!config_.task_classes.empty()) {
    for (const workload::TaskClassParams& c : config_.task_classes) {
      if (c.base.total_tasks > 0) {
        expected_tasks += static_cast<std::size_t>(c.base.total_tasks);
      }
    }
  } else if (config_.tasks.total_tasks > 0) {
    expected_tasks = static_cast<std::size_t>(config_.tasks.total_tasks);
  }
  if (expected_tasks > 0) {
    const std::size_t tasks = expected_tasks;
    kernel_.ReserveEvents(std::min<std::size_t>(2 * tasks + 64, 1u << 22));
    const std::size_t fifo_bound =
        config_.suspension_capacity > 0
            ? std::min(config_.suspension_capacity, tasks)
            : tasks;
    suspension_.Reserve(std::min<std::size_t>(fifo_bound, 1u << 20));
  }
  if (faults_.enabled()) {
    fault_process_events_.resize(store_.node_count());
    failed_since_.assign(store_.node_count(), kNoTick);
    fault_script_.reserve(faults_.params().script.size());
    for (const FaultEvent& e : faults_.params().script) {
      if (!e.node.valid() || e.node.value() >= store_.node_count()) {
        throw std::invalid_argument(
            Format("fault script names unknown node {}", e.node.value()));
      }
      fault_script_.push_back({e, {}, false});
    }
  }
  if (config_.ship_bitstreams) {
    bitstream_caches_.reserve(store_.node_count());
    for (std::size_t n = 0; n < store_.node_count(); ++n) {
      Bytes capacity = config_.bitstream_cache_capacity;
      if (!config_.device_classes.empty()) {
        // FamilyId == device-class index; a class's bitstream_store
        // overrides the run-wide capacity unless it inherits (< 0).
        const FamilyId family =
            store_.node(NodeId{static_cast<std::uint32_t>(n)}).family();
        const resource::DeviceClassParams& dc =
            config_.device_classes[family.value()];
        if (dc.bitstream_store >= 0) capacity = dc.bitstream_store;
      }
      bitstream_caches_.emplace_back(capacity);
    }
  }
}

Tick Simulator::BitstreamDelay(const resource::Node& node, ConfigId config) {
  if (!config_.ship_bitstreams) return 0;
  net::BitstreamCache& cache = bitstream_caches_[node.id().value()];
  const resource::Configuration& cfg = store_.configs().Get(config);
  if (cache.Lookup(config)) return 0;
  cache.Insert(config, cfg.bitstream_size);
  const Tick delay = network_.BitstreamTime(node, cfg.bitstream_size);
  bitstream_transfer_total_ += delay;
  return delay;
}

Simulator::CacheStats Simulator::bitstream_cache_stats() const {
  CacheStats stats;
  for (const net::BitstreamCache& cache : bitstream_caches_) {
    stats.hits += cache.hits();
    stats.misses += cache.misses();
  }
  return stats;
}

TaskId Simulator::SubmitTaskAt(const workload::GeneratedTask& task, Tick at) {
  // A submission into a fully drained system revives the fault processes
  // that NoteTerminal() shut down (graph sessions submit from hooks).
  const bool was_drained =
      faults_.enabled() && terminal_tasks_ >= submitted_tasks_;
  ++submitted_tasks_;
  const TaskId id =
      jobs_.SubmitOne(task, at, [this](TaskId tid) { HandleArrival(tid); });
  if (was_drained) {
    kernel_role_.AssertHeld();
    RearmFaults();
  }
  return id;
}

MetricsReport Simulator::Run() {
  if (!config_.task_classes.empty()) {
    const workload::MultiClassWorkload wl =
        workload::GenerateMultiClassWorkload(
            config_.task_classes, store_.configs(),
            DeriveSeed(config_.seed, kStreamWorkload));
    return RunMultiClass(wl);
  }
  const workload::Workload wl =
      workload::GenerateWorkload(config_.tasks, store_.configs(), rng_);
  return RunWithWorkload(wl);
}

MetricsReport Simulator::RunMultiClass(const workload::MultiClassWorkload& wl) {
  // Without chains the timeline is an ordinary workload; taking the exact
  // same submission path keeps the scenario-vs-flags differential trivial.
  if (wl.chains.empty()) return RunWithWorkload(wl.tasks);
  if (ran_) throw std::logic_error("Simulator instances are single-use");

  // Chain bookkeeping: map each in-flight chain task to its next link, and
  // release that link at the predecessor's completion tick (the same hook
  // discipline as the task-graph session).
  struct ChainCursor {
    std::size_t chain = 0;
    std::size_t next_link = 0;
  };
  std::unordered_map<TaskId, ChainCursor> cursors;
  cursors.reserve(wl.chains.size());
  std::function<void(TaskId, Tick)> inner = std::move(completion_hook_);
  SetCompletionHook([this, &wl, &cursors, inner](TaskId id, Tick now) {
    if (inner) inner(id, now);
    const auto it = cursors.find(id);
    if (it == cursors.end()) return;
    const ChainCursor cursor = it->second;
    cursors.erase(it);
    const workload::TaskChain& chain = wl.chains[cursor.chain];
    if (cursor.next_link >= chain.links.size()) return;
    const TaskId next = SubmitTaskAt(chain.links[cursor.next_link], now);
    cursors.emplace(next, ChainCursor{cursor.chain, cursor.next_link + 1});
  });

  // Chains are sorted by head_index, so one cursor pairs heads with their
  // timeline position while the timeline is submitted in order.
  std::size_t next_chain = 0;
  for (std::size_t i = 0; i < wl.tasks.size(); ++i) {
    const TaskId id = SubmitTaskAt(wl.tasks[i], wl.tasks[i].create_time);
    if (next_chain < wl.chains.size() &&
        wl.chains[next_chain].head_index == i) {
      cursors.emplace(id, ChainCursor{next_chain, 0});
      ++next_chain;
    }
  }
  return RunWithWorkload({});
}

analysis::AuditReport Simulator::AuditStructures() const {
  analysis::AuditReport report = analysis::StructureAuditor::AuditAll(
      store_, suspension_, kernel_.queue(), kernel_.now());
  // With the live registry on, also cross-check its counters against the
  // structures they observe (valid because the CLI/tests reset the registry
  // at run start, so it covers exactly this run).
  analysis::AuditReport metrics = analysis::StructureAuditor::AuditMetrics(
      store_, suspension_, kernel_.queue(), tasks_);
  report.violations.insert(
      report.violations.end(),
      std::make_move_iterator(metrics.violations.begin()),
      std::make_move_iterator(metrics.violations.end()));
  return report;
}

void Simulator::AuditAt(const char* where) {
  const analysis::AuditReport report = AuditStructures();
  if (report.ok()) return;
  throw std::logic_error(
      Format("structure audit failed after {}: {}", where, report.Render()));
}

MetricsReport Simulator::RunWithWorkload(const workload::Workload& wl) {
  if (ran_) throw std::logic_error("Simulator instances are single-use");
  ran_ = true;
  submitted_tasks_ += jobs_.Submit(wl, [this](TaskId id) { HandleArrival(id); });
  if (faults_.enabled() && submitted_tasks_ > terminal_tasks_) {
    kernel_role_.AssertHeld();
    RearmFaults();
  }
  (void)kernel_.Run();
  return FinishReport();
}

void Simulator::HandleArrival(TaskId id) {
  metrics_.OnTaskGenerated();
  Emit(SimEvent::Kind::kArrival, id);
  store_.meter().BeginTask();
  const sched::Outcome outcome = AttemptSchedule(id, /*is_arrival=*/true);
  if (outcome == sched::Outcome::kSuspend) {
    resource::Task& task = tasks_.Get(id);
    task.state = resource::TaskState::kSuspended;
    metrics_.OnSuspendedFirstTime();
    Emit(SimEvent::Kind::kSuspended, id);
    EnqueueSuspended(id);
  }
  ObserveState();
  MaybeAudit("arrival");
}

void Simulator::ObserveState() {
  const rms::SystemSnapshot snapshot = info_.Snapshot(kernel_.now());
  monitor_.ObserveSnapshot(snapshot, suspension_.size());
  if (state_observer_) {
    StateSample sample;
    sample.tick = snapshot.at;
    sample.busy_nodes = snapshot.busy_nodes;
    sample.running_tasks = snapshot.running_tasks;
    sample.suspended_tasks = suspension_.size();
    sample.wasted_area = snapshot.wasted_area;
    sample.scheduler_steps = store_.meter().total_workload();
    sample.failed_nodes = store_.failed_node_count();
    state_observer_(sample);
  }
}

void Simulator::EmitExplain(TaskId id, bool is_arrival, sched::Outcome outcome,
                            const char* reason,
                            const sched::Decision* decision) {
  ExplainRecord record;
  record.task = id;
  record.tick = kernel_.now();
  record.is_arrival = is_arrival;
  record.outcome = outcome;
  record.reason = reason;
  if (decision != nullptr) {
    record.node = decision->entry.node;
    record.config = decision->config;
    record.kind = decision->kind;
    record.used_closest_match = decision->used_closest_match;
    record.config_time = decision->config_time;
    record.attempt_steps = store_.meter().current_task_steps();
  }
  record.queue_depth = suspension_.size();
  record.failed_nodes = store_.failed_node_count();
  obs::MetricInc(obs::MetricId::kExplainRecords);
  explain_observer_(record);
}

sched::Outcome Simulator::AttemptSchedule(TaskId id, bool is_arrival) {
  resource::Task& task = tasks_.Get(id);
  const sched::Decision decision = policy_->Schedule(task, store_);
  metrics_.OnScheduleAttempt(kernel_.now(), is_arrival, store_);
  if (decision.config.valid()) task.resolved_config = decision.config;
  if (ShouldExplain(id)) {
    const char* reason = "placed";
    if (decision.outcome == sched::Outcome::kSuspend) {
      reason = "busy-candidate-exists";
    } else if (decision.outcome == sched::Outcome::kDiscard) {
      reason = "no-feasible-host";
    }
    EmitExplain(id, is_arrival, decision.outcome, reason, &decision);
  }

  switch (decision.outcome) {
    case sched::Outcome::kPlaced: {
      const Tick now = kernel_.now();
      task.state = resource::TaskState::kRunning;
      task.assigned_config = decision.config;
      task.assigned_node = decision.entry.node;
      task.start_time = now;
      task.comm_time =
          network_.TransferTime(store_.node(decision.entry.node),
                                task.data_size);
      task.config_wait = decision.config_time;
      if (decision.config_time > 0) {
        // A fresh configuration was loaded: ship its bitstream unless the
        // node still has it cached.
        task.config_wait +=
            BitstreamDelay(store_.node(decision.entry.node), decision.config);
      }
      if (decision.used_closest_match) metrics_.OnClosestMatchUsed();
      if (decision.config_time > 0) {
        metrics_.OnConfigured(
            now, decision.config_time,
            store_.node(decision.entry.node).available_area(), store_);
        metrics_.OnWasteSignal(now, store_.TotalWastedArea());
      }
      metrics_.OnPlaced(decision);
      if (event_logger_) {
        SimEvent placed{SimEvent::Kind::kPlaced, now, id, decision.entry.node,
                        decision.config};
        placed.placement = decision.kind;
        placed.comm_time = task.comm_time;
        placed.config_wait = task.config_wait;
        event_logger_(placed);
      }
      // Running on the closest match instead of C_pref may be slower
      // (Eq. 3 defines t_required on the *preferred* configuration).
      Tick execution = task.required_time;
      if (decision.used_closest_match &&
          config_.closest_match_slowdown != 1.0) {
        execution = std::max<Tick>(
            1, static_cast<Tick>(static_cast<double>(execution) *
                                 config_.closest_match_slowdown));
      }
      const Tick span = task.comm_time + task.config_wait + execution;
      const resource::EntryRef entry = decision.entry;
      const sim::EventHandle completion =
          kernel_.ScheduleAfter(span, sim::EventPriority::kCompletion,
                                [this, id, entry] {
                                  HandleCompletion(id, entry);
                                });
      // Only a node failure ever needs to revoke a completion; fault-free
      // runs skip the handle bookkeeping entirely.
      if (faults_.enabled()) {
        if (completion_events_.size() <= id.value()) {
          completion_events_.resize(id.value() + 1);
        }
        completion_events_[id.value()] = completion;
      }
      DREAMSIM_LOG(LogLevel::kDebug,
                   "t={} task {} placed on node {} slot {} via {}", now,
                   id.value(), entry.node.value(), entry.slot,
                   sched::ToString(decision.kind));
      return decision.outcome;
    }
    case sched::Outcome::kSuspend:
      return decision.outcome;
    case sched::Outcome::kDiscard: {
      task.state = resource::TaskState::kDiscarded;
      metrics_.OnDiscarded();
      Emit(SimEvent::Kind::kDiscarded, id);
      NoteTerminal();
      DREAMSIM_LOG(LogLevel::kDebug, "t={} task {} discarded", kernel_.now(),
                   id.value());
      return decision.outcome;
    }
  }
  throw std::logic_error("unreachable scheduling outcome");
}

resource::SusEntryAttrs Simulator::SusAttrs(const resource::Task& task) const {
  resource::SusEntryAttrs attrs;
  attrs.resolved_config = task.resolved_config;
  attrs.config_family = task.resolved_config.valid()
                            ? store_.configs().Get(task.resolved_config).family
                            : FamilyId::invalid();
  attrs.needed_area = task.needed_area;
  attrs.priority = task.priority;
  return attrs;
}

void Simulator::EnqueueSuspended(TaskId id) {
  if (!suspension_.Add(id, SusAttrs(tasks_.Get(id)), store_.meter())) {
    // Queue overflow: the system sheds load by discarding the task.
    resource::Task& task = tasks_.Get(id);
    task.state = resource::TaskState::kDiscarded;
    metrics_.OnDiscarded();
    if (ShouldExplain(id)) {
      EmitExplain(id, /*is_arrival=*/false, sched::Outcome::kDiscard,
                  "queue-overflow", nullptr);
    }
    Emit(SimEvent::Kind::kDiscarded, id);
    NoteTerminal();
    DREAMSIM_LOG(LogLevel::kWarning,
                 "t={} suspension queue full; task {} discarded",
                 kernel_.now(), id.value());
  }
}

void Simulator::HandleCompletion(TaskId id, resource::EntryRef entry) {
  resource::Task& task = tasks_.Get(id);
  task.completion_time = kernel_.now();
  task.state = resource::TaskState::kCompleted;
  if (id.value() < completion_events_.size()) {
    completion_events_[id.value()] = {};
  }
  const ConfigId freed_config = store_.node(entry.node).Slot(entry.slot).config;
  const TaskId released = store_.ReleaseTask(entry);
  if (released != id) {
    throw std::logic_error("completion released a different task");
  }
  metrics_.OnCompleted(task);
  Emit(SimEvent::Kind::kCompleted, id, entry.node, freed_config);
  NoteTerminal();
  DrainSuspensionQueue(entry.node, freed_config);
  ObserveState();
  MaybeAudit("completion");
  if (completion_hook_) completion_hook_(id, kernel_.now());
}

bool Simulator::CouldUseNode(const resource::Task& task,
                             const resource::Node& node,
                             ConfigId freed_config) const {
  // Direct reuse: the freed entry already carries the task's resolved
  // configuration.
  if (task.resolved_config.valid() && task.resolved_config == freed_config) {
    return true;
  }
  // Family compatibility gates every other route onto this node.
  if (task.resolved_config.valid() &&
      !store_.configs().Get(task.resolved_config).CompatibleWith(
          node.family())) {
    return false;
  }
  // Spare fabric could host the task directly, or reclaiming the node's
  // idle entries (Algorithm 1, restricted to this node) could free enough
  // room. The store answers both from its incremental busy-area tally in
  // O(1) — the same outcome as accumulating idle-entry areas slot by slot.
  return store_.CouldEventuallyHost(node.id(), task.needed_area);
}

void Simulator::DrainSuspensionQueue(NodeId freed_node,
                                     ConfigId freed_config) {
  // "Each time a node finishes executing a task, the suspension queue is
  // checked using this method to determine if a suitable task is waiting in
  // the queue which can be executed on the node." The scan is FIFO-first;
  // each visited queue entry costs one scheduler search step (this is part
  // of the effort to assign tasks to nodes, and it is what makes the
  // full-reconfiguration scenario's Fig. 9 curves grow with the queue).
  // With the drain index enabled, candidate selection is answered from the
  // queue's O(log Q) structures and the scan's step charges are replayed
  // analytically — decisions and metrics are bit-identical either way.
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSuspensionDrain);
  if (suspension_.empty()) return;
  const resource::Node& node = store_.node(freed_node);
  const std::size_t max_policy_runs = config_.suspension_batch == 0
                                          ? suspension_.size()
                                          : config_.suspension_batch;
  if (config_.mode == sched::ReconfigMode::kFull) {
    DrainFullMode(node, freed_config);
  } else if (config_.priority_scheduling) {
    DrainPartialPriority(node, freed_config, max_policy_runs);
  } else {
    DrainPartialFifo(node, freed_config, max_policy_runs);
  }
}

Simulator::DrainAttempt Simulator::AttemptQueuedAt(std::size_t index) {
  const TaskId id = suspension_.tasks()[index];
  obs::MetricInc(obs::MetricId::kDrainAttempts);
  store_.meter().BeginTask();
  const sched::Outcome outcome = AttemptSchedule(id, /*is_arrival=*/false);
  if (outcome == sched::Outcome::kPlaced ||
      outcome == sched::Outcome::kDiscard) {
    if (outcome == sched::Outcome::kPlaced) {
      obs::MetricInc(obs::MetricId::kDrainPlacements);
    }
    suspension_.RemoveAt(index, store_.meter());
    MaybeAudit("queued-attempt");
    return {outcome == sched::Outcome::kPlaced, true};
  }
  // The prefilter was optimistic but the policy could not place the task
  // anywhere: count the retry and optionally give up on it.
  resource::Task& failed = tasks_.Get(id);
  ++failed.sus_retry;
  if (config_.max_suspension_retries != 0 &&
      failed.sus_retry >= config_.max_suspension_retries) {
    suspension_.RemoveAt(index, store_.meter());
    failed.state = resource::TaskState::kDiscarded;
    metrics_.OnDiscarded();
    if (ShouldExplain(id)) {
      EmitExplain(id, /*is_arrival=*/false, sched::Outcome::kDiscard,
                  "retry-budget-exhausted", nullptr);
    }
    Emit(SimEvent::Kind::kDiscarded, id);
    NoteTerminal();
    MaybeAudit("queued-attempt");
    return {false, true};
  }
  // The attempt may have re-resolved the task's configuration while it
  // stays queued; keep the indexed attributes in sync (uncharged — the
  // reference scans re-read task state directly).
  suspension_.RefreshAttrs(id, SusAttrs(failed));
  MaybeAudit("queued-attempt");
  return {false, false};
}

void Simulator::DrainFullMode(const resource::Node& node,
                              ConfigId freed_config) {
  // Full reconfiguration: a queued task is executable *on this node*
  // without reconfiguration only if it wants exactly the configuration
  // the node carries. The traversal mirrors the original DReAMSim's
  // RemoveTaskFromSusQueue: it checks every queued task (this full,
  // per-completion queue walk is what makes the paper's Fig. 9 curves
  // for the full scenario grow with the queue), keeping the oldest exact
  // match and — only when no match exists anywhere — the oldest task the
  // node's whole fabric could be reconfigured to fit (so nodes cannot
  // idle forever once arrivals stop). Under priority scheduling "oldest"
  // becomes "highest priority, FIFO tie-break" for both picks.
  const bool by_priority = config_.priority_scheduling;
  if (suspension_.drain_indexed()) {
    // The reference walk inspects every queued entry exactly once.
    store_.meter().Add(resource::StepKind::kSchedulingSearch,
                       suspension_.size());
    // The fallback is only consulted when no exact match exists anywhere,
    // so its candidate set cannot contain a matching task — querying the
    // family groups without exclusions is exact. A repair drain passes an
    // invalid freed_config (a blank revived node carries nothing to reuse),
    // skipping the exact-match pick entirely.
    std::optional<std::size_t> pick;
    if (freed_config.valid()) {
      pick = by_priority ? suspension_.BestPriorityExactMatch(freed_config)
                         : suspension_.OldestExactMatch(freed_config);
    }
    if (!pick) {
      pick = by_priority
                 ? suspension_.BestPriorityEligible(
                       node.family(), node.total_area(), ConfigId::invalid())
                 : suspension_.OldestEligible(node.family(), node.total_area(),
                                              /*from=*/0, ConfigId::invalid());
    }
    if (pick) (void)AttemptQueuedAt(*pick);
    return;
  }
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  std::size_t match_index = 0;
  bool has_match = false;
  double match_priority = 0.0;
  std::size_t fallback_index = 0;
  bool has_fallback = false;
  double fallback_priority = 0.0;
  for (std::size_t i = 0; i < suspension_.size(); ++i) {
    const resource::Task& task = tasks_.Get(suspension_.tasks()[i]);
    store_.meter().Add(resource::StepKind::kSchedulingSearch);
    if (freed_config.valid() && task.resolved_config == freed_config) {
      if (!has_match || (by_priority && task.priority > match_priority)) {
        match_index = i;
        match_priority = task.priority;
        has_match = true;
      }
    } else if (task.needed_area <= node.total_area() &&
               (!task.resolved_config.valid() ||
                store_.configs()
                    .Get(task.resolved_config)
                    .CompatibleWith(node.family()))) {
      if (!has_fallback ||
          (by_priority && task.priority > fallback_priority)) {
        fallback_index = i;
        fallback_priority = task.priority;
        has_fallback = true;
      }
    }
  }
  if (has_match) {
    (void)AttemptQueuedAt(match_index);
  } else if (has_fallback) {
    (void)AttemptQueuedAt(fallback_index);
  }
}

void Simulator::DrainPartialPriority(const resource::Node& node,
                                     ConfigId freed_config,
                                     std::size_t max_policy_runs) {
  // Partial reconfiguration has "more options": a matching idle entry,
  // spare area, or reclaimable idle regions all qualify; under priority
  // scheduling each policy run re-walks the whole queue for the best
  // (priority, FIFO-tie) candidate.
  if (suspension_.drain_indexed()) {
    for (std::size_t policy_runs = 0; policy_runs < max_policy_runs;
         ++policy_runs) {
      // The reference pass re-walks the (shrinking) queue every run —
      // including the final run that finds nothing.
      store_.meter().Add(resource::StepKind::kSchedulingSearch,
                         suspension_.size());
      // CouldUseNode is "exact config match, or family-compatible with
      // needed_area within the node's could-eventually-host bound"; the
      // store state is constant within one pass, so one bound covers it.
      const std::optional<std::size_t> best = suspension_.BestPriorityEligible(
          node.family(), store_.CouldEventuallyHostBound(node.id()),
          freed_config);
      if (!best) return;
      const DrainAttempt attempt = AttemptQueuedAt(*best);
      // kSuspend left the task in place; re-scanning would loop.
      if (!attempt.placed && !attempt.removed) return;
    }
    return;
  }
  for (std::size_t policy_runs = 0; policy_runs < max_policy_runs;
       ++policy_runs) {
    // Full counted scan for the best (priority, FIFO-tie) candidate.
    obs::MetricInc(obs::MetricId::kSusqScanFallback);
    std::size_t best_index = 0;
    bool found = false;
    double best_priority = 0.0;
    for (std::size_t i = 0; i < suspension_.size(); ++i) {
      const resource::Task& task = tasks_.Get(suspension_.tasks()[i]);
      store_.meter().Add(resource::StepKind::kSchedulingSearch);
      if (!CouldUseNode(task, node, freed_config)) continue;
      if (!found || task.priority > best_priority) {
        best_index = i;
        best_priority = task.priority;
        found = true;
      }
    }
    if (!found) return;
    const DrainAttempt attempt = AttemptQueuedAt(best_index);
    // kSuspend left the task in place; re-scanning would loop.
    if (!attempt.placed && !attempt.removed) return;
  }
}

void Simulator::DrainPartialFifo(const resource::Node& node,
                                 ConfigId freed_config,
                                 std::size_t max_policy_runs) {
  // FIFO drain: one resumable pass; each queue entry is inspected at most
  // once per completion.
  std::size_t index = 0;
  std::size_t policy_runs = 0;
  if (suspension_.drain_indexed()) {
    while (index < suspension_.size() && policy_runs < max_policy_runs) {
      const std::optional<std::size_t> next = suspension_.OldestEligible(
          node.family(), store_.CouldEventuallyHostBound(node.id()), index,
          freed_config);
      if (!next) {
        // The reference walk visits the remaining tail without a match.
        store_.meter().Add(resource::StepKind::kSchedulingSearch,
                           suspension_.size() - index);
        return;
      }
      // Entries in [index, *next) fail the prefilter; the reference walk
      // charges one step per visit, candidate included.
      store_.meter().Add(resource::StepKind::kSchedulingSearch,
                         *next - index + 1);
      ++policy_runs;
      const DrainAttempt attempt = AttemptQueuedAt(*next);
      // kSuspend keeps the task at `*next`; a repeat attempt this drain
      // would loop, so stop. (Removal leaves `*next` pointing at the next
      // FIFO entry and the walk resumes there.)
      if (!attempt.placed && !attempt.removed) return;
      index = *next;
    }
    return;
  }
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  while (index < suspension_.size() && policy_runs < max_policy_runs) {
    const resource::Task& task = tasks_.Get(suspension_.tasks()[index]);
    store_.meter().Add(resource::StepKind::kSchedulingSearch);
    if (!CouldUseNode(task, node, freed_config)) {
      ++index;
      continue;
    }
    ++policy_runs;
    const DrainAttempt attempt = AttemptQueuedAt(index);
    // kSuspend keeps the task at `index`; a repeat attempt this drain
    // would loop, so stop. (Removal cases leave `index` pointing at the
    // next FIFO entry and the loop continues.)
    if (!attempt.placed && !attempt.removed) return;
  }
}

MetricsReport Simulator::FinishReport() {
  const Tick end = kernel_.now();
  // End-of-run audit runs before the final queue sweep so it sees the
  // structures exactly as the event loop left them (step mode audited
  // every decision already; auditing once more here is cheap).
  if (config_.audit != analysis::AuditMode::kOff) AuditAt("run");
  // Any task still suspended when the event queue drained can never run.
  while (!suspension_.empty()) {
    const auto id = suspension_.PopFirstMatching(
        [](TaskId) { return true; }, store_.meter());
    if (!id) break;
    resource::Task& task = tasks_.Get(*id);
    task.state = resource::TaskState::kDiscarded;
    metrics_.OnDiscarded();
    if (ShouldExplain(*id)) {
      EmitExplain(*id, /*is_arrival=*/false, sched::Outcome::kDiscard,
                  "drained-at-end", nullptr);
    }
    Emit(SimEvent::Kind::kDiscarded, *id);
    NoteTerminal();
  }
  utilization_ = monitor_.Finish(end);
  MetricsReport report = metrics_.Finish(config_, policy_->name(), store_, end);
  const CacheStats cache = bitstream_cache_stats();
  report.bitstream_hits = cache.hits;
  report.bitstream_misses = cache.misses;
  report.bitstream_transfer_time = bitstream_transfer_total_;
  report.failures_injected = failures_injected_;
  report.repairs_completed = repairs_completed_;
  report.tasks_killed = tasks_killed_;
  report.lost_work_area_ticks = lost_work_area_ticks_;
  Tick downtime = downtime_total_;
  for (const Tick since : failed_since_) {
    if (since != kNoTick) downtime += end - since;  // down through run end
  }
  report.total_downtime = downtime;
  if (faults_.enabled()) {
    for (const resource::Task& task : tasks_.all()) {
      if (task.kill_count == 0) continue;
      if (task.state == resource::TaskState::kCompleted) {
        ++report.tasks_recovered;
      } else if (task.state == resource::TaskState::kDiscarded) {
        ++report.tasks_lost_to_failure;
      }
    }
  }
  return report;
}

// --- Fault injection (DESIGN.md §10) ---

void Simulator::ArmFailure(NodeId node) {
  if (terminal_tasks_ >= submitted_tasks_) return;
  fault_process_events_[node.value()] = kernel_.ScheduleAfter(
      faults_.NextFailureDelay(), sim::EventPriority::kControl, [this, node] {
        kernel_role_.AssertHeld();
        fault_process_events_[node.value()] = {};
        ApplyFault(node, FaultAction::kFail);
        if (faults_.params().repairs_enabled()) ArmRepair(node);
      });
}

void Simulator::ArmRepair(NodeId node) {
  if (terminal_tasks_ >= submitted_tasks_) return;
  fault_process_events_[node.value()] = kernel_.ScheduleAfter(
      faults_.NextRepairDelay(), sim::EventPriority::kControl, [this, node] {
        kernel_role_.AssertHeld();
        fault_process_events_[node.value()] = {};
        ApplyFault(node, FaultAction::kRepair);
        ArmFailure(node);
      });
}

void Simulator::RearmFaults() {
  ScheduleFaultScript();
  if (!faults_.params().process_enabled()) return;
  for (std::size_t i = 0; i < store_.node_count(); ++i) {
    if (fault_process_events_[i].valid()) continue;
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (store_.node(id).failed()) {
      if (faults_.params().repairs_enabled()) ArmRepair(id);
    } else {
      ArmFailure(id);
    }
  }
}

void Simulator::ScheduleFaultScript() {
  const Tick now = kernel_.now();
  for (std::size_t i = 0; i < fault_script_.size(); ++i) {
    ScriptedFault& pending = fault_script_[i];
    if (pending.fired || pending.handle.valid() || pending.event.at < now) {
      continue;
    }
    // The index capture is stable: fault_script_ is never resized after
    // construction.
    pending.handle = kernel_.ScheduleAt(
        pending.event.at, sim::EventPriority::kControl, [this, i] {
          kernel_role_.AssertHeld();
          ScriptedFault& entry = fault_script_[i];
          entry.handle = {};
          entry.fired = true;
          ApplyFault(entry.event.node, entry.event.action);
        });
  }
}

void Simulator::ApplyFault(NodeId node, FaultAction action) {
  // Once the workload drained, late-cancelled stragglers are no-ops; so are
  // scripted events that lost the race against the random process.
  if (terminal_tasks_ >= submitted_tasks_) return;
  if (action == FaultAction::kFail) {
    if (!store_.node(node).failed()) HandleNodeFailure(node);
  } else if (store_.node(node).failed()) {
    HandleNodeRepair(node);
  }
}

void Simulator::HandleNodeFailure(NodeId node_id) {
  const Tick now = kernel_.now();
  ++failures_injected_;
  failed_since_[node_id.value()] = now;
  Emit(SimEvent::Kind::kNodeFailed, TaskId::invalid(), node_id);
  DREAMSIM_LOG(LogLevel::kDebug, "t={} node {} failed", now, node_id.value());
  const std::vector<TaskId> killed = store_.FailNode(node_id);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kFaultFailures);
    reg.Add(obs::MetricId::kFaultKills, killed.size());
    reg.GaugeSet(obs::MetricId::kFaultFailedNodes, store_.failed_node_count());
  }
  for (const TaskId id : killed) {
    resource::Task& task = tasks_.Get(id);
    if (id.value() < completion_events_.size() &&
        completion_events_[id.value()].valid()) {
      (void)kernel_.Cancel(completion_events_[id.value()]);
      completion_events_[id.value()] = {};
    }
    ++tasks_killed_;
    ++task.kill_count;
    const Area area = store_.configs().Get(task.assigned_config).required_area;
    // Only destroyed execution counts as lost work: a task killed inside
    // its comm/config window has not run yet, and the setup cost is paid
    // again in full on the next placement regardless.
    const Tick setup_done = task.start_time + task.comm_time + task.config_wait;
    if (now > setup_done) {
      const std::uint64_t lost = static_cast<std::uint64_t>(area) *
                                 static_cast<std::uint64_t>(now - setup_done);
      lost_work_area_ticks_ += lost;
      obs::MetricInc(obs::MetricId::kFaultLostWorkTicks, lost);
    }
    Emit(SimEvent::Kind::kKilled, id, node_id, task.assigned_config);
    task.assigned_config = ConfigId::invalid();
    task.assigned_node = NodeId::invalid();
    task.comm_time = 0;
    task.config_wait = 0;
    // A kill is not a scheduling attempt: no BeginTask, no search charge,
    // and no sus_retry increment — the retry budget meters re-scheduling
    // attempts, and re-queuing a victim is not one.
    if (config_.max_suspension_retries != 0 &&
        task.sus_retry >= config_.max_suspension_retries) {
      task.state = resource::TaskState::kDiscarded;
      metrics_.OnDiscarded();
      if (ShouldExplain(id)) {
        EmitExplain(id, /*is_arrival=*/false, sched::Outcome::kDiscard,
                    "killed-retry-exhausted", nullptr);
      }
      Emit(SimEvent::Kind::kDiscarded, id);
      NoteTerminal();
      continue;
    }
    task.state = resource::TaskState::kSuspended;
    Emit(SimEvent::Kind::kRequeued, id);
    EnqueueSuspended(id);
  }
  ObserveState();
  MaybeAudit("node-failure");
}

void Simulator::HandleNodeRepair(NodeId node_id) {
  const Tick now = kernel_.now();
  ++repairs_completed_;
  downtime_total_ += now - failed_since_[node_id.value()];
  failed_since_[node_id.value()] = kNoTick;
  store_.RepairNode(node_id);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kFaultRepairs);
    reg.GaugeSet(obs::MetricId::kFaultFailedNodes, store_.failed_node_count());
  }
  Emit(SimEvent::Kind::kNodeRepaired, TaskId::invalid(), node_id);
  DREAMSIM_LOG(LogLevel::kDebug, "t={} node {} repaired", now,
               node_id.value());
  // The revived node is blank capacity: drain with no reusable config.
  DrainSuspensionQueue(node_id, ConfigId::invalid());
  ObserveState();
  MaybeAudit("node-repair");
}

void Simulator::NoteTerminal() {
  ++terminal_tasks_;
  if (faults_.enabled() && terminal_tasks_ >= submitted_tasks_) {
    kernel_role_.AssertHeld();
    CancelPendingFaultEvents();
  }
}

void Simulator::CancelPendingFaultEvents() {
  for (sim::EventHandle& h : fault_process_events_) {
    if (h.valid()) {
      (void)kernel_.Cancel(h);
      h = {};
    }
  }
  // Unfired script entries keep their `event` (FaultParams::script stays
  // the source of truth): a reviving submission re-schedules them.
  for (ScriptedFault& s : fault_script_) {
    if (s.handle.valid()) {
      (void)kernel_.Cancel(s.handle);
      s.handle = {};
    }
  }
}

}  // namespace dreamsim::core

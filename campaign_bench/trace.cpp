#include "trace.hpp"

#include <time.h>

#include <iterator>

#include "nftape/fabric.hpp"
#include "nftape/fc_fabric.hpp"

namespace hsfi::bench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/// Model-layer counters read through the realizations' public accessors.
struct LayerCounters {
  std::uint64_t injector_chars = 0;
  std::uint64_t injector_fires = 0;
  std::uint64_t packets_routed = 0;
  std::uint64_t flow_symbols = 0;
  std::uint64_t fc_frames_received = 0;
};

LayerCounters read_layers(nftape::Fabric& fabric) {
  LayerCounters c;
  core::InjectorDevice* injector = nullptr;
  if (auto* myri = dynamic_cast<nftape::MyrinetFabric*>(&fabric)) {
    const auto& sw = myri->bed().network_switch();
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const auto s = sw.port_stats(p);
      c.packets_routed += s.packets_routed;
      c.flow_symbols += s.flow_stops_sent + s.flow_gos_sent;
    }
    injector = &myri->bed().injector();
  } else if (auto* fc = dynamic_cast<nftape::FcFabric*>(&fabric)) {
    for (std::size_t i = 0; i < fc->config().nodes; ++i) {
      c.fc_frames_received += fc->node_port(i).stats().frames_received;
    }
    injector = &fc->injector();
  }
  if (injector != nullptr) {
    for (const auto dir :
         {core::Direction::kLeftToRight, core::Direction::kRightToLeft}) {
      const auto& s = injector->fifo_stats(dir);
      c.injector_chars += s.characters;
      c.injector_fires += s.injections;
    }
  }
  return c;
}

/// The span buffer of one executor call (one Runner attempt). Calls made
/// while a scope (boot, campaign) is open nest under it; the root span is
/// the executor call itself.
class RunTrace {
 public:
  RunTrace(Tracer& tracer, const orchestrator::RunSpec& run)
      : tracer_(tracer), run_(run) {
    const auto enter = Clock::now();
    Span root;
    root.id = tracer_.next_id();
    root.layer = "orchestrator";
    root.name = "run";
    root.run = static_cast<std::int64_t>(run.index);
    root.round = run.round;
    root.t0 = tracer_.ns(enter);
    spans_.push_back(root);
    scopes_.push_back(0);
    overhead_ += Clock::now() - enter;
  }

  ~RunTrace() {
    const auto end = Clock::now();
    while (scopes_.size() > 1) close();
    spans_.front().t1 = tracer_.ns(end);
    tracer_.commit(std::move(spans_), overhead_ + (Clock::now() - end));
  }

  RunTrace(const RunTrace&) = delete;
  RunTrace& operator=(const RunTrace&) = delete;

  /// Opens a scope span; later spans nest under it until close().
  void open(const char* layer, const char* name) {
    const auto enter = Clock::now();
    Span s = child(layer, name);
    s.t0 = tracer_.ns(enter);
    scopes_.push_back(spans_.size());
    spans_.push_back(std::move(s));
    overhead_ += Clock::now() - enter;
  }
  void close() {
    spans_[scopes_.back()].t1 = tracer_.ns(Clock::now());
    scopes_.pop_back();
  }
  [[nodiscard]] Span& scope() { return spans_[scopes_.back()]; }

  [[nodiscard]] Span child(const char* layer, const char* name) {
    Span s;
    s.id = tracer_.next_id();
    s.parent = spans_[scopes_.back()].id;
    s.layer = layer;
    s.name = name;
    s.run = static_cast<std::int64_t>(run_.index);
    s.round = run_.round;
    return s;
  }
  void push(Span s) { spans_.push_back(std::move(s)); }
  void add_overhead(Clock::duration d) { overhead_ += d; }

  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const orchestrator::RunSpec& run() const noexcept {
    return run_;
  }

  /// Campaign phase of the next settle() calls.
  const char* phase = "startup";

 private:
  Tracer& tracer_;
  const orchestrator::RunSpec& run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> scopes_;  ///< indices into spans_; [0] = root
  Clock::duration overhead_{};
};

/// Times one forwarded call as a child of the open scope. With `sim`, also
/// counts the events executed and symbols sent inside the call.
class CallSpan {
 public:
  CallSpan(RunTrace& trace, const char* layer, const char* name,
           nftape::Fabric* sim = nullptr)
      : trace_(trace),
        enter_(Clock::now()),
        span_(trace.child(layer, name)),
        sim_(sim) {
    if (sim_ != nullptr) {
      span_.phase = trace.phase;
      events_ = sim_->sim().executed_events();
      symbols_ = sim_->symbols_sent();
    }
    start_ = Clock::now();
  }

  ~CallSpan() {
    const auto end = Clock::now();
    span_.t0 = trace_.tracer().ns(start_);
    span_.t1 = trace_.tracer().ns(end);
    if (sim_ != nullptr) {
      span_.events = sim_->sim().executed_events() - events_;
      span_.symbols = sim_->symbols_sent() - symbols_;
    }
    trace_.push(std::move(span_));
    trace_.add_overhead((start_ - enter_) + (Clock::now() - end));
  }

  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  RunTrace& trace_;
  Clock::time_point enter_;
  Span span_;
  nftape::Fabric* sim_;
  std::uint64_t events_ = 0;
  std::uint64_t symbols_ = 0;
  Clock::time_point start_;
};

/// Forwards every Fabric call to `inner`, recording one span per call and
/// the campaign phase of each settle. At the campaign's boundaries (after
/// reset_to_known_good, before clear_workload) it reads the model-layer
/// counters and attaches their deltas to the campaign scope span.
class TracingFabric final : public nftape::Fabric {
 public:
  TracingFabric(nftape::Fabric& inner, RunTrace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] nftape::Medium medium() const noexcept override {
    return inner_.medium();
  }
  [[nodiscard]] sim::Simulator& sim() noexcept override {
    return inner_.sim();
  }
  [[nodiscard]] std::uint64_t base_seed() const noexcept override {
    return inner_.base_seed();
  }
  [[nodiscard]] std::uint64_t symbols_sent() const noexcept override {
    return inner_.symbols_sent();
  }

  void start() override {
    CallSpan s(trace_, "nftape", "start");
    inner_.start();
  }
  void settle(sim::Duration span) override {
    CallSpan s(trace_, "sim", "settle", &inner_);
    inner_.settle(span);
  }
  void reset_to_known_good(std::uint64_t seed) override {
    {
      CallSpan s(trace_, "nftape", "reset_to_known_good");
      inner_.reset_to_known_good(seed);
    }
    const auto t = Clock::now();
    begin_ = read_layers(inner_);
    trace_.add_overhead(Clock::now() - t);
  }
  void program_fault(core::Direction dir, const core::InjectorConfig& config,
                     bool via_serial) override {
    CallSpan s(trace_, "nftape", "program_fault");
    inner_.program_fault(dir, config, via_serial);
  }
  void disarm_faults(bool via_serial) override {
    trace_.phase = "disarm";
    CallSpan s(trace_, "nftape", "disarm_faults");
    inner_.disarm_faults(via_serial);
  }
  void attach_monitors(analysis::ManifestationAnalyzer& analyzer) override {
    analyzer_ = &analyzer;
    CallSpan s(trace_, "nftape", "attach_monitors");
    inner_.attach_monitors(analyzer);
  }
  void detach_monitors() override {
    if (analyzer_ != nullptr) {
      auto& scope = trace_.scope();
      scope.counts.emplace_back("analysis_injections",
                                analyzer_->injections_recorded());
      scope.counts.emplace_back("analysis_observations",
                                analyzer_->observations_recorded());
      analyzer_ = nullptr;
    }
    CallSpan s(trace_, "nftape", "detach_monitors");
    inner_.detach_monitors();
  }
  void start_workload(const nftape::WorkloadSpec& workload,
                      std::uint64_t seed,
                      analysis::ManifestationAnalyzer& analyzer) override {
    {
      CallSpan s(trace_, "nftape", "start_workload");
      inner_.start_workload(workload, seed, analyzer);
    }
    trace_.phase = "traffic";
  }
  void stop_workload() override {
    CallSpan s(trace_, "nftape", "stop_workload");
    inner_.stop_workload();
  }
  void clear_workload() override {
    const auto t = Clock::now();
    const LayerCounters end = read_layers(inner_);
    auto& counts = trace_.scope().counts;
    counts.emplace_back("injector_chars",
                        end.injector_chars - begin_.injector_chars);
    counts.emplace_back("injector_fires",
                        end.injector_fires - begin_.injector_fires);
    counts.emplace_back("packets_routed",
                        end.packets_routed - begin_.packets_routed);
    counts.emplace_back("flow_symbols", end.flow_symbols - begin_.flow_symbols);
    counts.emplace_back("fc_frames_received",
                        end.fc_frames_received - begin_.fc_frames_received);
    // CampaignRunner takes exactly two snapshots, bracketing the window.
    counts.emplace_back("messages_sent",
                        window_end_.messages_sent -
                            window_begin_.messages_sent);
    counts.emplace_back(
        "messages_received",
        window_end_.messages_received - window_begin_.messages_received);
    trace_.add_overhead(Clock::now() - t);
    CallSpan s(trace_, "nftape", "clear_workload");
    inner_.clear_workload();
  }
  void arm_scenario(const scenario::ScenarioSpec& spec, std::uint64_t seed,
                    analysis::ManifestationAnalyzer& analyzer) override {
    CallSpan s(trace_, "nftape", "arm_scenario");
    inner_.arm_scenario(spec, seed, analyzer);
  }
  void disarm_scenario() override {
    CallSpan s(trace_, "nftape", "disarm_scenario");
    inner_.disarm_scenario();
  }
  [[nodiscard]] nftape::FabricCounters snapshot() const override {
    CallSpan s(trace_, "nftape", "snapshot");
    const nftape::FabricCounters c = inner_.snapshot();
    (snapshots_++ == 0 ? window_begin_ : window_end_) = c;
    return c;
  }
  [[nodiscard]] sim::Duration recovery_time() const override {
    trace_.phase = "recovery";
    return inner_.recovery_time();
  }
  [[nodiscard]] std::unique_ptr<nftape::FabricSnapshot> capture_snapshot()
      override {
    CallSpan s(trace_, "nftape", "capture_snapshot");
    return inner_.capture_snapshot();
  }
  void restore_snapshot(const nftape::FabricSnapshot& snap) override {
    CallSpan s(trace_, "nftape", "restore_snapshot");
    inner_.restore_snapshot(snap);
  }

 private:
  nftape::Fabric& inner_;
  RunTrace& trace_;
  analysis::ManifestationAnalyzer* analyzer_ = nullptr;
  LayerCounters begin_;
  mutable int snapshots_ = 0;
  mutable nftape::FabricCounters window_begin_;
  mutable nftape::FabricCounters window_end_;
};

/// The Runner's startup settle: chunked at the poll interval, with the
/// watchdog consulted between chunks.
void settle_startup(nftape::Fabric& fabric, sim::Duration span,
                    const nftape::RunControl& control) {
  sim::Duration elapsed = 0;
  const sim::Duration chunk =
      control.poll_interval > 0 ? control.poll_interval : span;
  sim::Duration left = span;
  while (left > 0) {
    if (control.should_cancel && control.should_cancel(elapsed)) {
      throw nftape::RunCancelled("cancelled during testbed startup");
    }
    const sim::Duration step = left < chunk ? left : chunk;
    fabric.settle(step);
    elapsed += step;
    left -= step;
  }
}

/// Builds, starts and settles a fresh fabric under a "boot" scope.
std::unique_ptr<nftape::Fabric> boot(RunTrace& trace,
                                     const nftape::RunControl& control) {
  const auto& run = trace.run();
  trace.open("nftape", "boot");
  trace.phase = "startup";
  std::unique_ptr<nftape::Fabric> fabric;
  {
    CallSpan s(trace, "nftape", "make_fabric");
    fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  }
  TracingFabric traced(*fabric, trace);
  traced.start();
  settle_startup(traced, run.startup_settle, control);
  trace.close();
  return fabric;
}

/// CampaignRunner::run on the traced view of `fabric`, under a "campaign"
/// scope carrying the run's simulated work and layer counters.
nftape::CampaignResult campaign(nftape::Fabric& fabric, RunTrace& trace,
                                const nftape::RunControl& control) {
  const auto& run = trace.run();
  trace.open("nftape", "campaign");
  trace.phase = "program";
  const std::uint64_t events = fabric.sim().executed_events();
  const std::uint64_t symbols = fabric.symbols_sent();
  TracingFabric traced(fabric, trace);
  nftape::CampaignRunner runner(traced);
  auto result = runner.run(run.campaign, &control, run.startup_settle);
  trace.scope().events = fabric.sim().executed_events() - events;
  trace.scope().symbols = fabric.symbols_sent() - symbols;
  trace.close();
  return result;
}

}  // namespace

/// Mirrors Runner::SnapshotCache: the settled fabric and its captured
/// state, keyed by (medium, startup settle, seed-normalized TestbedConfig).
struct Tracer::SnapshotCache {
  bool valid = false;
  nftape::Medium medium = nftape::Medium::kMyrinet;
  sim::Duration startup_settle = 0;
  nftape::TestbedConfig config;
  std::unique_ptr<nftape::Fabric> fabric;
  std::unique_ptr<nftape::FabricSnapshot> snap;

  [[nodiscard]] bool holds(const orchestrator::RunSpec& run,
                           const nftape::TestbedConfig& norm) const {
    return valid && medium == run.campaign.medium &&
           startup_settle == run.startup_settle && config == norm;
  }
};

/// A snapshot cache taken out of the idle pool for one executor call: one
/// holding the run's cell when there is one, else any idle cache, else a
/// new one. Returned to the pool when the call ends.
class Tracer::Lease {
 public:
  Lease(Tracer& tracer, const orchestrator::RunSpec& run,
        const nftape::TestbedConfig& norm)
      : tracer_(tracer) {
    const std::lock_guard<std::mutex> lock(tracer_.caches_mu_);
    auto& idle = tracer_.idle_caches_;
    auto pick = idle.end();
    for (auto it = idle.begin(); it != idle.end(); ++it) {
      if ((*it)->holds(run, norm)) {
        pick = it;
        break;
      }
    }
    if (pick == idle.end() && !idle.empty()) pick = std::prev(idle.end());
    if (pick != idle.end()) {
      cache_ = std::move(*pick);
      idle.erase(pick);
    } else {
      cache_ = std::make_unique<SnapshotCache>();
    }
  }
  ~Lease() {
    const std::lock_guard<std::mutex> lock(tracer_.caches_mu_);
    tracer_.idle_caches_.push_back(std::move(cache_));
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  SnapshotCache& operator*() { return *cache_; }

 private:
  Tracer& tracer_;
  std::unique_ptr<SnapshotCache> cache_;
};

Tracer::Tracer(Clock::time_point origin) : origin_(origin) {}

Tracer::~Tracer() = default;

std::function<nftape::CampaignResult(const orchestrator::RunSpec&,
                                     const nftape::RunControl&)>
Tracer::executor(bool snapshots) {
  return [this, snapshots](const orchestrator::RunSpec& run,
                           const nftape::RunControl& control) {
    return execute(run, control, snapshots);
  };
}

nftape::CampaignResult Tracer::execute(const orchestrator::RunSpec& run,
                                       const nftape::RunControl& control,
                                       bool snapshots) {
  RunTrace trace(*this, run);
  if (!snapshots) {
    const auto fabric = boot(trace, control);
    return campaign(*fabric, trace, control);
  }

  // Runner::snapshot_execute, step for step.
  nftape::TestbedConfig norm = run.testbed;
  norm.seed = 0;
  Lease lease(*this, run, norm);
  SnapshotCache& cache = *lease;
  if (cache.holds(run, norm)) {
    TracingFabric traced(*cache.fabric, trace);
    traced.restore_snapshot(*cache.snap);
  } else {
    cache.valid = false;
    cache.snap.reset();
    cache.fabric = boot(trace, control);
    {
      TracingFabric traced(*cache.fabric, trace);
      cache.snap = traced.capture_snapshot();
    }
    if (cache.snap == nullptr) {
      auto result = campaign(*cache.fabric, trace, control);
      cache.fabric.reset();
      return result;
    }
    cache.medium = run.campaign.medium;
    cache.startup_settle = run.startup_settle;
    cache.config = norm;
    cache.valid = true;
  }
  return campaign(*cache.fabric, trace, control);
}

void Tracer::mark(const char* layer, const char* name, std::uint32_t round) {
  const auto t = Clock::now();
  Span s;
  s.id = next_id();
  s.layer = layer;
  s.name = name;
  s.round = round;
  s.t0 = s.t1 = ns(t);
  commit({std::move(s)}, Clock::now() - t);
}

void Tracer::commit(std::vector<Span> spans, Clock::duration overhead) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
  overhead_ += overhead;
}

std::vector<Span> Tracer::take_spans() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

std::int64_t Tracer::overhead_ns() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(overhead_)
      .count();
}

void TracingSink::on_record(const orchestrator::RunRecord& record) {
  tracer_.timed("monitor", "on_record", static_cast<std::int64_t>(record.index),
                [&] { inner_.on_record(record); });
}

std::vector<adaptive::RunRequest> TracingStrategy::next_round(
    std::uint32_t round) {
  return tracer_.timed("adaptive", "next_round", -1,
                       [&] { return inner_.next_round(round); });
}

void TracingStrategy::observe(
    const std::vector<adaptive::Observation>& results) {
  tracer_.timed("adaptive", "observe", -1,
                [&] { inner_.observe(results); });
}

}  // namespace hsfi::bench

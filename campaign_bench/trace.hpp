// Tracing for the campaign benchmark's traced pass, from outside the program.
//
// Every layer is observed at its public boundary only, through forwarding
// decorators: an nftape::Fabric decorator installed by a custom
// RunnerConfig::executor (which replays the Runner's cold-start and
// snapshot paths on the decorated fabric), an orchestrator::RecordSink
// decorator, an adaptive::Strategy decorator, and the Runner / Controller
// callbacks. Nothing under src/ is instrumented, so a traced pass executes
// exactly the event stream of an untraced one and emits the same JSONL
// bytes (the benchmark checks that). Time spent inside settle() — the
// kernel plus every model layer it dispatches to — cannot be split from
// out here; that needs in-program component tags.
//
// Spans are kept in memory, one buffer per executor call, and handed to
// the Tracer when the call ends; the benchmark writes them out after the
// pass.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "adaptive/strategy.hpp"
#include "nftape/campaign.hpp"
#include "orchestrator/runner.hpp"
#include "orchestrator/sweep.hpp"

namespace hsfi::bench {

using Clock = std::chrono::steady_clock;

/// CPU time consumed by the calling thread, in nanoseconds.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// One call across a layer boundary.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* layer = "";
  const char* name = "";
  /// settle() spans: the campaign phase the settle belongs to (startup,
  /// program, traffic, disarm, recovery).
  const char* phase = "";
  std::int64_t run = -1;  ///< RunSpec::index; -1 when not tied to one run
  std::uint32_t round = 0;
  std::int64_t t0 = 0;  ///< steady-clock ns since the pass started
  std::int64_t t1 = 0;
  std::int64_t cpu = -1;  ///< thread CPU ns inside the call; -1 = not taken
  /// Simulated work inside the call: kernel events executed and link
  /// symbols transmitted (settle and campaign spans).
  std::uint64_t events = 0;
  std::uint64_t symbols = 0;
  /// Model-layer counters over the call (campaign spans): injector,
  /// switch, FC port, workload and analyzer counts.
  std::vector<std::pair<const char*, std::uint64_t>> counts;
};

/// Collects the spans of one traced pass. Thread-safe: executor calls run
/// on the Runner's worker threads.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// An executor for RunnerConfig::executor replaying the Runner's own
  /// execution path on a traced fabric: a fresh fabric per run when
  /// `snapshots` is false, else a snapshot cache per concurrent worker,
  /// keyed exactly as Runner::SnapshotCache keys it. The Tracer must
  /// outlive every call.
  [[nodiscard]] std::function<nftape::CampaignResult(
      const orchestrator::RunSpec&, const nftape::RunControl&)>
  executor(bool snapshots);

  /// Wraps an inner call in a root span on the calling thread, measuring
  /// wall and thread CPU time (sinks, serialization, strategy planning).
  template <typename F>
  decltype(auto) timed(const char* layer, const char* name, std::int64_t run,
                       F&& call) {
    const auto enter = Clock::now();
    Span span;
    span.id = next_id();
    span.layer = layer;
    span.name = name;
    span.run = run;
    struct Close {
      Tracer& tracer;
      Span& span;
      Clock::time_point enter;
      std::int64_t cpu0 = thread_cpu_ns();
      Clock::time_point start = Clock::now();
      ~Close() {
        const auto end = Clock::now();
        span.cpu = thread_cpu_ns() - cpu0;
        span.t0 = tracer.ns(start);
        span.t1 = tracer.ns(end);
        tracer.commit({std::move(span)},
                      (start - enter) + (Clock::now() - end));
      }
    } close{*this, span, enter};
    return call();
  }

  /// Records an instantaneous marker (e.g. a Controller round barrier).
  void mark(const char* layer, const char* name, std::uint32_t round);

  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  /// Appends finished spans and the bookkeeping time spent recording them.
  void commit(std::vector<Span> spans, Clock::duration overhead);

  [[nodiscard]] std::vector<Span> take_spans();
  /// Wall time spent inside the decorators on bookkeeping (clock and
  /// counter reads, span recording), measured directly.
  [[nodiscard]] std::int64_t overhead_ns() const;

 private:
  struct SnapshotCache;
  class Lease;

  nftape::CampaignResult execute(const orchestrator::RunSpec& run,
                                 const nftape::RunControl& control,
                                 bool snapshots);

  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex mu_;  // guards spans_ and overhead_
  std::vector<Span> spans_;
  Clock::duration overhead_{};

  std::mutex caches_mu_;  // guards idle_caches_
  /// Snapshot caches not leased to a running executor call. At most one
  /// cache exists per concurrently running worker.
  std::vector<std::unique_ptr<SnapshotCache>> idle_caches_;
};

/// RecordSink decorator around the monitor service: times each on_record
/// in wall and thread CPU time.
class TracingSink final : public orchestrator::RecordSink {
 public:
  TracingSink(orchestrator::RecordSink& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_record(const orchestrator::RunRecord& record) override;

 private:
  orchestrator::RecordSink& inner_;
  Tracer& tracer_;
};

/// Strategy decorator: times planning (next_round) and feedback (observe).
class TracingStrategy final : public adaptive::Strategy {
 public:
  TracingStrategy(adaptive::Strategy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] std::vector<adaptive::RunRequest> next_round(
      std::uint32_t round) override;
  void observe(const std::vector<adaptive::Observation>& results) override;
  [[nodiscard]] bool observe_streaming(
      const adaptive::Observation& obs) override {
    return inner_.observe_streaming(obs);
  }

 private:
  adaptive::Strategy& inner_;
  Tracer& tracer_;
};

}  // namespace hsfi::bench

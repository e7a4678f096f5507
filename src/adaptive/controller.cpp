#include "adaptive/controller.hpp"

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

namespace hsfi::adaptive {

namespace {

/// What a strategy learns from one finished (or replayed) run.
Observation observation(const RunRequest& request, std::uint32_t round,
                        const orchestrator::RunRecord& rec) {
  Observation obs;
  obs.request = request;
  obs.round = round;
  obs.ok = rec.outcome == orchestrator::RunOutcome::kOk;
  obs.injections = rec.result.counters.injections;
  obs.duplicates = rec.result.duplicates();
  obs.manifestations = rec.result.manifestations;
  return obs;
}

/// Shared state the streaming callbacks read for the round in flight.
/// Mutated only at batch barriers (no workers running), read by workers
/// mid-batch under the runner's record mutex (bridge) or lock-free with
/// relaxed atomics (skip flags).
struct RoundStream {
  const std::vector<RunRequest>* requests = nullptr;
  std::size_t first_index = 0;
};

/// The RecordSink the controller installs in live mode (early_cancel):
/// hands each completed record to the strategy mid-batch and relays its
/// streaming verdict into the per-cell skip flags.
class StreamBridge final : public orchestrator::RecordSink {
 public:
  StreamBridge(Strategy& strategy, const RoundStream& stream,
               std::vector<std::atomic<bool>>& skip, std::size_t directions)
      : strategy_(strategy),
        stream_(stream),
        skip_(skip),
        directions_(directions) {}

  void on_record(const orchestrator::RunRecord& rec) override {
    if (stream_.requests == nullptr) return;
    const std::size_t i = rec.index - stream_.first_index;
    if (i >= stream_.requests->size()) return;
    const RunRequest& req = (*stream_.requests)[i];
    if (strategy_.observe_streaming(observation(req, rec.round, rec))) {
      skip_[req.cell.fault * directions_ + req.cell.direction].store(
          true, std::memory_order_relaxed);
    }
  }

 private:
  Strategy& strategy_;
  const RoundStream& stream_;
  std::vector<std::atomic<bool>>& skip_;
  std::size_t directions_;
};

/// Deterministic short rendering of a knob value for run names ("112.5",
/// "8"). %.6g keeps sub-integer probes distinguishable without trailing
/// zero noise.
std::string knob_tag(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

Controller::Controller(AdaptiveSpec spec, ControllerConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {}

std::vector<Cell> Controller::cells() const {
  const std::size_t faults = orchestrator::fault_axis(spec_).size();
  const std::size_t directions = orchestrator::direction_axis(spec_).size();
  std::vector<Cell> out;
  out.reserve(faults * directions);
  for (std::uint32_t f = 0; f < faults; ++f) {
    for (std::uint32_t d = 0; d < directions; ++d) {
      out.push_back({f, d});
    }
  }
  return out;
}

std::string Controller::cell_name(const Cell& cell) const {
  std::string name = orchestrator::fault_axis(spec_).at(cell.fault).name;
  name += '/';
  name += to_string(orchestrator::direction_axis(spec_).at(cell.direction));
  return name;
}

std::vector<orchestrator::RunSpec> Controller::expand_round(
    const std::vector<RunRequest>& requests, std::uint32_t round,
    std::size_t first_index, std::string_view strategy_name) const {
  const auto& faults = orchestrator::fault_axis(spec_);
  const auto& directions = orchestrator::direction_axis(spec_);
  // Replicate ordinals are per (cell, knob value) within the round, in
  // request order — the strategy's batching across cells cannot shift
  // another cell's seeds.
  std::map<std::pair<std::uint64_t, double>, std::uint32_t> replicate;
  std::vector<orchestrator::RunSpec> runs;
  runs.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RunRequest& req = requests[i];
    const std::uint64_t cell_key =
        (static_cast<std::uint64_t>(req.cell.fault) << 32) |
        req.cell.direction;
    const std::uint32_t rep = replicate[{cell_key, req.knob_value}]++;

    std::string point(to_string(spec_.knob));
    point += '=';
    point += knob_tag(req.knob_value);
    orchestrator::RunSpec run = orchestrator::plan_run(
        spec_, faults.at(req.cell.fault), directions.at(req.cell.direction),
        point, rep,
        derive_run_seed(spec_.base_seed, round, req.cell.fault,
                        req.cell.direction, rep));
    run.index = spec_.index_base + first_index + i;
    run.round = round;
    run.strategy = std::string(strategy_name);
    run.campaign.name.insert(0, spec_.name_prefix);
    // After fault installation, so kSeuLfsrBits sees the installed
    // directions.
    nftape::apply_knob(run.campaign, spec_.knob, req.knob_value);
    runs.push_back(std::move(run));
  }
  return runs;
}

CampaignOutcome Controller::run(
    Strategy& strategy,
    const std::vector<std::vector<orchestrator::RunRecord>>& replay) {
  CampaignOutcome outcome;
  // Runs accounted so far — replayed and executed. Replayed rounds are not
  // re-materialized in outcome.records, so indices track this instead.
  std::size_t emitted = 0;

  // Live mode: state shared with the runner callbacks for the round in
  // flight. Skip flags are per cell (fault-major, like cells()).
  RoundStream stream;
  const std::size_t directions = orchestrator::direction_axis(spec_).size();
  std::vector<std::atomic<bool>> skip(
      orchestrator::fault_axis(spec_).size() * directions);
  orchestrator::RunnerConfig runner_config = config_.runner;
  std::unique_ptr<StreamBridge> bridge;
  if (config_.early_cancel) {
    bridge =
        std::make_unique<StreamBridge>(strategy, stream, skip, directions);
    runner_config.sinks.push_back(bridge.get());
    runner_config.should_skip =
        [&stream, &skip, directions](const orchestrator::RunSpec& spec) {
          if (stream.requests == nullptr) return false;
          const std::size_t i = spec.index - stream.first_index;
          if (i >= stream.requests->size()) return false;
          const Cell& cell = (*stream.requests)[i].cell;
          return skip[cell.fault * directions + cell.direction].load(
              std::memory_order_relaxed);
        };
  }
  orchestrator::Runner runner(runner_config);

  for (std::uint32_t round = 0; round < spec_.max_rounds; ++round) {
    const std::vector<RunRequest> requests = strategy.next_round(round);
    if (requests.empty()) {
      if (round < replay.size() && !replay[round].empty()) {
        throw ReplayMismatch(
            "adaptive resume: checkpoint has records for round " +
            std::to_string(round) +
            " but the strategy converged before it — spec drift");
      }
      outcome.converged = true;
      break;
    }
    const auto runs =
        expand_round(requests, round, emitted, strategy.name());

    const bool replayed = round < replay.size();
    std::vector<orchestrator::RunRecord> executed;
    if (replayed) {
      // Restored round: the recorded runs must be exactly what the
      // strategy re-derives; they are fed back without executing.
      const auto& recorded = replay[round];
      if (recorded.size() != requests.size()) {
        throw ReplayMismatch(
            "adaptive resume: round " + std::to_string(round) + " replays " +
            std::to_string(recorded.size()) + " records but the strategy " +
            "requests " + std::to_string(requests.size()) + " — spec drift");
      }
      for (std::size_t i = 0; i < recorded.size(); ++i) {
        if (recorded[i].name != runs[i].campaign.name) {
          throw ReplayMismatch("adaptive resume: round " +
                               std::to_string(round) + " record " +
                               std::to_string(i) + " is '" +
                               recorded[i].name + "' but the strategy " +
                               "re-derives '" + runs[i].campaign.name +
                               "' — spec drift");
        }
      }
    } else {
      // Arm the streaming callbacks for this round (no workers are running
      // between barriers, so plain writes are safe). first_index must
      // match the indices expand_round stamped, including index_base.
      stream.requests = &requests;
      stream.first_index = spec_.index_base + emitted;
      for (auto& flag : skip) flag.store(false, std::memory_order_relaxed);
      // Batch barrier: run_batch returns only when the whole round
      // finished. Records come back positional (= request order), so
      // emission below is deterministic no matter how workers interleaved.
      executed = runner.run_batch(runs);
      stream.requests = nullptr;  // `requests` dies with this iteration
    }
    const auto& records = replayed ? replay[round] : executed;

    std::vector<Observation> observations;
    observations.reserve(records.size());
    RoundSummary summary;
    summary.round = round;
    summary.runs = records.size();
    for (std::size_t i = 0; i < records.size(); ++i) {
      observations.push_back(observation(requests[i], round, records[i]));
      if (!observations.back().ok) ++summary.failed;
      if (!replayed && config_.on_record) config_.on_record(records[i]);
    }
    strategy.observe(observations);
    emitted += records.size();
    if (replayed) {
      outcome.replayed += records.size();
    } else {
      for (auto& r : executed) outcome.records.push_back(std::move(r));
    }
    outcome.rounds = round + 1;
    summary.total_runs = emitted;
    if (config_.on_round) config_.on_round(summary);
  }
  return outcome;
}

}  // namespace hsfi::adaptive

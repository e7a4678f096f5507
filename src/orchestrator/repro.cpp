#include "orchestrator/repro.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/manifestation.hpp"
#include "nftape/fabric.hpp"
#include "orchestrator/campaign_file.hpp"
#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"
#include "orchestrator/runner.hpp"
#include "scenario/minimizer.hpp"

namespace hsfi::orchestrator {

namespace {

constexpr std::string_view kMagic = "hsfi-repro-v1";

[[noreturn]] void bail(const std::string& what) {
  throw CampaignFileError(what);
}

/// Fixed-point formatting, like JsonObject::add_fixed: deterministic bytes
/// so emit -> parse -> emit is the identity on the file.
std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

/// Executes one expanded run through the production Runner (one worker,
/// cold fabric) — the byte-determinism reference an emitted trace stores
/// and a replay is compared against.
RunRecord reference_run(const RunSpec& run) {
  RunnerConfig rc;
  rc.workers = 1;
  return Runner(rc).run_all({run}).front();
}

}  // namespace

std::string dominant_class(const nftape::CampaignResult& result) {
  std::uint64_t best = 0;
  analysis::Manifestation which = analysis::Manifestation::kMasked;
  for (const auto m : analysis::all_manifestations()) {
    if (m == analysis::Manifestation::kMasked) continue;
    const auto count = result.manifestations[m];
    if (count > best) {
      best = count;
      which = m;
    }
  }
  if (best == 0) return "";
  return std::string(analysis::to_string(which));
}

std::string to_json(const ReproTrace& trace) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"magic\": \"" << kMagic << "\",\n";
  out << "  \"name\": \"" << json_escape(trace.name) << "\",\n";
  out << "  \"medium\": \"" << nftape::to_string(trace.medium) << "\",\n";
  out << "  \"seed\": " << trace.seed << ",\n";
  out << "  \"fault\": \"" << json_escape(trace.fault) << "\",\n";
  out << "  \"direction\": \"" << to_string(trace.direction) << "\",\n";
  out << "  \"warmup_ms\": " << fixed(sim::to_milliseconds(trace.warmup), 6)
      << ",\n";
  out << "  \"duration_ms\": "
      << fixed(sim::to_milliseconds(trace.duration), 6) << ",\n";
  out << "  \"drain_ms\": " << fixed(sim::to_milliseconds(trace.drain), 6)
      << ",\n";
  out << "  \"udp_interval_us\": "
      << fixed(sim::to_microseconds(trace.udp_interval), 3) << ",\n";
  out << "  \"payload_size\": " << trace.payload_size << ",\n";
  out << "  \"burst_size\": " << trace.burst_size << ",\n";
  out << "  \"jitter\": " << fixed(trace.jitter, 6) << ",\n";
  out << "  \"scenario\": {\"name\": \"" << json_escape(trace.scenario.name)
      << "\", \"steps\": [";
  for (std::size_t i = 0; i < trace.scenario.steps.size(); ++i) {
    const auto& s = trace.scenario.steps[i];
    if (i != 0) out << ", ";
    out << "\n    {\"kind\": \"" << scenario::to_string(s.kind)
        << "\", \"at_ms\": " << fixed(sim::to_milliseconds(s.at), 6)
        << ", \"node\": " << s.node << ", \"count\": " << s.count << "}";
  }
  out << "\n  ]},\n";
  out << "  \"expect\": \"" << json_escape(trace.expect) << "\",\n";
  out << "  \"jsonl\": \"" << json_escape(trace.jsonl) << "\"\n";
  out << "}\n";
  return out.str();
}

ReproTrace parse_repro_trace(std::string_view text) try {
  std::string error;
  const auto doc = parse_json(text, &error);
  if (!doc) bail(error);
  if (doc->kind != JsonValue::Kind::kObject) bail("document must be an object");

  ReproTrace trace;
  bool have_magic = false, have_scenario = false;
  for (const auto& [key, value] : doc->fields) {
    if (key == "magic") {
      const auto magic = field_str(value, "magic");
      if (magic != kMagic) {
        bail("unsupported magic '" + magic + "' (want " + std::string(kMagic) +
             ")");
      }
      have_magic = true;
    } else if (key == "name") {
      trace.name = field_str(value, "name");
    } else if (key == "medium") {
      const auto m = nftape::parse_medium(field_str(value, "medium"));
      if (!m) bail("medium: unknown medium");
      trace.medium = *m;
    } else if (key == "seed") {
      trace.seed = field_u64(value, "seed");
    } else if (key == "fault") {
      trace.fault = field_str(value, "fault");
    } else if (key == "direction") {
      const auto d = field_str(value, "direction");
      const auto parsed = parse_direction(d);
      if (!parsed) bail("direction: unknown direction '" + d + "'");
      trace.direction = *parsed;
    } else if (key == "warmup_ms") {
      trace.warmup = field_ms(value, "warmup_ms");
    } else if (key == "duration_ms") {
      trace.duration = field_ms(value, "duration_ms");
    } else if (key == "drain_ms") {
      trace.drain = field_ms(value, "drain_ms");
    } else if (key == "udp_interval_us") {
      trace.udp_interval = field_us(value, "udp_interval_us");
    } else if (key == "payload_size") {
      trace.payload_size =
          static_cast<std::size_t>(field_u64(value, "payload_size"));
    } else if (key == "burst_size") {
      trace.burst_size =
          static_cast<std::size_t>(field_u64(value, "burst_size"));
    } else if (key == "jitter") {
      trace.jitter = field_num(value, "jitter");
    } else if (key == "scenario") {
      trace.scenario = parse_scenario(value, "scenario");
      have_scenario = true;
    } else if (key == "expect") {
      trace.expect = field_str(value, "expect");
    } else if (key == "jsonl") {
      trace.jsonl = field_str(value, "jsonl");
    } else {
      bail("unknown key '" + key + "'");
    }
  }
  if (!have_magic) bail("\"magic\" is required");
  if (trace.name.empty()) bail("\"name\" is required");
  if (!have_scenario) bail("\"scenario\" is required");
  if (trace.jsonl.empty()) bail("\"jsonl\" is required");
  return trace;
} catch (const CampaignFileError& e) {
  throw CampaignFileError(std::string("repro trace: ") + e.what());
}

ReproTrace load_repro_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CampaignFileError("repro trace: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_repro_trace(text.str());
}

int emit_repro(SweepSpec sweep, bool fault_filtered, const std::string& path,
               bool dry_run) {
  // One-run grid: the first selected fault (fault-free baseline when
  // --faults was not given — the scenario alone must manifest), one
  // direction, one replicate.
  if (fault_filtered) {
    sweep.faults.resize(1);
  } else {
    sweep.faults.clear();  // the empty axis is the baseline point
  }
  sweep.directions = {FaultDirection::kBoth};
  sweep.intensities.clear();
  sweep.replicates = 1;
  const RunSpec run = expand(sweep).front();
  if (dry_run) {
    std::printf("dry run: 1 reference run, then ddmin over %zu steps\n",
                run.campaign.scenario->steps.size());
    std::printf("%zu %s seed=%llu\n", run.index, run.campaign.name.c_str(),
                (unsigned long long)run.seed);
    return 0;
  }

  const auto reference = reference_run(run);
  if (reference.outcome != RunOutcome::kOk) {
    std::fprintf(stderr, "reference run failed (%s): %s\n",
                 std::string(to_string(reference.outcome)).c_str(),
                 reference.error.c_str());
    return 1;
  }
  const std::string expect = dominant_class(reference.result);
  if (expect.empty()) {
    std::fprintf(stderr,
                 "scenario '%s' did not manifest under %s — nothing to "
                 "minimize\n",
                 run.campaign.scenario->name.c_str(),
                 run.campaign.name.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s manifests as %s; minimizing %zu steps\n",
               run.campaign.name.c_str(), expect.c_str(),
               run.campaign.scenario->steps.size());

  // ddmin probes fork from one settled snapshot: boot + mapping are paid
  // once, every candidate subset costs one measurement window.
  const auto fabric = nftape::make_fabric(run.campaign.medium, run.testbed);
  fabric->start();
  fabric->settle(run.startup_settle);
  const auto snap = fabric->capture_snapshot();
  nftape::CampaignRunner probes(*fabric);
  const scenario::Minimizer::Execute execute =
      [&](const scenario::ScenarioSpec& candidate) {
        fabric->restore_snapshot(*snap);
        nftape::CampaignSpec spec = run.campaign;
        spec.scenario = candidate;
        return dominant_class(probes.run(spec));
      };
  const auto minimized =
      scenario::Minimizer().minimize(*run.campaign.scenario, expect, execute);
  if (!minimized.reproduced) {
    std::fprintf(stderr,
                 "forked re-execution did not reproduce %s; the full "
                 "%zu-step sequence is reported irreducible\n",
                 expect.c_str(), minimized.minimal.steps.size());
    return 1;
  }
  std::fprintf(stderr,
               "minimized %zu -> %zu steps in %zu runs (naive one-at-a-time "
               "removal needs >= %zu)\n",
               run.campaign.scenario->steps.size(),
               minimized.minimal.steps.size(), minimized.runs,
               run.campaign.scenario->steps.size() + 1);

  // Verification: the minimal sequence back through the production Runner
  // on a cold fabric — its record is what the trace stores and what a
  // replay must reproduce byte-for-byte.
  sweep.base.scenario = minimized.minimal;
  const auto verify = reference_run(expand(sweep).front());
  const std::string got = verify.outcome == RunOutcome::kOk
                              ? dominant_class(verify.result)
                              : std::string();
  if (got != expect) {
    std::fprintf(stderr,
                 "verification run classed '%s', expected '%s' — trace not "
                 "written\n",
                 got.c_str(), expect.c_str());
    return 1;
  }

  ReproTrace trace;
  trace.name = verify.name;
  trace.medium = sweep.base.medium;
  trace.seed = sweep.base_seed;
  trace.fault = sweep.faults.empty() ? "" : sweep.faults.front().name;
  trace.direction = FaultDirection::kBoth;
  trace.warmup = sweep.base.warmup;
  trace.duration = sweep.base.duration;
  trace.drain = sweep.base.drain;
  trace.udp_interval = sweep.base.workload.udp_interval;
  trace.payload_size = sweep.base.workload.payload_size;
  trace.burst_size = sweep.base.workload.burst_size;
  trace.jitter = sweep.base.workload.jitter;
  trace.scenario = minimized.minimal;
  trace.expect = expect;
  trace.jsonl = to_jsonl(verify, false);

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  out << to_json(trace);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (%zu-step reproducer for %s)\n", path.c_str(),
               minimized.minimal.steps.size(), expect.c_str());
  return 0;
}

int replay_repro(const std::string& path) {
  ReproTrace trace;
  SweepSpec sweep;
  try {
    trace = load_repro_trace(path);
    // The run is rebuilt from the flags' defaults; the trace then sets
    // every field it carries.
    GridFlags flags;
    flags.medium = trace.medium;
    flags.seed = trace.seed;
    flags.replicates = 1;
    flags.duration = trace.duration;
    if (!trace.fault.empty()) flags.faults = {trace.fault};
    sweep = lower_grid_flags(flags).targets.front();
  } catch (const CampaignFileError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (trace.fault.empty()) sweep.faults.clear();  // the baseline point
  sweep.directions = {trace.direction};
  sweep.base.warmup = trace.warmup;
  sweep.base.drain = trace.drain;
  sweep.base.workload.udp_interval = trace.udp_interval;
  sweep.base.workload.payload_size = trace.payload_size;
  sweep.base.workload.burst_size = trace.burst_size;
  sweep.base.workload.jitter = trace.jitter;
  sweep.base.scenario = trace.scenario;

  const auto record = reference_run(expand(sweep).front());
  const std::string line = to_jsonl(record, false);
  if (line == trace.jsonl) {
    std::printf("reproduced %s: %s, record byte-identical\n",
                trace.name.c_str(),
                trace.expect.empty() ? "(no class)" : trace.expect.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "replay of %s DIVERGED\n  stored:   %s\n  replayed: %s\n",
               trace.name.c_str(), trace.jsonl.c_str(), line.c_str());
  return 2;
}

}  // namespace hsfi::orchestrator

#include "orchestrator/campaign_file.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "fc/frame.hpp"
#include "myrinet/control.hpp"
#include "nftape/faults.hpp"
#include "orchestrator/json_value.hpp"
#include "sim/rng.hpp"

namespace hsfi::orchestrator {

namespace {

using myrinet::ControlSymbol;

/// Errors name the offending JSON path; the document's parse function
/// (parse_campaign_file, parse_repro_trace) prefixes the document.
[[noreturn]] void bail(const std::string& what) {
  throw CampaignFileError(what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Typed field extraction with context-carrying errors.

std::string field_str(const JsonValue& v, const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kString) bail(ctx + " must be a string");
  return v.text;
}

double field_num(const JsonValue& v, const std::string& ctx) {
  double out = 0;
  if (!v.as_double(out)) bail(ctx + " must be a number");
  return out;
}

std::uint64_t field_u64(const JsonValue& v, const std::string& ctx) {
  std::uint64_t out = 0;
  if (!v.as_u64(out)) bail(ctx + " must be a non-negative integer");
  return out;
}

sim::Duration field_ms(const JsonValue& v, const std::string& ctx) {
  const double ms = field_num(v, ctx);
  if (ms < 0) bail(ctx + " must be non-negative");
  if (!(ms <= kMaxDurationMs)) bail(ctx + " must be at most 1e6 ms");
  return sim::nanoseconds(std::llround(ms * 1e6));
}

sim::Duration field_us(const JsonValue& v, const std::string& ctx) {
  const double us = field_num(v, ctx);
  if (us <= 0) bail(ctx + " must be positive");
  if (!(us <= kMaxDurationMs * 1e3)) bail(ctx + " must be at most 1e9 us");
  const auto ns = std::llround(us * 1e3);
  if (ns == 0) bail(ctx + " must be at least 0.0005 us (it rounds to 0 ns)");
  return sim::nanoseconds(ns);
}

namespace {

bool field_bool(const JsonValue& v, const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kBool) bail(ctx + " must be a boolean");
  return v.boolean;
}

// ---------------------------------------------------------------------------
// Target settings: the overlay applied defaults-then-target.

struct GridPoint {
  std::string name;
  std::optional<sim::Duration> udp_interval;
  std::optional<std::size_t> burst_size;
  std::optional<std::size_t> payload_size;
};

struct TargetSettings {
  std::optional<std::string> name;
  std::optional<nftape::Medium> medium;
  std::optional<std::vector<std::string>> faults;
  std::optional<std::vector<FaultDirection>> directions;
  std::optional<std::size_t> replicates;
  std::optional<sim::Duration> duration, warmup, drain;
  std::optional<sim::Duration> startup_settle, map_period;
  std::optional<sim::Duration> udp_interval;
  std::optional<std::size_t> burst_size, payload_size;
  std::optional<double> jitter;
  std::optional<bool> program_via_serial;
  std::optional<std::vector<GridPoint>> grid;
  std::optional<scenario::ScenarioSpec> scenario;

  /// Overlay: fields set in `over` replace this one's.
  void apply(const TargetSettings& over) {
    const auto take = [](auto& dst, const auto& src) {
      if (src.has_value()) dst = src;
    };
    take(name, over.name);
    take(medium, over.medium);
    take(faults, over.faults);
    take(directions, over.directions);
    take(replicates, over.replicates);
    take(duration, over.duration);
    take(warmup, over.warmup);
    take(drain, over.drain);
    take(startup_settle, over.startup_settle);
    take(map_period, over.map_period);
    take(udp_interval, over.udp_interval);
    take(burst_size, over.burst_size);
    take(payload_size, over.payload_size);
    take(jitter, over.jitter);
    take(program_via_serial, over.program_via_serial);
    take(grid, over.grid);
    take(scenario, over.scenario);
  }
};

GridPoint parse_grid_point(const JsonValue& v, const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kObject) bail(ctx + " must be an object");
  GridPoint p;
  for (const auto& [key, value] : v.fields) {
    const std::string fctx = ctx + "." + key;
    if (key == "name") {
      p.name = field_str(value, fctx);
    } else if (key == "udp_interval_us") {
      p.udp_interval = field_us(value, fctx);
    } else if (key == "burst_size") {
      p.burst_size = static_cast<std::size_t>(field_u64(value, fctx));
    } else if (key == "payload_size") {
      p.payload_size = static_cast<std::size_t>(field_u64(value, fctx));
    } else {
      bail("unknown key '" + fctx + "'");
    }
  }
  if (p.name.empty()) bail(ctx + " needs a non-empty \"name\"");
  return p;
}

TargetSettings parse_target_settings(const JsonValue& v,
                                     const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kObject) bail(ctx + " must be an object");
  TargetSettings s;
  for (const auto& [key, value] : v.fields) {
    const std::string fctx = ctx + "." + key;
    if (key == "name") {
      s.name = field_str(value, fctx);
    } else if (key == "medium") {
      const std::string m = field_str(value, fctx);
      const auto parsed = nftape::parse_medium(m);
      if (!parsed) bail(fctx + ": unknown medium '" + m + "'");
      s.medium = *parsed;
    } else if (key == "faults") {
      if (value.kind != JsonValue::Kind::kArray) {
        bail(fctx + " must be an array of fault names");
      }
      std::vector<std::string> names;
      for (const auto& item : value.items) {
        names.push_back(field_str(item, fctx + "[]"));
      }
      if (names.empty()) bail(fctx + " must not be empty");
      s.faults = std::move(names);
    } else if (key == "directions") {
      if (value.kind != JsonValue::Kind::kArray) {
        bail(fctx + " must be an array of directions");
      }
      std::vector<FaultDirection> dirs;
      for (const auto& item : value.items) {
        const std::string d = field_str(item, fctx + "[]");
        const auto parsed = parse_direction(d);
        if (!parsed) {
          bail(fctx + ": unknown direction '" + d +
               "' (want to-switch, from-switch, or both)");
        }
        dirs.push_back(*parsed);
      }
      if (dirs.empty()) bail(fctx + " must not be empty");
      s.directions = std::move(dirs);
    } else if (key == "replicates") {
      const auto n = field_u64(value, fctx);
      if (n == 0) bail(fctx + " must be positive");
      s.replicates = static_cast<std::size_t>(n);
    } else if (key == "duration_ms") {
      s.duration = field_ms(value, fctx);
    } else if (key == "warmup_ms") {
      s.warmup = field_ms(value, fctx);
    } else if (key == "drain_ms") {
      s.drain = field_ms(value, fctx);
    } else if (key == "startup_settle_ms") {
      s.startup_settle = field_ms(value, fctx);
    } else if (key == "map_period_ms") {
      // The mapper reschedules itself one period ahead: 0 would spin at
      // one simulated instant forever.
      s.map_period = field_ms(value, fctx);
      if (*s.map_period == 0) bail(fctx + " must be positive");
    } else if (key == "udp_interval_us") {
      s.udp_interval = field_us(value, fctx);
    } else if (key == "burst_size") {
      const auto n = field_u64(value, fctx);
      if (n == 0) bail(fctx + " must be positive");
      s.burst_size = static_cast<std::size_t>(n);
    } else if (key == "payload_size") {
      const auto n = field_u64(value, fctx);
      if (n == 0) bail(fctx + " must be positive");
      s.payload_size = static_cast<std::size_t>(n);
    } else if (key == "jitter") {
      const double j = field_num(value, fctx);
      if (j < 0 || j > 1) bail(fctx + " must be in [0, 1]");
      s.jitter = j;
    } else if (key == "program_via_serial") {
      s.program_via_serial = field_bool(value, fctx);
    } else if (key == "grid") {
      if (value.kind != JsonValue::Kind::kArray) {
        bail(fctx + " must be an array of intensity points");
      }
      std::vector<GridPoint> grid;
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        grid.push_back(parse_grid_point(
            value.items[i], fctx + "[" + std::to_string(i) + "]"));
      }
      if (grid.empty()) bail(fctx + " must not be empty");
      s.grid = std::move(grid);
    } else if (key == "scenario") {
      s.scenario = parse_scenario(value, fctx);
    } else {
      bail("unknown key '" + fctx + "'");
    }
  }
  return s;
}

StrategySpec parse_strategy(const JsonValue& v, const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kObject) bail(ctx + " must be an object");
  StrategySpec s;
  for (const auto& [key, value] : v.fields) {
    const std::string fctx = ctx + "." + key;
    if (key == "name") {
      s.name = field_str(value, fctx);
    } else if (key == "knob") {
      const std::string k = field_str(value, fctx);
      const auto parsed = nftape::parse_knob(k);
      if (!parsed) bail(fctx + ": unknown knob '" + k + "'");
      s.knob = *parsed;
    } else if (key == "axis_lo" || key == "axis_hi") {
      const double x = field_num(value, fctx);
      if (!std::isfinite(x)) bail(fctx + " must be finite");
      (key == "axis_lo" ? s.axis_lo : s.axis_hi) = x;
    } else if (key == "tolerance_us") {
      s.tolerance_us = field_num(value, fctx);
      if (s.tolerance_us <= 0) bail(fctx + " must be positive");
    } else if (key == "max_rounds") {
      const auto n = field_u64(value, fctx);
      if (n > UINT32_MAX) bail(fctx + " must be at most 4294967295");
      s.max_rounds = static_cast<std::uint32_t>(n);
    } else if (key == "target_count") {
      s.target_count = field_u64(value, fctx);
    } else {
      bail("unknown key '" + fctx + "'");
    }
  }
  if (s.name != "bisect" && s.name != "coverage") {
    bail(ctx + ".name must be bisect or coverage, got '" + s.name + "'");
  }
  // The axis stays inside what apply_knob runs unclamped, so every run is
  // named for the value it runs at.
  for (const auto& [key, x] : {std::pair{"axis_lo", s.axis_lo},
                               std::pair{"axis_hi", s.axis_hi}}) {
    const std::string where = ctx + "." + key;
    switch (s.knob) {
      case nftape::Knob::kUdpIntervalUs:
        if (x < 0.001 || x > kMaxDurationMs * 1e3) {
          bail(where + " must be in [0.001, 1e9] us on the udp-us knob");
        }
        break;
      case nftape::Knob::kSeuLfsrBits:
        if (x < 0 || x > 16) {
          bail(where + " must be in [0, 16] on the seu-bits knob");
        }
        break;
      case nftape::Knob::kBurstSize:
        if (x < 1) bail(where + " must be at least 1 on the burst knob");
        break;
    }
  }
  return s;
}

/// Resolves the overlaid settings into a runnable SweepSpec. These
/// defaults are also the run_sweep flags' (lower_grid_flags resolves
/// through here), so a minimal spec file runs exactly the flag-driven
/// grid.
SweepSpec resolve_target(const TargetSettings& s, std::uint64_t base_seed) {
  SweepSpec sweep;
  const nftape::Medium medium = s.medium.value_or(nftape::Medium::kMyrinet);
  sweep.name = s.name.value_or("");
  // A lowered flag campaign's target has no name to put in its errors.
  const std::string where =
      sweep.name.empty() ? "" : "target '" + sweep.name + "': ";

  sweep.base.medium = medium;
  sweep.base_seed = base_seed;
  sweep.replicates = s.replicates.value_or(2);
  sweep.directions = s.directions.value_or(std::vector<FaultDirection>{
      FaultDirection::kFromSwitch, FaultDirection::kBoth});
  sweep.startup_settle = s.startup_settle.value_or(0);

  sweep.testbed.map_period = s.map_period.value_or(sim::milliseconds(100));
  sweep.testbed.nic_config.rx_processing_time = sim::microseconds(1);
  sweep.testbed.send_stack_time = sim::microseconds(1);
  sweep.testbed.fc.rx_processing_time = sim::microseconds(1);

  sweep.base.warmup = s.warmup.value_or(sim::milliseconds(10));
  sweep.base.duration = s.duration.value_or(sim::milliseconds(60));
  sweep.base.drain = s.drain.value_or(sim::milliseconds(10));
  sweep.base.program_via_serial = s.program_via_serial.value_or(true);
  sweep.base.workload.udp_interval =
      s.udp_interval.value_or(sim::microseconds(12));
  sweep.base.workload.burst_size = s.burst_size.value_or(4);
  sweep.base.workload.payload_size = s.payload_size.value_or(256);
  sweep.base.workload.jitter = s.jitter.value_or(0.5);

  if (s.scenario.has_value()) {
    const auto scenario_medium = medium == nftape::Medium::kFc
                                     ? scenario::Medium::kFc
                                     : scenario::Medium::kMyrinet;
    if (!scenario::compatible(*s.scenario, scenario_medium)) {
      bail(where + "scenario '" + s.scenario->name +
           "' drives another medium's protocol objects; it cannot arm on " +
           std::string(nftape::to_string(medium)));
    }
    sweep.base.scenario = *s.scenario;
  }

  auto axis = standard_fault_axis(medium);
  if (s.faults.has_value()) {
    for (const auto& want : *s.faults) {
      bool found = false;
      for (auto& f : axis) {
        if (f.name == want) {
          sweep.faults.push_back(f);
          found = true;
          break;
        }
      }
      if (!found) {
        bail(where + "unknown fault '" + want + "' for medium " +
             std::string(nftape::to_string(medium)) + " (see --list)");
      }
    }
  } else {
    sweep.faults = std::move(axis);
  }

  if (s.grid.has_value()) {
    for (const auto& g : *s.grid) {
      IntensityPoint point;
      point.name = g.name;
      point.udp_interval =
          g.udp_interval.value_or(sweep.base.workload.udp_interval);
      point.burst_size = g.burst_size.value_or(sweep.base.workload.burst_size);
      point.payload_size =
          g.payload_size.value_or(sweep.base.workload.payload_size);
      sweep.intensities.push_back(std::move(point));
    }
  }
  return sweep;
}

}  // namespace

std::vector<FaultPoint> standard_fault_axis(nftape::Medium medium) {
  if (medium == nftape::Medium::kFc) {
    return {
        {"seu-00FF", nftape::random_bit_flip_seu(0x00FF),
         "random single-bit flips on the stream (LFSR-thinned, mask 00FF)"},
        {"fill-flip", nftape::fc_fill_corruption(0x5A, 0x003F),
         "bit flips anchored on payload fill bytes; CRC-32 must catch each"},
        {"comma-strike", nftape::fc_comma_strike(0x00FF),
         "corrupt K28.5 commas, breaking ordered-set alignment"},
        {"sofi3-blank",
         nftape::fc_ordered_set_corruption(fc::OrderedSet::kSofI3, 0x000F),
         "mangle SOFi3 delimiters so sequence-opening frames never start"},
        {"eoft-blank",
         nftape::fc_ordered_set_corruption(fc::OrderedSet::kEofT, 0x000F),
         "mangle EOFt delimiters so sequences never terminate cleanly"},
        {"rrdy-drop",
         nftape::fc_ordered_set_corruption(fc::OrderedSet::kRRdy, 0x000F),
         "corrupt R_RDY ordered sets, silently destroying BB credits"},
        {"domain-ee", nftape::fc_domain_corruption(0xEE, 0x0003),
         "rewrite the destination domain byte to EE (misrouting)"},
    };
  }
  const auto sym = [](ControlSymbol a, ControlSymbol b) {
    return nftape::control_symbol_corruption(a, b);
  };
  return {
      {"stop-idle", sym(ControlSymbol::kStop, ControlSymbol::kIdle),
       "STOP becomes IDLE: backpressure lost, slack buffers overrun"},
      {"stop-gap", sym(ControlSymbol::kStop, ControlSymbol::kGap),
       "STOP becomes GAP: backpressure lost inside packet gaps"},
      {"stop-go", sym(ControlSymbol::kStop, ControlSymbol::kGo),
       "STOP becomes GO: the halt order inverted into full speed"},
      {"gap-go", sym(ControlSymbol::kGap, ControlSymbol::kGo),
       "GAP becomes GO: packet boundaries dissolve into flow control"},
      {"gap-idle", sym(ControlSymbol::kGap, ControlSymbol::kIdle),
       "GAP becomes IDLE: tail-CRC boundaries vanish"},
      {"go-stop", sym(ControlSymbol::kGo, ControlSymbol::kStop),
       "GO becomes STOP: false backpressure wedges the sender"},
      {"marker-msb", nftape::marker_msb_corruption(),
       "set the destination marker MSB: consumed and handled as an error"},
      {"seu-00FF", nftape::random_bit_flip_seu(0x00FF),
       "random single-bit flips on the stream (LFSR-thinned, mask 00FF)"},
  };
}

std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

scenario::ScenarioSpec parse_scenario(const JsonValue& v,
                                      const std::string& ctx) {
  if (v.kind != JsonValue::Kind::kObject) bail(ctx + " must be an object");
  scenario::ScenarioSpec spec;
  const JsonValue* steps = nullptr;
  std::string steps_ctx;
  for (const auto& [key, value] : v.fields) {
    const std::string fctx = ctx + "." + key;
    if (key == "name") {
      spec.name = field_str(value, fctx);
    } else if (key == "steps") {
      if (value.kind != JsonValue::Kind::kArray) {
        bail(fctx + " must be an array of step objects");
      }
      steps = &value;
      steps_ctx = fctx;
    } else {
      bail("unknown key '" + fctx + "'");
    }
  }
  if (spec.name.empty()) bail(ctx + " needs a non-empty \"name\"");
  if (steps == nullptr) {
    const auto found = scenario::find_scenario(spec.name);
    if (!found) {
      bail(ctx + ": unknown scenario '" + spec.name +
           "' (run_sweep --list-scenarios prints the registry; or define "
           "\"steps\" inline)");
    }
    return *found;
  }
  if (steps->items.empty()) bail(steps_ctx + " must not be empty");
  for (std::size_t i = 0; i < steps->items.size(); ++i) {
    const auto& sv = steps->items[i];
    const std::string sctx = steps_ctx + "[" + std::to_string(i) + "]";
    if (sv.kind != JsonValue::Kind::kObject) bail(sctx + " must be an object");
    scenario::Step step;
    bool have_kind = false;
    bool have_at = false;
    for (const auto& [key, value] : sv.fields) {
      const std::string fctx = sctx + "." + key;
      if (key == "kind") {
        const std::string k = field_str(value, fctx);
        const auto parsed = scenario::parse_step_kind(k);
        if (!parsed) bail(fctx + ": unknown step kind '" + k + "'");
        step.kind = *parsed;
        have_kind = true;
      } else if (key == "at_ms") {
        step.at = field_ms(value, fctx);
        // Steps are window-relative; at 0 the firing would land exactly on
        // window_begin, which finalize's (begin, end] window excludes.
        if (step.at <= 0) bail(fctx + " must be positive");
        have_at = true;
      } else if (key == "node") {
        step.node = static_cast<std::uint32_t>(field_u64(value, fctx));
      } else if (key == "count") {
        const auto n = field_u64(value, fctx);
        if (n == 0) bail(fctx + " must be positive");
        step.count = n;
      } else {
        bail("unknown key '" + fctx + "'");
      }
    }
    if (!have_kind) bail(sctx + " needs a \"kind\"");
    if (!have_at) bail(sctx + " needs a positive \"at_ms\"");
    spec.steps.push_back(step);
  }
  return spec;
}

CampaignFile parse_campaign_file(std::string_view text) try {
  std::string error;
  const auto doc = parse_json(text, &error);
  if (!doc) bail(error);
  if (doc->kind != JsonValue::Kind::kObject) {
    bail("document must be an object");
  }

  CampaignFile file;
  file.digest = fnv1a64(text);
  TargetSettings defaults;
  const JsonValue* targets = nullptr;
  for (const auto& [key, value] : doc->fields) {
    if (key == "name") {
      file.name = field_str(value, "name");
    } else if (key == "seed") {
      file.base_seed = field_u64(value, "seed");
    } else if (key == "checkpoint_batch") {
      const auto n = field_u64(value, "checkpoint_batch");
      if (n == 0) bail("checkpoint_batch must be positive");
      file.checkpoint_batch = static_cast<std::size_t>(n);
    } else if (key == "defaults") {
      defaults = parse_target_settings(value, "defaults");
      if (defaults.name.has_value() || defaults.grid.has_value()) {
        bail("defaults cannot set name or grid (per-target only)");
      }
    } else if (key == "targets") {
      targets = &value;
    } else if (key == "strategy") {
      file.strategy = parse_strategy(value, "strategy");
    } else {
      bail("unknown key '" + key + "' at top level");
    }
  }
  if (file.name.empty()) bail("\"name\" is required");
  if (targets == nullptr || targets->kind != JsonValue::Kind::kArray ||
      targets->items.empty()) {
    bail("\"targets\" must be a non-empty array");
  }
  for (std::size_t i = 0; i < targets->items.size(); ++i) {
    TargetSettings merged = defaults;
    merged.apply(parse_target_settings(targets->items[i],
                                       "targets[" + std::to_string(i) + "]"));
    if (file.strategy.has_value() && merged.grid.has_value()) {
      bail("targets cannot carry a grid when a strategy steers the campaign");
    }
    const std::string name = merged.name.value_or(std::string(
        nftape::to_string(merged.medium.value_or(nftape::Medium::kMyrinet))));
    if (name.empty() || name.find_first_of("/:") != std::string::npos) {
      bail("target name '" + name + "' must be non-empty without '/' or ':'");
    }
    merged.name = name;
    // Disjoint per-target seed streams, independent of sharding.
    auto target = resolve_target(merged, sim::derive_seed(file.base_seed, i));
    for (const auto& existing : file.targets) {
      if (existing.name == target.name) {
        bail("duplicate target name '" + target.name + "'");
      }
    }
    file.targets.push_back(std::move(target));
  }
  return file;
} catch (const CampaignFileError& e) {
  throw CampaignFileError(std::string("campaign file: ") + e.what());
}

CampaignFile load_campaign_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CampaignFileError("campaign file: cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_campaign_file(text.str());
}

CampaignFile lower_grid_flags(const GridFlags& flags) {
  TargetSettings s;
  s.medium = flags.medium;
  if (flags.replicates) {
    s.replicates = std::max<std::size_t>(*flags.replicates, 1);
  }
  s.duration = flags.duration;
  if (!flags.faults.empty()) {
    // --faults filters the axis, so the grid keeps axis order. A name off
    // the axis ranks last and resolve_target refuses it.
    const auto axis = standard_fault_axis(flags.medium);
    const auto rank = [&](const std::string& name) {
      return std::find_if(axis.begin(), axis.end(),
                          [&](const FaultPoint& f) { return f.name == name; }) -
             axis.begin();
    };
    std::vector<std::string> names = flags.faults;
    std::stable_sort(names.begin(), names.end(),
                     [&](const auto& a, const auto& b) {
                       return rank(a) < rank(b);
                     });
    names.erase(std::unique(names.begin(), names.end()), names.end());
    s.faults = std::move(names);
  }
  if (!flags.scenario.empty()) {
    const auto found = scenario::find_scenario(flags.scenario);
    if (!found) {
      throw CampaignFileError("unknown scenario '" + flags.scenario +
                              "' (see --list-scenarios)");
    }
    s.scenario = *found;
  }

  CampaignFile file;
  file.name = flags.medium == nftape::Medium::kFc ? "fc symbol sweep"
                                                  : "control-plane sweep";
  file.base_seed = flags.seed;
  file.strategy = flags.strategy;
  file.targets.push_back(resolve_target(s, flags.seed));
  return file;
}

std::vector<RunSpec> expand_campaign(const CampaignFile& file) {
  std::vector<RunSpec> all;
  for (const auto& target : file.targets) {
    auto runs = expand(target);
    const std::size_t offset = all.size();
    for (auto& run : runs) {
      run.index += offset;
      if (!target.name.empty()) {
        run.campaign.name = target.name + ":" + run.campaign.name;
      }
      all.push_back(std::move(run));
    }
  }
  return all;
}

}  // namespace hsfi::orchestrator

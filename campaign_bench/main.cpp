// campaign_bench: one benchmark invocation's measurements. It runs the
// workload's campaign pass after pass until --seconds are spent (plain
// passes with --trace 0; one plain pass, then traced passes with
// --trace 1), each followed by kSetupRepeats set-up-only passes, and
// writes every pass's raw measurements (timings, records, JSONL, and for
// traced passes the spans) as one JSON document. run.py builds it, starts
// it once per invocation, checks the outputs and derives the metrics; see
// README.md.
//
//   campaign_bench --trace 0|1 --seconds S --out FILE [run_sweep flags]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "campaign.hpp"
#include "orchestrator/jsonl.hpp"

#ifndef HSFI_BENCH_BUILD_TYPE
#define HSFI_BENCH_BUILD_TYPE ""
#endif
#ifndef HSFI_BENCH_CXX_FLAGS
#define HSFI_BENCH_CXX_FLAGS ""
#endif

using namespace hsfi;

namespace {

/// Set-up-only passes after each timed pass. Each takes well under a
/// millisecond, so setup_s can be the median of many, spread over the whole
/// measured window rather than taken in one burst.
constexpr int kSetupRepeats = 20;

std::string quote(std::string_view s) {
  return "\"" + orchestrator::json_escape(s) + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(std::int64_t v) { return std::to_string(v); }

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string sanitizers() {
  std::string s;
#ifdef __SANITIZE_ADDRESS__
  s += "address ";
#endif
#ifdef __SANITIZE_THREAD__
  s += "thread ";
#endif
  return s;
}

std::string span_json(const bench::Span& s) {
  std::string o = "{\"id\":" + num(s.id) + ",\"parent\":" + num(s.parent) +
                  ",\"layer\":" + quote(s.layer) + ",\"name\":" +
                  quote(s.name) + ",\"run\":" + num(s.run) +
                  ",\"round\":" + num(std::uint64_t{s.round}) +
                  ",\"t0\":" + num(s.t0) + ",\"t1\":" + num(s.t1);
  if (*s.phase != '\0') o += ",\"phase\":" + quote(s.phase);
  if (s.cpu >= 0) o += ",\"cpu\":" + num(s.cpu);
  if (s.events != 0 || s.symbols != 0) {
    o += ",\"events\":" + num(s.events) + ",\"symbols\":" + num(s.symbols);
  }
  if (!s.counts.empty()) {
    o += ",\"counts\":{";
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      if (i != 0) o += ',';
      o += quote(s.counts[i].first) + ":" + num(s.counts[i].second);
    }
    o += '}';
  }
  return o + "}";
}

std::string pass_json(const bench::PassResult& p) {
  std::string o = "{\"traced\":" + std::string(p.traced ? "true" : "false") +
                  ",\"setup_s\":" + num(p.setup_s) + ",\"wall_s\":" +
                  num(p.wall_s) + ",\"sim_span_s\":" + num(p.sim_span_s) +
                  ",\"rounds\":" + num(std::uint64_t{p.rounds}) +
                  ",\"retries\":" + num(std::uint64_t{p.retries}) +
                  ",\"overhead_ns\":" + num(p.overhead_ns) + ",\"runs\":[";
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    const auto& r = p.records[i];
    if (i != 0) o += ',';
    o += "{\"index\":" + num(std::uint64_t{r.index}) + ",\"outcome\":" +
         quote(orchestrator::to_string(r.outcome)) + ",\"wall_ms\":" +
         num(r.wall_ms) + ",\"symbols\":" + num(r.result.symbols_sent) + "}";
  }
  o += "],\"jsonl\":" + quote(p.jsonl) + ",\"spans\":[";
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    if (i != 0) o += ',';
    o += span_json(p.spans[i]);
  }
  return o + "]}";
}

/// Peak resident set of this process image, from /proc/self/status. Not
/// getrusage: its ru_maxrss also counts the pre-exec image, i.e. whatever
/// process forked the benchmark.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --trace 0|1 --seconds S --out FILE "
               "[run_sweep flags: --medium --faults --replicates "
               "--duration-ms --snapshots --monitor --strategy --seed "
               "--workers]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::CampaignFlags flags;
  int trace = -1;
  double budget_s = 0.0;
  std::string out_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (bench::parse_campaign_flag(argc, argv, i, flags)) continue;
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      if (arg == "--trace") {
        trace = std::stoi(argv[++i]);
      } else if (arg == "--seconds") {
        budget_s = std::stod(argv[++i]);
      } else if (arg == "--out") {
        out_path = argv[++i];
      } else {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
    }
    if ((trace != 0 && trace != 1) || !(budget_s > 0.0) ||
        out_path.empty()) {
      throw std::invalid_argument(
          "--trace 0|1, --seconds S (> 0) and --out are required");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    usage();
    return 2;
  }

  // Each pass is written out as soon as it ends and then dropped, so the
  // process holds one campaign at a time and its peak RSS does not grow
  // with the number of passes.
  std::ofstream out(out_path);
  out << "{\"env\":{\"compiler\":" << quote(__VERSION__)
      << ",\"build_type\":" << quote(HSFI_BENCH_BUILD_TYPE)
      << ",\"cxx_flags\":" << quote(HSFI_BENCH_CXX_FLAGS)
      << ",\"optimized\":" << (optimized() ? "true" : "false")
      << ",\"sanitizers\":" << quote(sanitizers()) << "}"
      << ",\"workers\":" << flags.workers << ",\"passes\":[";
  try {
    // Back to back until the budget is spent: another pass starts while at
    // least half of one still fits, so an invocation overruns --seconds by
    // at most half a pass.
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed_s = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    const auto repeat =
        trace == 1 ? bench::PassMode::kTraced : bench::PassMode::kPlain;
    std::string setups;  // JSON numbers, comma-separated
    const auto set_up_only = [&] {
      for (int k = 0; k < kSetupRepeats; ++k) {
        if (!setups.empty()) setups += ',';
        setups +=
            num(bench::run_pass(flags, bench::PassMode::kSetupOnly).setup_s);
      }
    };
    out << pass_json(bench::run_pass(flags, bench::PassMode::kPlain));
    // The first campaign's peak: later passes start fresh worker threads,
    // and how their malloc arenas fragment varies from process to process.
    const std::uint64_t rss_kb = peak_rss_kb();
    set_up_only();
    double last_wall_s = 0.0;
    do {
      const bench::PassResult pass = bench::run_pass(flags, repeat);
      last_wall_s = pass.wall_s;
      out << ',' << pass_json(pass);
      set_up_only();
    } while (elapsed_s() + 0.5 * last_wall_s < budget_s);
    out << "],\"setup_only_s\":[" << setups << "],\"peak_rss_kb\":" << rss_kb
        << "}\n";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
  out.close();
  if (!out) {
    std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}

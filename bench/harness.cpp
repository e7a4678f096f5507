#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "orchestrator/jsonl.hpp"

namespace hsfi::bench {

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench [options]\n"
               "  --reps N      measured repetitions per scenario (default 5)\n"
               "  --warmup N    unmeasured warm-up repetitions (default 1)\n"
               "  --smoke       shrink workloads for the CI smoke lane\n"
               "  --out FILE    write JSON records (BENCH_sim_kernel.json schema)\n"
               "  --bench NAME  run only the named scenario\n");
}

/// Median of a sorted sample.
double median_of(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? sorted[n / 2]
                    : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
}

/// Interquartile range via the lower/upper-half-median (Tukey hinge)
/// convention — stable for the small rep counts benches use.
double iqr_of(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n < 2) return 0;
  const std::vector<double> lower(sorted.begin(),
                                  sorted.begin() + static_cast<long>(n / 2));
  const std::vector<double> upper(
      sorted.begin() + static_cast<long>((n + 1) / 2), sorted.end());
  return median_of(upper) - median_of(lower);
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n\n", arg.c_str());
        usage(stderr);
        std::exit(1);
      }
      return argv[++i];
    };
    const auto numeric = [&]() -> int {
      const char* v = value();
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n\n",
                     arg.c_str(), v);
        usage(stderr);
        std::exit(1);
      }
      return static_cast<int>(parsed);
    };
    if (arg == "--reps") {
      options.reps = numeric();
    } else if (arg == "--warmup") {
      options.warmup = numeric();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--bench") {
      options.only = value();
    } else if (arg == "--help") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n\n", arg.c_str());
      usage(stderr);
      std::exit(1);
    }
  }
  if (options.reps < 1) options.reps = 1;
  return options;
}

Harness::Harness(Options options) : options_(std::move(options)) {}

void Harness::measure(const std::string& name,
                      const std::function<std::uint64_t()>& body) {
  if (!options_.only.empty() && options_.only != name) return;
  std::fprintf(stderr, "%s: %d warm-up + %d reps...\n", name.c_str(),
               options_.warmup, options_.reps);
  std::vector<double> wall_s;
  std::vector<double> events_per_sec;
  std::uint64_t events = 0;
  try {
    for (int i = 0; i < options_.warmup; ++i) (void)body();
    for (int i = 0; i < options_.reps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const std::uint64_t rep_events = body();
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      if (i == 0) {
        events = rep_events;
      } else if (rep_events != events) {
        std::fprintf(stderr,
                     "%s: NONDETERMINISTIC: rep %d executed %llu events, "
                     "rep 0 executed %llu\n",
                     name.c_str(), i, (unsigned long long)rep_events,
                     (unsigned long long)events);
        failed_ = true;
      }
      wall_s.push_back(secs);
      events_per_sec.push_back(
          secs > 0 ? static_cast<double>(rep_events) / secs : 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: FAILED: %s\n", name.c_str(), e.what());
    failed_ = true;
    return;
  }
  std::sort(wall_s.begin(), wall_s.end());
  std::sort(events_per_sec.begin(), events_per_sec.end());

  Summary s;
  s.bench = name;
  s.reps = options_.reps;
  s.events = events;
  s.median_events_per_sec = median_of(events_per_sec);
  s.iqr_events_per_sec = iqr_of(events_per_sec);
  s.median_wall_s = median_of(wall_s);
  summaries_.push_back(s);
}

int Harness::finish() {
  std::printf("\n%-24s %10s %14s %12s %10s\n", "bench", "reps", "events/s med",
              "events/s IQR", "wall med");
  for (const auto& s : summaries_) {
    std::printf("%-24s %10d %14.0f %12.0f %9.3fs\n", s.bench.c_str(), s.reps,
                s.median_events_per_sec, s.iqr_events_per_sec,
                s.median_wall_s);
  }
  if (!options_.out_path.empty()) {
    std::vector<orchestrator::BenchRecord> records;
    for (const auto& s : summaries_) {
      records.push_back({s.bench, "events_per_sec_median",
                         s.median_events_per_sec, 1, "events/s"});
      records.push_back({s.bench, "events_per_sec_iqr", s.iqr_events_per_sec,
                         1, "events/s"});
      records.push_back({s.bench, "wall_s_median", s.median_wall_s, 6, "s"});
      records.push_back(
          {s.bench, "events", static_cast<double>(s.events), 0, "count"});
      records.push_back(
          {s.bench, "reps", static_cast<double>(s.reps), 0, "count"});
    }
    if (!orchestrator::write_bench_records(options_.out_path, records)) {
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", options_.out_path.c_str());
  }
  return failed_ ? 1 : 0;
}

}  // namespace hsfi::bench

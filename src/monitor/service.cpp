#include "monitor/service.hpp"

#include "analysis/manifestation.hpp"
#include "nftape/medium.hpp"

namespace hsfi::monitor {

MonitorService::MonitorService(MonitorConfig config)
    : config_(std::move(config)) {}

MonitorService::Entry& MonitorService::entry_locked(const std::string& group,
                                                    const std::string& cell) {
  const auto it = cells_.find(Key{group, cell});
  if (it != cells_.end()) return it->second;
  return cells_
      .emplace(Key{group, cell},
               Entry{analysis::CellStats{}, LatencyDrift{config_.drift}})
      .first->second;
}

void MonitorService::on_record(const orchestrator::RunRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry_locked(std::string(nftape::to_string(record.medium)),
                          orchestrator::cell_key(record.name));
  orchestrator::fold_run(e.cell, record);
  if (record.outcome == orchestrator::RunOutcome::kOk) {
    e.latency.add(record.result.manifestation_latency);
  }
  ++records_;
}

std::size_t MonitorService::ingest_jsonl(std::string_view chunk) {
  std::size_t accepted = 0;
  std::size_t start = 0;
  while (start <= chunk.size()) {
    std::size_t nl = chunk.find('\n', start);
    if (nl == std::string_view::npos) nl = chunk.size();
    const std::string_view line = chunk.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    if (const auto rec = orchestrator::parse_jsonl(line)) {
      on_record(*rec);
      ++accepted;
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      ++malformed_;
    }
  }
  return accepted;
}

std::uint64_t MonitorService::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t MonitorService::malformed_lines() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return malformed_;
}

analysis::CellStats MonitorService::cell(const std::string& cell_name,
                                         const std::string& group) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(Key{group, cell_name});
  return it == cells_.end() ? analysis::CellStats{} : it->second.cell;
}

std::vector<CellView> MonitorService::cells() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CellView> out;
  out.reserve(cells_.size());
  for (const auto& [key, entry] : cells_) {
    out.push_back({key.first, key.second, entry.cell});
  }
  return out;
}

std::vector<DriftFlag> MonitorService::drift_flags_locked() const {
  std::vector<DriftFlag> flags;
  // Rate divergence: every cell name present in two or more groups, each
  // pair compared once in key order. The map is (group, cell)-sorted, so
  // collect per cell name first.
  std::map<std::string, std::vector<const Key*>> by_cell;
  for (const auto& [key, entry] : cells_) {
    (void)entry;
    by_cell[key.second].push_back(&key);
  }
  for (const auto& [cell_name, keys] : by_cell) {
    for (std::size_t a = 0; a < keys.size(); ++a) {
      for (std::size_t b = a + 1; b < keys.size(); ++b) {
        const auto& sa = cells_.at(*keys[a]).cell;
        const auto& sb = cells_.at(*keys[b]).cell;
        const auto gap =
            rate_divergence(sa.manifested(), sa.injections, sb.manifested(),
                            sb.injections, config_.drift);
        if (!gap) continue;
        flags.push_back({DriftKind::kRateDivergence, cell_name,
                         keys[a]->first, keys[b]->first, *gap});
      }
    }
  }
  for (const auto& [key, entry] : cells_) {
    const auto tv = entry.latency.shift();
    if (!tv || *tv < config_.drift.latency_shift_threshold) continue;
    flags.push_back(
        {DriftKind::kLatencyShift, key.second, key.first, "", *tv});
  }
  return flags;
}

std::vector<DriftFlag> MonitorService::drift_flags() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return drift_flags_locked();
}

nftape::Report MonitorService::table(const std::string& title) const {
  const std::lock_guard<std::mutex> lock(mu_);
  nftape::Report report(title);
  report.set_header({"group", "cell", "runs", "injections",
                     "manifested (Wilson 95%)", "classes", "drift"});
  const auto flags = drift_flags_locked();
  for (const auto& [key, entry] : cells_) {
    const auto& s = entry.cell;
    std::string drift;
    for (const auto& f : flags) {
      if (f.cell != key.second) continue;
      if (f.kind == DriftKind::kRateDivergence &&
          (f.group_a == key.first || f.group_b == key.first)) {
        if (!drift.empty()) drift += ' ';
        drift += "rate!";
      } else if (f.kind == DriftKind::kLatencyShift &&
                 f.group_a == key.first) {
        if (!drift.empty()) drift += ' ';
        drift += "latency!";
      }
    }
    report.add_row(
        {key.first, key.second,
         nftape::cell("%llu", (unsigned long long)s.runs),
         nftape::cell("%llu", (unsigned long long)s.injections),
         nftape::rate_cell(s.manifested(), s.injections),
         analysis::describe(s.manifestations),
         drift.empty() ? std::string("-") : std::move(drift)});
  }
  for (const auto& f : flags) report.add_note(f.describe());
  if (malformed_ != 0) {
    report.add_note(
        nftape::cell("%llu malformed JSONL line(s) dropped by tail mode",
                     (unsigned long long)malformed_));
  }
  return report;
}

}  // namespace hsfi::monitor

#include "orchestrator/shard.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "orchestrator/json_value.hpp"
#include "orchestrator/jsonl.hpp"

namespace hsfi::orchestrator {

namespace {

[[noreturn]] void bail(const std::string& what) {
  throw ShardError("shard: " + what);
}

[[noreturn]] void bail_errno(const std::string& what) {
  bail(what + ": " + std::strerror(errno));
}

/// Closes `fd` after a call on it failed, and throws with that call's errno.
[[noreturn]] void close_and_bail(int fd, const std::string& what) {
  const int err = errno;
  ::close(fd);
  errno = err;
  bail_errno(what);
}

/// fsync the directory containing `path`, so a rename into it is durable.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) bail_errno("open dir " + dir);
  if (::fsync(fd) != 0) close_and_bail(fd, "fsync dir " + dir);
  ::close(fd);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

constexpr std::string_view kMagic = "hsfi-ckpt-v2";

/// Atomic replacement: write "<path>.tmp", fsync, rename over, fsync the
/// directory. Every sidecar goes through here.
void write_text_durable(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) bail_errno("open " + tmp);
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      close_and_bail(fd, "write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) close_and_bail(fd, "fsync " + tmp);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    bail_errno("rename " + tmp + " -> " + path);
  }
  sync_parent_dir(path);
}

}  // namespace

std::vector<RunSpec> shard_runs(const std::vector<RunSpec>& runs,
                                std::uint32_t k, std::uint32_t n) {
  if (n == 0) bail("shard count must be positive");
  if (k >= n && !(k == 0 && n == 1)) {
    bail("shard index " + std::to_string(k) + " out of range for " +
         std::to_string(n) + " shards");
  }
  std::vector<RunSpec> mine;
  for (const auto& run : runs) {
    if (shard_of(run.seed, n) == k) mine.push_back(run);
  }
  return mine;
}

std::string shard_path(const std::string& out, std::uint32_t k,
                       std::uint32_t n) {
  if (n <= 1) return out;
  return out + ".shard" + std::to_string(k) + "of" + std::to_string(n);
}

std::string checkpoint_path(const std::string& shard_file) {
  return shard_file + ".ckpt";
}

std::optional<Checkpoint> read_checkpoint(const std::string& path,
                                          const Checkpoint& identity) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = parse_json(text.str(), &error);
  if (!doc) bail("corrupt checkpoint " + path + " (" + error + ")");
  // Another version is refused, never treated as absent: restarting it
  // from zero would overwrite a half-finished campaign.
  const auto* magic = doc->find("magic");
  if (magic == nullptr || magic->text != kMagic) {
    bail("checkpoint " + path + " has magic '" +
         (magic == nullptr ? "" : magic->text) + "', not " +
         std::string(kMagic));
  }
  const auto bad = [&](const char* key) {
    bail("checkpoint " + path + " missing/bad field '" + key + "'");
  };
  const auto u64 = [&](const JsonValue& object, const char* key) {
    std::uint64_t out = 0;
    const auto* v = object.find(key);
    if (v == nullptr || !v->as_u64(out)) bad(key);
    return out;
  };
  const auto* spec = doc->find("spec");
  const auto* cursors = doc->find("cursors");
  if (spec == nullptr || spec->kind != JsonValue::Kind::kString) bad("spec");
  if (cursors == nullptr || cursors->kind != JsonValue::Kind::kArray) {
    bad("cursors");
  }
  const std::uint64_t shard = u64(*doc, "shard");
  const std::uint64_t of = u64(*doc, "of");
  if (spec->text != hex64(identity.spec_digest) || shard != identity.shard ||
      of != identity.of || cursors->items.size() != identity.cursors.size()) {
    bail("checkpoint " + path + " belongs to another campaign (spec " +
         spec->text + ", shard " + std::to_string(shard) + "/" +
         std::to_string(of) + ", " + std::to_string(cursors->items.size()) +
         " cursors) — refusing to splice");
  }
  Checkpoint ckpt = identity;
  ckpt.bytes = u64(*doc, "bytes");
  for (std::size_t i = 0; i < ckpt.cursors.size(); ++i) {
    const JsonValue& item = cursors->items[i];
    const auto* done = item.find("done");
    if (done == nullptr || done->kind != JsonValue::Kind::kBool) bad("done");
    ckpt.cursors[i] = {u64(item, "rounds"), u64(item, "records"),
                       done->boolean};
  }
  return ckpt;
}

void write_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  std::string cursors;
  for (const auto& c : ckpt.cursors) {
    JsonObject o;
    o.add_u64("rounds", c.rounds);
    o.add_u64("records", c.records);
    o.add_bool("done", c.done);
    cursors += cursors.empty() ? "" : ",";
    cursors += o.str();
  }
  write_text_durable(
      path, "{\"magic\":\"" + std::string(kMagic) + "\",\"spec\":\"" +
                hex64(ckpt.spec_digest) + "\",\"shard\":" +
                std::to_string(ckpt.shard) + ",\"of\":" +
                std::to_string(ckpt.of) + ",\"bytes\":" +
                std::to_string(ckpt.bytes) + ",\"cursors\":[" + cursors +
                "]}\n");
}

namespace {

/// Reads back the durable prefix a sidecar vouches for: the first `bytes`
/// bytes of `data_file` must be exactly `records` newline-terminated lines
/// that parse_jsonl accepts. A prefix that is short, ends inside a record,
/// or holds fewer or more records is not what the checkpoint wrote, so it
/// throws ShardError naming the file before anything is truncated: a
/// resume would otherwise keep a torn record or write records twice.
std::vector<RunRecord> read_durable_records(const std::string& data_file,
                                            std::uint64_t bytes,
                                            std::uint64_t records) {
  const auto shorter = [&] {
    bail(data_file + " is missing or shorter than its checkpoint (" +
         std::to_string(bytes) + " bytes)");
  };
  // The sidecar's byte count sizes the read: check it against the file
  // before allocating for it.
  std::ifstream data(data_file, std::ios::binary | std::ios::ate);
  if (!data || static_cast<std::uint64_t>(data.tellg()) < bytes) shorter();
  std::string prefix(bytes, '\0');
  if (!data.seekg(0).read(prefix.data(), static_cast<std::streamsize>(bytes))) {
    shorter();
  }
  const std::string vouched = " than its checkpoint's " +
                              std::to_string(records) + " records in " +
                              std::to_string(bytes) + " bytes";
  std::vector<RunRecord> out;
  for (std::size_t at = 0; at < prefix.size();) {
    const std::size_t end = prefix.find('\n', at);
    if (end == std::string::npos) {
      bail(data_file + " has a torn record at byte " + std::to_string(at) +
           " of its checkpoint's " + std::to_string(bytes) + " bytes");
    }
    if (out.size() == records) bail(data_file + " has more records" + vouched);
    const std::string_view line(prefix.data() + at, end - at);
    auto rec = parse_jsonl(line);
    if (!rec) {
      bail("unparseable record in " + data_file + ": " + std::string(line));
    }
    out.push_back(std::move(*rec));
    at = end + 1;
  }
  if (out.size() != records) bail(data_file + " has fewer records" + vouched);
  return out;
}

}  // namespace

DurableAppender::DurableAppender(const std::string& path,
                                 std::uint64_t keep_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) bail_errno("open " + path);
  // Crash recovery: drop everything past the last durable checkpoint
  // (torn lines, records whose sidecar update never landed).
  if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
    close_and_bail(fd_, "ftruncate " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) close_and_bail(fd_, "lseek " + path);
  bytes_ = keep_bytes;
}

DurableAppender::~DurableAppender() {
  if (fd_ >= 0) ::close(fd_);
}

void DurableAppender::append(std::string_view text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd_, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      bail_errno("write " + path_);
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += text.size();
}

void DurableAppender::sync() {
  if (::fsync(fd_) != 0) bail_errno("fsync " + path_);
}

DurableLog::DurableLog(std::string data_file, Checkpoint fresh,
                       Bound bound, bool resume, bool timing)
    : data_file_(std::move(data_file)),
      timing_(timing),
      ckpt_(open(std::move(fresh), bound, resume)),
      out_(data_file_, ckpt_.bytes) {}

Checkpoint DurableLog::open(Checkpoint fresh, Bound bound, bool resume) {
  const std::string sidecar = checkpoint_path(data_file_);
  auto ckpt = resume ? read_checkpoint(sidecar, fresh) : std::nullopt;
  if (!ckpt) {
    // The cursor drops to zero before the data file does (out_ truncates
    // it next): an earlier campaign's sidecar never outlives its records,
    // and a crash in between leaves one that under-counts.
    write_checkpoint(sidecar, fresh);
    return fresh;
  }
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < ckpt->cursors.size(); ++i) {
    const Checkpoint::Cursor& c = ckpt->cursors[i];
    const std::string claims =
        sidecar + ": target " + std::to_string(i) + " claims ";
    if (c.rounds > bound.rounds) {
      bail(claims + std::to_string(c.rounds) + " rounds but the spec allows " +
           std::to_string(bound.rounds));
    }
    // Every record takes at least one byte.
    const std::uint64_t most = std::min(bound.records, ckpt->bytes);
    if (c.records > most) {
      bail(claims + std::to_string(c.records) + " records but its spec and " +
           std::to_string(ckpt->bytes) + " bytes hold at most " +
           std::to_string(most));
    }
    records += c.records;
  }
  restored_ = read_durable_records(data_file_, ckpt->bytes, records);
  return *ckpt;
}

void DurableLog::append(const RunRecord& record) {
  out_.append(to_jsonl(record, timing_) + '\n');
  ++pending_;
}

void DurableLog::barrier(std::size_t cursor) {
  Checkpoint::Cursor& c = ckpt_.cursors.at(cursor);
  c.rounds += 1;
  c.records += pending_;
  pending_ = 0;
  commit();
  if (after_barrier) after_barrier(ckpt_);
}

void DurableLog::finish(std::size_t cursor) {
  ckpt_.cursors.at(cursor).done = true;
  commit();
}

void DurableLog::commit() {
  // Data first, cursor second: the sidecar must never point past bytes
  // that are not yet on disk.
  out_.sync();
  ckpt_.bytes = out_.bytes();
  write_checkpoint(checkpoint_path(data_file_), ckpt_);
}

std::vector<RunRecord> run_sharded(Runner& runner,
                                   const std::vector<RunSpec>& runs,
                                   DurableLog& log, std::size_t batch) {
  batch = std::max<std::size_t>(batch, 1);
  std::vector<RunRecord> executed;
  for (std::size_t i = log.checkpoint().cursors.at(0).records;
       i < runs.size(); i += batch) {
    const std::size_t count = std::min(batch, runs.size() - i);
    const std::vector<RunSpec> slice(runs.begin() + static_cast<long>(i),
                                     runs.begin() + static_cast<long>(i + count));
    for (auto& rec : runner.run_batch(slice)) {
      log.append(rec);
      executed.push_back(std::move(rec));
    }
    log.barrier(0);
  }
  log.finish(0);
  return executed;
}

std::size_t merge_shards(const std::vector<RunSpec>& runs,
                         const std::string& out, std::uint32_t of) {
  if (of < 2) bail("merge needs at least 2 shards");
  // Load each shard's lines; cursors advance in lock-step with the global
  // index walk, which both orders the merge and proves completeness.
  std::vector<std::vector<std::string>> lines(of);
  std::vector<std::size_t> cursor(of, 0);
  for (std::uint32_t k = 0; k < of; ++k) {
    const std::string path = shard_path(out, k, of);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      bail("missing shard file " + path + " (did shard " + std::to_string(k) +
           " run?)");
    }
    std::string line;
    while (std::getline(in, line)) lines[k].push_back(line);
  }

  std::ostringstream merged;
  for (const auto& run : runs) {
    const std::uint32_t k = shard_of(run.seed, of);
    if (cursor[k] >= lines[k].size()) {
      bail("shard " + std::to_string(k) + " is missing run " +
           std::to_string(run.index) + " ('" + run.campaign.name +
           "') — resume it to completion first");
    }
    const std::string& line = lines[k][cursor[k]];
    const std::string prefix = "{\"run\":" + std::to_string(run.index) + ",";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      bail("shard " + std::to_string(k) + " record " +
           std::to_string(cursor[k]) + " does not start with " + prefix +
           " — shard files do not match this spec");
    }
    ++cursor[k];
    merged << line << '\n';
  }
  for (std::uint32_t k = 0; k < of; ++k) {
    if (cursor[k] != lines[k].size()) {
      bail("shard " + std::to_string(k) + " has " +
           std::to_string(lines[k].size() - cursor[k]) +
           " extra records beyond the spec's expansion");
    }
  }

  std::ofstream dest(out, std::ios::binary | std::ios::trunc);
  if (!dest) bail("cannot open " + out);
  dest << merged.str();
  if (!dest) bail("write failed for " + out);
  return runs.size();
}

}  // namespace hsfi::orchestrator

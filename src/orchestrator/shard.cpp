#include "orchestrator/shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

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

/// fsync the directory containing `path`, so a rename into it is durable.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) bail_errno("open dir " + dir);
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    bail_errno("fsync dir " + dir);
  }
  ::close(fd);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

constexpr std::string_view kMagic = "hsfi-ckpt-v1";

/// A sidecar document; nullopt when the file is absent (a fresh start).
/// A present sidecar that is not valid JSON with our magic throws: a
/// corrupt cursor must never silently restart a campaign from zero.
std::optional<JsonValue> read_sidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = parse_json(text.str(), &error);
  if (!doc) bail("corrupt checkpoint " + path + " (" + error + ")");
  const auto* magic = doc->find("magic");
  if (magic == nullptr || magic->text != kMagic) {
    bail("checkpoint " + path + " has wrong magic");
  }
  return doc;
}

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
      const int err = errno;
      ::close(fd);
      errno = err;
      bail_errno("write " + tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    bail_errno("fsync " + tmp);
  }
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

std::optional<Checkpoint> read_checkpoint(const std::string& path) {
  const auto doc = read_sidecar(path);
  if (!doc) return std::nullopt;
  Checkpoint ckpt;
  const auto u64 = [&](const char* key, std::uint64_t& out) {
    const auto* v = doc->find(key);
    if (v == nullptr || !v->as_u64(out)) {
      bail("checkpoint " + path + " missing/bad field '" + key + "'");
    }
  };
  const auto* spec = doc->find("spec");
  if (spec == nullptr || spec->kind != JsonValue::Kind::kString ||
      spec->text.size() != 16) {
    bail("checkpoint " + path + " missing/bad field 'spec'");
  }
  ckpt.spec_digest = std::strtoull(spec->text.c_str(), nullptr, 16);
  std::uint64_t shard = 0, of = 0;
  u64("shard", shard);
  u64("of", of);
  ckpt.shard = static_cast<std::uint32_t>(shard);
  ckpt.of = static_cast<std::uint32_t>(of);
  u64("batches", ckpt.batches);
  u64("runs", ckpt.runs);
  u64("bytes", ckpt.bytes);
  const auto* done = doc->find("done");
  if (done == nullptr || done->kind != JsonValue::Kind::kBool) {
    bail("checkpoint " + path + " missing/bad field 'done'");
  }
  ckpt.done = done->boolean;
  return ckpt;
}

void write_checkpoint(const std::string& path, const Checkpoint& ckpt) {
  JsonObject o;
  o.add("magic", kMagic);
  o.add("spec", hex64(ckpt.spec_digest));
  o.add_u64("shard", ckpt.shard);
  o.add_u64("of", ckpt.of);
  o.add_u64("batches", ckpt.batches);
  o.add_u64("runs", ckpt.runs);
  o.add_u64("bytes", ckpt.bytes);
  o.add_bool("done", ckpt.done);
  write_text_durable(path, o.str() + "\n");
}

std::optional<RoundCheckpoint> read_round_checkpoint(
    const std::string& path, std::uint64_t spec_digest, std::size_t targets) {
  const auto doc = read_sidecar(path);
  if (!doc) return std::nullopt;
  const auto* mode = doc->find("mode");
  const auto* spec = doc->find("spec");
  if (mode == nullptr || mode->text != "adaptive" || spec == nullptr ||
      spec->text != hex64(spec_digest)) {
    bail("checkpoint " + path +
         " does not match this campaign spec — refusing to splice");
  }
  RoundCheckpoint ckpt;
  ckpt.spec_digest = spec_digest;
  const auto* bytes = doc->find("bytes");
  const auto* list = doc->find("targets");
  if (bytes == nullptr || !bytes->as_u64(ckpt.bytes) || list == nullptr ||
      list->items.size() != targets) {
    bail("checkpoint " + path + " is malformed");
  }
  for (const auto& item : list->items) {
    RoundCheckpoint::Target t;
    const auto* rounds = item.find("rounds");
    const auto* records = item.find("records");
    const auto* done = item.find("done");
    if (rounds == nullptr || !rounds->as_u64(t.rounds) || records == nullptr ||
        !records->as_u64(t.records) || done == nullptr ||
        done->kind != JsonValue::Kind::kBool) {
      bail("checkpoint " + path + " is malformed");
    }
    t.done = done->boolean;
    ckpt.targets.push_back(t);
  }
  return ckpt;
}

void write_round_checkpoint(const std::string& path,
                            const RoundCheckpoint& ckpt) {
  std::string targets = "[";
  for (const auto& t : ckpt.targets) {
    JsonObject o;
    o.add_u64("rounds", t.rounds);
    o.add_u64("records", t.records);
    o.add_bool("done", t.done);
    if (targets.size() > 1) targets += ',';
    targets += o.str();
  }
  write_text_durable(path, "{\"magic\":\"" + std::string(kMagic) +
                               "\",\"mode\":\"adaptive\",\"spec\":\"" +
                               hex64(ckpt.spec_digest) + "\",\"bytes\":" +
                               std::to_string(ckpt.bytes) +
                               ",\"targets\":" + targets + "]}\n");
}

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

DurableAppender::DurableAppender(const std::string& path,
                                 std::uint64_t keep_bytes)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) bail_errno("open " + path);
  // The data is synced before its sidecar, so a checkpoint can only
  // under-count the file. One that claims more belongs to another file:
  // truncating "up" to it would pad the log with NUL bytes.
  struct stat st {};
  if (::fstat(fd_, &st) != 0 ||
      keep_bytes > static_cast<std::uint64_t>(st.st_size)) {
    ::close(fd_);
    bail(path + " is shorter than its checkpoint (" +
         std::to_string(keep_bytes) + " bytes)");
  }
  // Crash recovery: drop everything past the last durable checkpoint
  // (torn lines, records whose sidecar update never landed).
  if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0) {
    bail_errno("ftruncate " + path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) bail_errno("lseek " + path);
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

ShardResult run_sharded(Runner& runner, const std::vector<RunSpec>& runs,
                        const std::string& shard_file,
                        const Checkpoint& identity, const ShardOptions& opts) {
  Checkpoint ckpt = identity;
  ckpt.batches = 0;
  ckpt.runs = 0;
  ckpt.bytes = 0;
  ckpt.done = false;

  const std::string sidecar = checkpoint_path(shard_file);
  if (opts.resume) {
    if (const auto existing = read_checkpoint(sidecar)) {
      if (existing->spec_digest != identity.spec_digest) {
        bail("checkpoint " + sidecar +
             " belongs to a different campaign spec — refusing to splice");
      }
      if (existing->shard != identity.shard || existing->of != identity.of) {
        bail("checkpoint " + sidecar + " is for shard " +
             std::to_string(existing->shard) + "/" +
             std::to_string(existing->of) + ", not " +
             std::to_string(identity.shard) + "/" +
             std::to_string(identity.of));
      }
      if (existing->runs > runs.size()) {
        bail("checkpoint " + sidecar + " records " +
             std::to_string(existing->runs) + " runs but the shard only has " +
             std::to_string(runs.size()));
      }
      (void)read_durable_records(shard_file, existing->bytes, existing->runs);
      ckpt = *existing;
      ckpt.done = false;
    }
  }

  ShardResult result;
  result.restored = ckpt.runs;
  DurableAppender out(shard_file, ckpt.bytes);

  const std::size_t batch = opts.batch == 0 ? 1 : opts.batch;
  for (std::size_t i = ckpt.runs; i < runs.size(); i += batch) {
    const std::size_t count = std::min(batch, runs.size() - i);
    const std::vector<RunSpec> slice(runs.begin() + static_cast<long>(i),
                                     runs.begin() + static_cast<long>(i + count));
    auto records = runner.run_batch(slice);
    std::string lines;
    for (const auto& rec : records) {
      lines += to_jsonl(rec, opts.include_timing);
      lines += '\n';
    }
    // Data first, cursor second: the sidecar must never point past bytes
    // that are not yet on disk.
    out.append(lines);
    out.sync();
    ckpt.batches += 1;
    ckpt.runs += count;
    ckpt.bytes = out.bytes();
    write_checkpoint(sidecar, ckpt);
    for (auto& rec : records) result.executed.push_back(std::move(rec));
    if (opts.after_batch) opts.after_batch(ckpt);
  }

  ckpt.done = true;
  write_checkpoint(sidecar, ckpt);
  return result;
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

#include "snapshot/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace vqe {
namespace {

namespace fs = std::filesystem;

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".vqesnap";

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Parses "<ckpt-><8+ digits><.vqesnap>" into a sequence number.
bool ParseGeneration(const std::string& filename, uint64_t* seq) {
  const size_t prefix_len = sizeof(kPrefix) - 1;
  const size_t suffix_len = sizeof(kSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return false;
  if (filename.compare(0, prefix_len, kPrefix) != 0) return false;
  if (filename.compare(filename.size() - suffix_len, suffix_len, kSuffix) !=
      0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix_len; i < filename.size() - suffix_len; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

/// Writes + fsyncs a file through a POSIX fd so the data is durable before
/// the rename makes it visible.
Status WriteFileDurably(const std::string& path,
                        const std::vector<uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal(Errno("open " + path));
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::Internal(Errno("write " + path));
      ::close(fd);
      return st;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status st = Status::Internal(Errno("fsync " + path));
    ::close(fd);
    return st;
  }
  if (::close(fd) != 0) return Status::Internal(Errno("close " + path));
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(Errno("open dir " + dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("fsync dir " + dir));
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read error on " + path);
  return bytes;
}

}  // namespace

Status CheckpointPolicy::Validate() const {
  if (!enabled()) {
    if (every_frames > 0 && directory.empty()) {
      return Status::InvalidArgument(
          "checkpoint cadence set but no directory given");
    }
    return Status::OK();
  }
  if (keep_generations < 1) {
    return Status::InvalidArgument("keep_generations must be >= 1");
  }
  return Status::OK();
}

CheckpointManager::CheckpointManager(std::string directory,
                                     int keep_generations)
    : directory_(std::move(directory)),
      keep_generations_(std::max(1, keep_generations)) {}

Status CheckpointManager::Init() {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return Status::Internal("create_directories " + directory_ + ": " +
                            ec.message());
  }
  return Status::OK();
}

std::string CheckpointManager::GenerationPath(uint64_t sequence) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(sequence), kSuffix);
  return directory_ + "/" + name;
}

Status CheckpointManager::Write(uint64_t sequence,
                                const std::vector<uint8_t>& bytes) {
  VQE_RETURN_NOT_OK(Init());
  const std::string final_path = GenerationPath(sequence);
  const std::string tmp_path = final_path + ".tmp";
  VQE_RETURN_NOT_OK(WriteFileDurably(tmp_path, bytes));
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(Errno("rename " + tmp_path));
  }
  VQE_RETURN_NOT_OK(FsyncDirectory(directory_));

  // Prune: keep the newest keep_generations_ generations.
  std::vector<uint64_t> gens = ListGenerations();
  if (gens.size() > static_cast<size_t>(keep_generations_)) {
    const size_t drop = gens.size() - static_cast<size_t>(keep_generations_);
    for (size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      fs::remove(GenerationPath(gens[i]), ec);  // best-effort
    }
  }
  return Status::OK();
}

std::vector<uint64_t> CheckpointManager::ListGenerations() const {
  std::vector<uint64_t> gens;
  std::error_code ec;
  fs::directory_iterator it(directory_, ec);
  if (ec) return gens;
  for (const auto& entry : it) {
    uint64_t seq;
    if (ParseGeneration(entry.path().filename().string(), &seq)) {
      gens.push_back(seq);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

Result<CheckpointManager::Loaded> CheckpointManager::LoadLatestGood() const {
  std::vector<uint64_t> gens = ListGenerations();
  int rejected = 0;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    auto bytes = ReadFileBytes(GenerationPath(*it));
    if (!bytes.ok()) {
      ++rejected;
      continue;
    }
    auto snap = SnapshotReader::Parse(std::move(bytes).value());
    if (!snap.ok()) {
      ++rejected;
      continue;
    }
    Loaded loaded;
    loaded.sequence = *it;
    loaded.snapshot = std::move(snap).value();
    loaded.rejected = rejected;
    return loaded;
  }
  return Status::NotFound("no usable checkpoint generation in " + directory_);
}

}  // namespace vqe

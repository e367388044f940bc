// Crash-atomic checkpoint persistence with generational fallback.
//
// A checkpoint directory holds numbered generations:
//
//   <dir>/ckpt-00000003.vqesnap
//   <dir>/ckpt-00000004.vqesnap      <- newest
//
// Writes follow the classic crash-atomicity protocol: serialize to
// ckpt-<seq>.tmp, fsync the file, rename(2) onto the final name (atomic on
// POSIX), then fsync the directory so the rename itself is durable. A crash
// at any point leaves either the previous generation set intact or the new
// file fully in place — never a half-written visible snapshot.
//
// Loads walk generations newest-first and return the first one that passes
// full container validation (magic + version + per-section CRC32), counting
// how many corrupt/truncated generations were rejected along the way. This
// is the "fall back to the last good generation" behaviour the resume path
// relies on when the newest file was damaged mid-write or bit-flipped at
// rest. A run with checkpointing enabled always resumes from the newest
// good generation in its directory.
//
// A generation that validates can still belong to another run. Engine and
// query snapshots carry a tagged identity section (snapshot/identity.h),
// so resume refuses a generation written under a different configuration,
// or by a build with an older snapshot layout, with FailedPrecondition
// naming the field; it does not fall back past it.

#ifndef VQE_SNAPSHOT_CHECKPOINT_H_
#define VQE_SNAPSHOT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "snapshot/snapshot.h"

namespace vqe {

/// Checkpoint knobs shared by EngineOptions / ExperimentConfig /
/// QueryEngineOptions.
struct CheckpointPolicy {
  /// Write a snapshot every N processed frames (frame clock, not wall
  /// clock — keeps cadence deterministic). 0 disables checkpointing.
  size_t every_frames = 0;

  /// Directory for generation files. Created on demand.
  std::string directory;

  /// How many good generations to retain; older ones are pruned after each
  /// successful write. Minimum 1; 2 gives one fallback generation.
  int keep_generations = 2;

  /// Crash injection for tests/demos: abort the run (Status::Aborted) after
  /// processing this many frames IN THIS INVOCATION. 0 = off.
  size_t crash_after_frames = 0;

  bool enabled() const { return every_frames > 0 && !directory.empty(); }

  /// InvalidArgument when enabled with nonsensical knobs.
  Status Validate() const;
};

/// Owns the generation files of one checkpoint directory.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string directory, int keep_generations = 2);

  /// Creates the directory (mkdir -p semantics).
  Status Init();

  /// Atomically persists `bytes` as generation `sequence`, then prunes
  /// generations older than the retention window.
  Status Write(uint64_t sequence, const std::vector<uint8_t>& bytes);

  struct Loaded {
    uint64_t sequence = 0;     ///< generation number that validated
    SnapshotReader snapshot;   ///< fully parsed, CRC-verified container
    int rejected = 0;          ///< newer generations discarded as corrupt
  };

  /// Newest generation that passes full validation; NotFound when the
  /// directory has no usable generation (callers then start fresh).
  Result<Loaded> LoadLatestGood() const;

  /// Generation numbers present on disk, ascending (for tests/tools).
  std::vector<uint64_t> ListGenerations() const;

  const std::string& directory() const { return directory_; }

  /// Path of a given generation file (exposed for corruption tests).
  std::string GenerationPath(uint64_t sequence) const;

 private:
  std::string directory_;
  int keep_generations_;
};

}  // namespace vqe

#endif  // VQE_SNAPSHOT_CHECKPOINT_H_

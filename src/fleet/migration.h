// Live-migration wire envelope.
//
// A migrating session travels between shards as a MigrationPayload: the
// engine snapshot produced by StreamSession::ExportState wrapped in an
// OUTER snapshot container together with routing metadata (stream name,
// source shard, fleet sequence number) and the scheduler-side counters
// that must continue on the target (frames stepped, rounds active). Using
// the container for the envelope means the outer per-section CRCs protect
// the metadata exactly as the inner CRCs protect the engine state — a bit
// flip anywhere in the payload is DataLoss at Decode, BEFORE any target
// session is touched. A payload that decodes cleanly but was exported from
// a different session configuration is still rejected later by
// StreamSession::ImplantState (identity fingerprint, FailedPrecondition).

#ifndef VQE_FLEET_MIGRATION_H_
#define VQE_FLEET_MIGRATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/scheduler.h"

namespace vqe {

struct MigrationPayload {
  /// Fleet-wide stream name (routing key on the target coordinator).
  std::string stream_name;
  /// Shard the session was extracted from (diagnostics).
  int source_shard = 0;
  /// The migration's 1-based ordinal among the Run's migration attempts
  /// (diagnostics).
  uint64_t sequence = 0;
  /// Scheduler counters that continue on the target shard.
  StreamScheduler::SessionCarry carry;
  /// The session's full resumable state (inner snapshot container from
  /// StreamSession::ExportState, CRCs and identity fingerprint included).
  std::vector<uint8_t> engine_snapshot;
};

/// Serializes the payload into the snapshot container wire format.
std::vector<uint8_t> EncodeMigrationPayload(const MigrationPayload& payload);

/// Parses and fully validates an encoded payload. Any structural damage —
/// bit flip, truncation, trailing bytes, bad magic — returns DataLoss;
/// nothing is partially decoded.
Result<MigrationPayload> DecodeMigrationPayload(
    const std::vector<uint8_t>& bytes);

}  // namespace vqe

#endif  // VQE_FLEET_MIGRATION_H_

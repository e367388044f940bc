// Deterministic chaos injection for the sharded fleet.
//
// Chaos is SCRIPTED, not random: a ChaosScript is an explicit list of
// events, each anchored to a shard's own round counter — "kill shard 1 at
// its round 5", "migrate stream s3 off shard 0 at its round 3", "corrupt
// the next migration payload shard 2 receives". Anchoring to per-shard
// round counts (not wall clock) makes every chaos run reproducible: a
// shard's round counter advances only when IT steps sessions, a shard
// stops stepping as soon as its next event is due, and due events fire in
// the fleet's serial control phase in shard order — so the fault always
// lands at the same point of the whole fleet's schedule no matter how the
// OS interleaves threads. fleet_test replays the same scripts under
// ASan/TSan and across worker counts and asserts bit-identical stream
// results and an identical fleet ledger every time.

#ifndef VQE_FLEET_CHAOS_H_
#define VQE_FLEET_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace vqe {

struct ChaosEvent {
  enum class Kind : uint8_t {
    /// Shard `shard` crashes at its round `at_round`: it stops serving
    /// immediately, loses every live session and its shard-local stats,
    /// and never reports again. The coordinator restarts the lost streams
    /// from their factories (or their checkpoint directories).
    kKillShard,
    /// Extract `stream` from `shard` at its round `at_round` and implant
    /// it into `target_shard` through the migration wire format.
    kMigrate,
    /// Damage the NEXT migration payload addressed to `shard` after its
    /// round `at_round`: flip bit `flip_bit` of byte `flip_byte` (modulo
    /// payload size), or truncate the payload when `truncate` is set. The
    /// target must reject the implant with DataLoss and the coordinator
    /// must fall back to a fresh restart — never corrupt results.
    kCorruptNextMigration,
  };

  Kind kind = Kind::kKillShard;
  /// Shard round count at which the event fires (between rounds, in the
  /// control phase). 0 fires before the shard has built any session: a
  /// round-0 kill reroutes every stream placed on the shard, and a
  /// round-0 migrate aborts (there is no live session to move yet).
  uint64_t at_round = 0;
  /// Shard the event targets (source shard for kMigrate).
  int shard = 0;
  /// kMigrate: the stream to move.
  std::string stream;
  /// kMigrate: destination shard.
  int target_shard = 0;
  /// kCorruptNextMigration: damage coordinates.
  size_t flip_byte = 0;
  int flip_bit = 0;
  bool truncate = false;
};

const char* ChaosEventKindToString(ChaosEvent::Kind kind);

struct ChaosScript {
  std::vector<ChaosEvent> events;

  bool empty() const { return events.empty(); }

  /// InvalidArgument when any event references a shard outside
  /// [0, num_shards) or a kMigrate has source == target.
  Status Validate(int num_shards) const;
};

}  // namespace vqe

#endif  // VQE_FLEET_CHAOS_H_

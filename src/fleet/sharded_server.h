// Sharded fleet serving: N StreamScheduler shards stepped in parallel,
// a fleet-level admission front door, live session migration between
// shards, shard failover, and deterministic chaos injection.
//
// Architecture. Run admits and places every stream, then alternates two
// phases until every admitted stream is terminal. The control phase runs
// serially on the calling thread: each shard's due chaos events in shard
// order (migrations happen right there, through the wire format). The
// step phase starts one thread per live shard with work; the thread
// submits the sessions newly placed on its shard (building restarts from
// their factories) and runs DRR rounds until the shard drains or its next
// chaos event is due. After the join the calling thread collects submit
// failures and retired streams in shard order. A scheduler is touched by
// one thread per phase, and every control decision is taken in a fixed
// order, so the whole fleet report — wall-clock fields and fleet_health
// breaker states aside — is a pure function of the inputs.
//
// Admission. In submission order, the fleet admits at most max_sessions
// streams, and at most num_shards × (shard.max_sessions +
// shard.queue_depth) of them; the rest are shed with kResourceExhausted
// and appear in the report as terminal stream entries (and in
// FleetStats::shed). Run then builds every admitted stream's session, on
// one fresh thread per shard (thread s builds admitted streams s,
// s + num_shards, ...), and places the streams longest first by their
// remaining frames (num_frames() − next_frame(), so a stream resumed from
// a checkpoint weighs what it has left), ties in submission order. Each
// goes to the live shard with a free slot that has the fewest placed
// frames, ties to the lowest shard index. A batch ends when its slowest
// shard drains, so balancing frames, not stream counts, is what shortens
// it. A factory error or a session named unlike its stream is terminal
// with that status and never placed (shard −1).
//
// Migration. A live session moves between shards as a MigrationPayload,
// all within one control phase: the session is extracted from the source
// scheduler and its engine snapshot (identity fingerprint included)
// encoded into the envelope; the envelope is decoded, a fresh session
// built from the stream's factory takes over the state, and the target
// scheduler adopts it (it steps from the target's next step phase). A
// corrupt payload is rejected with DataLoss and a fingerprint mismatch
// with FailedPrecondition — both BEFORE the target session is mutated —
// and Run falls back to restarting the stream from scratch (or from its
// checkpoint directory), so damage costs work, never correctness.
//
// Failover. A killed shard loses its live sessions and its shard-local
// stats (crash semantics). Run restarts every stream placed on it from its
// factory (built at the next step phase) on the survivor that placement
// would pick: a free slot and the fewest placed frames, each stream
// weighing the frames it had left at admission. Migration-fallback
// restarts pick their shard the same way. Streams with a checkpoint
// directory resume from their newest good generation. Each stream has a
// bounded restart budget; past it (or with no shard left) it goes
// terminal with the last failure.
//
// Bit-identity. Because every session's state is private and every frame
// deterministic, a stream that completes — directly, migrated mid-video,
// or restarted after a crash — produces a RunResult bit-identical to its
// solo RunStrategy run (wall-clock fields aside). fleet_test pins this
// under the full chaos matrix.

#ifndef VQE_FLEET_SHARDED_SERVER_H_
#define VQE_FLEET_SHARDED_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/chaos.h"
#include "fleet/migration.h"
#include "obs/obs.h"
#include "runtime/breaker_registry.h"
#include "serve/scheduler.h"
#include "serve/stream_session.h"

namespace vqe {

/// Builds a fresh StreamSession for a stream — used for initial submission
/// AND for failover restarts / migration targets, so it must be callable
/// repeatedly and deterministically. The session must carry the stream's
/// name. Must be safe to invoke from any thread: admission and shard
/// threads build sessions concurrently, the calling thread builds
/// migration targets (sessions themselves are single-threaded once built).
using SessionFactory =
    std::function<Result<std::unique_ptr<StreamSession>>()>;

struct FleetStreamSpec {
  /// Fleet-wide unique stream name (the migration and report key).
  std::string name;
  SessionFactory factory;
};

struct FleetOptions {
  /// Number of shards, each one StreamScheduler stepped on its own thread
  /// during step phases.
  int num_shards = 2;
  /// Fleet-wide admission cap: streams beyond this are shed up front.
  int max_sessions = 64;
  /// Per-stream failover budget (restarts after shard death or a corrupt
  /// migration payload; per-stream step errors are terminal, not retried).
  int max_restarts = 2;
  /// Per-shard scheduler knobs. Its fleet_breaker options configure the
  /// one fleet-wide per-model breaker registry every shard publishes into.
  ServeOptions shard;
  /// Observability sink. Disabled by default (no metrics, no tracing,
  /// bit-identical results). When enabled, each shard's scheduler gets the
  /// handle with obs_node = its shard id (round spans land on "node i"
  /// tracks), sessions trace on their stream tracks, the coordinator
  /// traces migration and shard-death instants on the node track
  /// `num_shards`, and a completed Run publishes the migration, failover
  /// and shard-kill counters and the migration-latency histogram once,
  /// from FleetStats. All wall-domain: shard placement and crash recovery
  /// are process bookkeeping, not results. A killed shard publishes
  /// nothing, like the sessions it held.
  ObsHandle obs;

  Status Validate() const;
};

/// Migration ledger for one Run.
struct MigrationStats {
  /// Migrations started by chaos; each one completes, falls back to a
  /// restart, or aborts, so attempted = completed + fallback_restarts +
  /// aborted.
  uint64_t attempted = 0;
  /// Sessions successfully implanted on their target shard.
  uint64_t completed = 0;
  /// Payloads rejected with DataLoss (bit flips, truncation).
  uint64_t rejected_corrupt = 0;
  /// Payloads rejected with FailedPrecondition (identity mismatch).
  uint64_t rejected_identity = 0;
  /// Streams restarted from their factory after a failed implant (a
  /// rejected payload or a full target).
  uint64_t fallback_restarts = 0;
  /// Migrations with nothing to move (stream finished, elsewhere, or
  /// not yet submitted on the source) or a dead target — benign under chaos.
  uint64_t aborted = 0;
  /// Handoff latency (encoded payload -> implant confirmed), wall clock.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

struct FleetStats {
  int num_shards = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  /// Streams shed at the fleet front door.
  uint64_t shed = 0;
  int shards_killed = 0;
  /// Streams restarted because their shard died.
  uint64_t failover_streams = 0;
  uint64_t completed_streams = 0;
  uint64_t failed_streams = 0;
  double wall_ms = 0.0;
  MigrationStats migration;
  /// Degradation-ladder aggregates across surviving shards (each shard
  /// runs its own deterministic OverloadController when
  /// options.shard.overload.enabled; per-shard ledgers live in
  /// ShardSummary::stats.degradations). Zeros when overload control is
  /// off or every shard died.
  int peak_degradation_level = 0;
  uint64_t degradation_transitions = 0;
  /// Shard-local serving stats; `dead` shards crashed and lost theirs.
  struct ShardSummary {
    int shard = 0;
    bool dead = false;
    ServeStats stats;
  };
  std::vector<ShardSummary> shards;
  /// Fleet-wide per-model breaker state at drain time.
  std::vector<BreakerRegistry::ModelHealth> fleet_health;
};

/// Terminal state of one stream across its whole fleet lifetime
/// (migrations and restarts included).
struct FleetStreamReport {
  std::string name;
  /// Shard the stream finished on (-1 for shed / never-placed streams).
  int shard = -1;
  int restarts = 0;
  int migrations = 0;
  /// The final StreamReport (status OK for completed streams; the
  /// admission / step / failover error otherwise).
  StreamReport report;
};

struct FleetReport {
  FleetStats stats;
  /// One entry per submitted spec, submission order.
  std::vector<FleetStreamReport> streams;
};

class ShardedServer {
 public:
  explicit ShardedServer(FleetOptions options = {});

  /// Serves `specs` to completion under `chaos` (empty script = no
  /// faults). Blocking; the calling thread runs every control phase and
  /// joins each step phase's shard threads. Returns the fleet report once
  /// every admitted stream is terminal. Fails fast (before starting
  /// shards) on invalid options or script. Callable once per
  /// ShardedServer.
  Result<FleetReport> Run(std::vector<FleetStreamSpec> specs,
                          ChaosScript chaos = {});

  const FleetOptions& options() const { return options_; }

 private:
  FleetOptions options_;
  bool ran_ = false;
};

}  // namespace vqe

#endif  // VQE_FLEET_SHARDED_SERVER_H_

// Multi-stream scheduler: deficit round-robin over StreamSessions with
// priority classes, admission control and backpressure.
//
// Scheduling model. Time advances in rounds. At the top of each round the
// scheduler admits queued sessions into freed active slots (FIFO, so
// admission order is deterministic), then credits every active session's
// deficit counter with quantum_ms * PriorityWeight(class). Each session
// then steps frames — concurrently across sessions via the shared thread
// pool, serially within a session — until its deficit is spent, it
// finishes, or the per-round frame cap trips. The deficit currency is the
// engine's *simulated* charged cost (EngineRun::charged_cost_ms deltas),
// which is deterministic, so the frames-per-round schedule of every
// session is a pure function of the submitted work — independent of
// worker count and machine speed.
//
// Admission control. At most max_sessions sessions are active; up to
// queue_depth more wait in the admission queue. A Submit beyond both
// bounds — or a session whose entire pool the fleet breaker registry
// reports open — is shed immediately with kResourceExhausted. Overload
// therefore degrades by rejecting new work at the front door; admitted
// work always drains (a failing session retires with its error, it never
// wedges the scheduler).
//
// Isolation / bit-identity. The scheduler only decides WHEN a session
// steps; all per-frame state is session-private, so every stream's
// RunResult is bit-identical to a solo RunStrategy run of the same
// source/strategy/options at any max_sessions, parallelism or fault
// script (wall-clock fields aside). serve_test pins this matrix.

#ifndef VQE_SERVE_SCHEDULER_H_
#define VQE_SERVE_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/obs.h"
#include "runtime/breaker_registry.h"
#include "serve/latency_histogram.h"
#include "serve/overload.h"
#include "serve/stream_session.h"

namespace vqe {

struct ServeOptions {
  /// Concurrently active sessions (admission bound).
  int max_sessions = 4;
  /// Admitted-but-waiting sessions beyond the active set; Submit sheds
  /// with kResourceExhausted once both are full.
  int queue_depth = 8;
  /// DRR quantum in simulated ms per weight unit per round: an
  /// interactive session earns 4x this, a batch session 1x.
  double quantum_ms = 200.0;
  /// Hard cap on frames one session may step in one round, whatever its
  /// deficit (bounds round latency under huge quanta).
  int max_frames_per_round = 64;
  /// Worker parallelism for stepping sessions within a round (semantics of
  /// ResolveWorkers: 0 = all cores, 1 = serial).
  int parallelism = 0;
  /// Options of the fleet-wide per-model breaker registry.
  CircuitBreakerOptions fleet_breaker;
  /// SLO-aware overload control (degradation ladder). Disabled by default;
  /// a scheduler with overload.enabled == false constructs no controller
  /// and leaves every stream bit-identical to the controller-free path.
  OverloadOptions overload;
  /// Observability sink. Disabled by default (no metrics, no tracing, no
  /// allocations, bit-identical results). When enabled, each activated
  /// session's engine gets the handle rebound to its stream track. The
  /// scheduler counts per round what ServeStats has no field for (round
  /// wall time, frames stepped, DRR credit and charge, retirements, slot
  /// busy time and step capacity), traces rounds and ladder transitions
  /// on the node track `obs_node`, and FinishServing publishes rounds,
  /// admissions, sheds, stream errors and ladder transitions once, from
  /// the final ServeStats. All of it is in the wall domain: which frames
  /// share a round is process bookkeeping, not a result, so it stays out
  /// of the simulated-domain determinism fingerprint.
  ObsHandle obs;
  /// Node index for the scheduler's trace track (fleet shards set their
  /// shard id; solo schedulers keep 0).
  int obs_node = 0;

  Status Validate() const;
};

/// Final state of one stream after RunUntilDrained.
struct StreamReport {
  uint64_t stream_id = 0;
  std::string name;
  PriorityClass priority = PriorityClass::kStandard;
  /// OK for a stream that drained; the step error (e.g. Aborted under
  /// crash injection) for one that retired early.
  Status status = Status::OK();
  /// Finished RunResult when status is OK; the live partial accumulators
  /// otherwise (useful for post-mortem, averages unfinalized).
  RunResult result;
  size_t frames = 0;
  /// Rounds in which this stream stepped at least one frame.
  uint64_t rounds_active = 0;
  /// Round at which the stream left the admission queue (0 = admitted on
  /// submit).
  uint64_t admitted_round = 0;
};

/// Aggregate serving statistics. Keeps the two time ledgers separate:
/// `wall_ms` is real elapsed time (streams overlap inside it), while
/// `simulated_ms` is the summed per-stream frame clock (additive across
/// streams by construction). Their ratio is the effective concurrency.
/// `submitted`, `admitted`, `shed_submissions` and `frames` are the sums
/// of the `classes` fields of the same name.
struct ServeStats {
  double wall_ms = 0.0;
  /// Σ per-stream TimeBreakdown::SimulatedMs() — additive frame-clock.
  double simulated_ms = 0.0;
  /// Σ per-stream algorithm_ms. Each sample is real wall-clock measured
  /// inside one stream; concurrent streams overlap, so this is a work
  /// total, NOT elapsed time — never compare it to wall_ms directly.
  double algorithm_wall_ms = 0.0;
  uint64_t rounds = 0;
  uint64_t frames = 0;
  /// Frames (inside `frames`) answered from tracker propagation by
  /// sessions running with EngineOptions::skip enabled.
  uint64_t skipped_frames = 0;
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  /// Submissions rejected with kResourceExhausted.
  uint64_t shed_submissions = 0;
  int peak_active = 0;
  int peak_queued = 0;
  /// Streams that retired with a non-OK terminal status (each also appears
  /// in `errors`), so fleet aggregation can report WHY streams died
  /// instead of folding failures silently into their results.
  uint64_t failed_streams = 0;
  struct StreamError {
    uint64_t stream_id = 0;
    std::string name;
    StatusCode code = StatusCode::kOk;
    std::string message;
  };
  /// Terminal error of every stream that retired non-OK, retirement order.
  std::vector<StreamError> errors;
  /// Per-frame step latency percentiles (real wall-clock, all streams
  /// pooled), read from a LatencyHistogram: each is the upper edge of its
  /// 64-per-octave bucket, so it is never below the exact nearest-rank
  /// percentile and at most 1.1 % above it.
  double frame_p50_ms = 0.0;
  double frame_p99_ms = 0.0;
  double frame_p999_ms = 0.0;
  /// Per-priority-class accounting. Latency percentiles here are on the
  /// *simulated* frame clock (per-frame charged-cost deltas) — the same
  /// deterministic signal the overload controller senses — so the SLO
  /// verdicts they support are identical across machines and reruns. Like
  /// frame_p*_ms they are read from a LatencyHistogram: the upper edge of
  /// the nearest-rank sample's 64-per-octave bucket, never below the exact
  /// percentile and at most 1.09 % above it.
  struct ClassStats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    /// Submissions of this class rejected with kResourceExhausted
    /// (admission-full, breaker-gated, or batch-shed at ladder level 3).
    uint64_t shed_submissions = 0;
    uint64_t frames = 0;
    double sim_p50_ms = 0.0;
    double sim_p99_ms = 0.0;
    double sim_p999_ms = 0.0;
    /// shed_submissions / submitted (0 when nothing submitted).
    double shed_rate = 0.0;
  };
  ClassStats classes[kNumPriorityClasses];
  /// Degradation-ladder observability (zeros when overload control is
  /// disabled): final + peak level, rounds spent at level >= 1, and the
  /// full transition ledger — deterministic across reruns/worker counts.
  int degradation_level = 0;
  int peak_degradation_level = 0;
  uint64_t degraded_rounds = 0;
  std::vector<DegradationTransition> degradations;
  /// Fleet breaker state per model at drain time.
  std::vector<BreakerRegistry::ModelHealth> fleet_health;
};

struct ServeReport {
  ServeStats stats;
  /// Sorted by stream_id (= submission order).
  std::vector<StreamReport> streams;
};

class StreamScheduler {
 public:
  explicit StreamScheduler(ServeOptions options = {});

  /// Takes ownership of `session` and either activates it, parks it in
  /// the admission queue, or sheds it with kResourceExhausted (session
  /// destroyed). On success returns the stream id (dense, submission
  /// order). Also shed: sessions whose every published model the fleet
  /// registry currently reports open.
  Result<uint64_t> Submit(std::unique_ptr<StreamSession> session);

  /// Runs DRR rounds until every admitted session drained or retired with
  /// an error. Per-stream step errors are contained in their
  /// StreamReport::status — RunUntilDrained itself fails only on serving
  /// bugs (e.g. invalid options). Callable once. Implemented as
  /// BeginServing + RunRound until idle + FinishServing.
  Result<ServeReport> RunUntilDrained();

  // --- Incremental serving (the fleet shard drive) ---------------------
  //
  // A ShardedServer thread drives its scheduler one round at a time so it
  // can interleave control work (admissions, live-session extraction and
  // implantation, chaos commands) between rounds. All of these methods
  // must be called from one thread at a time — the scheduler itself is
  // not locked; the fleet serializes access by owning it from the shard
  // thread.

  /// Validates options and starts the serving wall clock. Idempotent.
  Status BeginServing();

  /// Runs exactly one DRR round (admission, deficit credit, concurrent
  /// session stepping, retirement). Returns true while sessions remain
  /// active or queued AFTER the round; false on an idle scheduler (no
  /// round is consumed). Requires BeginServing.
  Result<bool> RunRound();

  /// Moves out the StreamReports of sessions retired since the last call
  /// (completion order). The fleet forwards these incrementally; reports
  /// not taken are returned by FinishServing.
  std::vector<StreamReport> TakeRetired();

  /// Finalizes stats (wall clock, class sums, latency percentiles, fleet
  /// health), publishes the counters ServeStats mirrors to the obs
  /// registry, and returns the report with every not-yet-taken
  /// StreamReport. Callable once; the scheduler rejects further work
  /// afterwards.
  Result<ServeReport> FinishServing();

  // --- Live-session migration hooks ------------------------------------

  /// Scheduler-side state that must travel with a migrating session so
  /// the target shard's StreamReport continues the counters instead of
  /// restarting them.
  struct SessionCarry {
    size_t frames = 0;
    uint64_t rounds_active = 0;
  };
  struct ExtractedSession {
    std::unique_ptr<StreamSession> session;
    uint64_t stream_id = 0;
    SessionCarry carry;
  };

  /// Removes the named live session (active or still queued) and returns
  /// it with its carried counters. NotFound if no live session has that
  /// name; FailedPrecondition if the session is done (it will retire this
  /// round — there is nothing left worth migrating). Frame-latency samples
  /// it produced here stay in this scheduler's pooled percentiles.
  Result<ExtractedSession> ExtractSession(const std::string& name);

  /// Activates (or queues) a session arriving from another shard,
  /// continuing its carried counters. Bypasses the fleet-breaker admission
  /// gate — the fleet already admitted this stream — but still respects
  /// max_sessions/queue_depth (ResourceExhausted when full, session
  /// destroyed; the fleet picks another shard).
  Result<uint64_t> ImplantSession(std::unique_ptr<StreamSession> session,
                                  SessionCarry carry);

  /// Publish health into `fleet` (shared across shards) instead of the
  /// scheduler-private registry. Must precede the first Submit; the
  /// registry must outlive the scheduler.
  void UseSharedRegistry(BreakerRegistry* fleet) { registry_ = fleet; }

  /// Shared fleet health registry (sessions publish on every step).
  BreakerRegistry& fleet_health() { return *registry_; }

  int active_sessions() const { return static_cast<int>(active_.size()); }
  int queued_sessions() const { return static_cast<int>(queue_.size()); }
  const ServeOptions& options() const { return options_; }

  /// Live ladder state (null when overload control is disabled). Sensor
  /// and ledger introspection for tests and the fleet layer.
  const OverloadController* overload_controller() const {
    return controller_.get();
  }

 private:
  /// One active session plus its scheduler-side state.
  struct Slot {
    std::unique_ptr<StreamSession> session;
    uint64_t stream_id = 0;
    double deficit_ms = 0.0;
    Status status = Status::OK();
    size_t frames = 0;
    uint64_t rounds_active = 0;
    uint64_t admitted_round = 0;
    /// This round's per-frame wall latency samples; touched only by the
    /// worker stepping this slot, so no locking. RoundOnce merges them
    /// into the pooled percentiles at round end and clears them.
    std::vector<double> latency_ms;
    /// This round's per-frame *simulated* cost deltas (same rules). Feed
    /// the per-class percentiles and the overload controller.
    std::vector<double> sim_ms;
    /// Wall time of this slot's step in the last round it was active; the
    /// round dispatches slots longest-first (infinity: never measured).
    double step_ms = std::numeric_limits<double>::infinity();
  };

  void Activate(std::unique_ptr<StreamSession> session, uint64_t id,
                uint64_t round, SessionCarry carry);
  /// Steps `slot` for one round (runs on a pool worker).
  void StepSlotRound(Slot& slot, uint64_t round);
  void Retire(Slot& slot);
  /// One DRR round over a non-idle scheduler (body of RunRound).
  void RoundOnce();

  ServeOptions options_;
  BreakerRegistry own_registry_;
  /// Points at own_registry_ unless UseSharedRegistry rerouted it.
  BreakerRegistry* registry_;
  uint64_t next_stream_id_ = 0;
  uint64_t round_ = 0;
  bool serving_ = false;
  bool finished_ = false;
  Stopwatch wall_;
  std::vector<std::unique_ptr<Slot>> active_;
  /// Indices into active_ in this round's dispatch order (reused).
  std::vector<size_t> dispatch_order_;
  struct Queued {
    std::unique_ptr<StreamSession> session;
    uint64_t stream_id = 0;
    SessionCarry carry;
  };
  std::vector<Queued> queue_;
  ServeStats stats_;
  /// Sessions retired since the last TakeRetired (completion order).
  std::vector<StreamReport> retired_;
  /// Every slot's wall latency samples, merged on retirement and
  /// extraction: bounded by the span of latencies seen, not by frames
  /// served.
  LatencyHistogram frame_latency_ms_;
  /// Pooled per-class simulated frame costs (merged on retirement and
  /// extraction) for the ClassStats percentiles, bounded like the wall
  /// samples. Bucketing is a pure function of the samples, so reruns and
  /// worker counts still agree exactly.
  LatencyHistogram class_sim_ms_[kNumPriorityClasses];
  /// Present only when options.overload.enabled.
  std::unique_ptr<OverloadController> controller_;

  /// Observability: node-track handle + cached ids (see ServeOptions::obs).
  ObsHandle node_obs_;
  struct ObsIds {
    MetricsRegistry::Id round_ms = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id frames = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id drr_credit_ms = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id drr_charge_ms = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id retired = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id slot_busy_ms = MetricsRegistry::kInvalidId;
    MetricsRegistry::Id step_capacity_ms = MetricsRegistry::kInvalidId;
  };
  ObsIds obs_ids_;
  /// Monotone wall timestamp base for this scheduler's round spans.
  double obs_wall_ledger_ms_ = 0.0;
};

}  // namespace vqe

#endif  // VQE_SERVE_SCHEDULER_H_

// Streaming query executor: runs a parsed query end-to-end — samples the
// named dataset, builds the detector pool, and processes the video frame by
// frame exactly as a deployment would: the strategy picks an ensemble, only
// those models run, their outputs are fused with WBF, the reference model
// estimates AP for the bandit update, and the WHERE predicate filters the
// frame.
//
// Unlike the experiment engine (core/engine.h), which replays precomputed
// evaluation matrices for measurement, this executor is genuinely online:
// nothing about a frame is computed unless the selected ensemble needs it.

#ifndef VQE_QUERY_EXECUTOR_H_
#define VQE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ensemble_id.h"
#include "core/scoring.h"
#include "obs/obs.h"
#include "query/ast.h"
#include "runtime/circuit_breaker.h"
#include "runtime/fault_injection.h"
#include "runtime/retry.h"
#include "snapshot/checkpoint.h"
#include "temporal/skip_policy.h"

namespace vqe {

/// Executor configuration (defaults mirror the experiment harness).
struct QueryEngineOptions {
  uint64_t seed = 1;
  /// Scale of the sampled dataset replica (1.0 = full Table 1/2 sizes).
  double scene_scale = 0.02;
  ScoringFunction sc;
  /// γ for MES-family strategies.
  size_t gamma = 10;
  /// λ for SW-MES.
  size_t sw_window = 450;
  /// Deadline/retry policy of every pool detector call (defaults: single
  /// attempt, no deadline — bit-identical to the pre-runtime path).
  /// Queries fuse with WBF and score by the evaluation contract of
  /// core/frame_eval.h, like every other pipeline path.
  RetryPolicy retry;
  /// Per-model circuit breakers on the frame clock; an open model is masked
  /// out of the strategy's candidate ensembles until it recovers.
  CircuitBreakerOptions breaker;
  /// When non-empty, must be index-aligned with the resolved pool; each
  /// detector is wrapped with its FaultScript (the reference model never
  /// is). Used to rehearse outages end-to-end through a live query.
  std::vector<FaultScript> fault_scripts;
  /// Crash-safe checkpointing of the whole query run (strategy state,
  /// per-model circuit breakers, tracker, output accumulators, cursor).
  /// Resumed queries produce bit-identical output (wall_seconds aside).
  CheckpointPolicy checkpoint;
  /// Temporal-coherence fast path: skipped frames are answered from
  /// tracker propagation and charge only simulated tracker time; the
  /// strategy/breaker iteration clock ticks only on detect frames. Default
  /// OFF — queries are then bit-identical to the pre-skip executor. When
  /// enabled alongside a TRACKS() predicate the gate's tracker doubles as
  /// the predicate tracker (exactly one tracker per run).
  SkipOptions skip;
  /// Observability sink. Disabled by default: no metrics, no tracing, no
  /// allocations in the frame loop, output bit-identical to a build that
  /// never heard of observability. When enabled the executor records a
  /// simulated-domain span and frame-cost histogram sample per frame on
  /// the handle's track, and a query that completes publishes its
  /// QueryOutput totals to the `vqe_query_*` counters once (an aborted
  /// invocation publishes none; a resumed one publishes its whole
  /// totals). Never serialized into checkpoints and absent from the
  /// resume identity fingerprint.
  ObsHandle obs;

  Status Validate() const;
};

/// Result of executing one query.
struct QueryOutput {
  /// frameIDs matching the WHERE clause, ascending.
  std::vector<int64_t> frame_ids;
  size_t frames_processed = 0;
  size_t frames_matched = 0;
  /// Simulated inference cost charged (Eq. 12/14), ms.
  double charged_cost_ms = 0.0;
  /// Simulated reference-model cost, ms.
  double reference_cost_ms = 0.0;
  /// Real wall-clock of the whole execution, seconds.
  double wall_seconds = 0.0;
  /// Ensemble selection counts, indexed by mask.
  std::vector<uint64_t> selection_counts;
  /// Pool model names, index-aligned with mask bits.
  std::vector<std::string> model_names;
  /// Frames completed on a strict sub-mask of the selection because some
  /// selected member failed (retries exhausted or breaker open).
  size_t fallback_frames = 0;
  /// Frames where every selected member failed: no detections, no bandit
  /// update, and the WHERE predicate is not evaluated.
  size_t failed_frames = 0;
  /// Simulated time lost to faults (error latency, failed retries, backoff).
  double fault_ms = 0.0;
  /// Per-model failed calls (retries exhausted or breaker short-circuit),
  /// index-aligned with model_names.
  std::vector<uint64_t> model_failures;
  /// Frames answered from tracker propagation instead of detector
  /// inference (counted inside frames_processed, never selection_counts).
  size_t skipped_frames = 0;
  /// Simulated tracker time charged by the temporal fast path, ms
  /// (already included in charged_cost_ms).
  double tracker_ms = 0.0;

  /// What checkpointing did during THIS invocation (never serialized into
  /// snapshots — wall-clock and resume bookkeeping legitimately differ
  /// between a resumed and an uninterrupted run).
  struct CheckpointReport {
    bool resumed = false;
    /// Frame-clock iteration this invocation resumed at.
    size_t resumed_from_iteration = 0;
    uint64_t snapshots_written = 0;
    /// Corrupt/truncated generations skipped while locating the newest
    /// good one.
    int generations_rejected = 0;
    /// Real wall-clock spent serializing + durably writing snapshots, ms.
    double checkpoint_write_ms = 0.0;
  };
  CheckpointReport checkpoint;
};

/// Parses and executes a query string.
Result<QueryOutput> ExecuteQuery(const std::string& sql,
                                 const QueryEngineOptions& options = {});

/// Executes an already-parsed query.
Result<QueryOutput> ExecuteQuery(const Query& query,
                                 const QueryEngineOptions& options = {});

}  // namespace vqe

#endif  // VQE_QUERY_EXECUTOR_H_

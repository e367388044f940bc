// The ingestion engine: drives a selection strategy over a frame matrix,
// enforcing the information protocol (estimated rewards only for subsets of
// the selected ensemble), charging simulated time per Equations (1)/(12)/
// (14), enforcing the TCVI budget (Alg. 2), and recording every measurement
// of §5.5: s_sum, ā, ĉ, regret, selection distribution, time breakdown and
// the cumulative-cost curve LRBP consumes.

#ifndef VQE_CORE_ENGINE_H_
#define VQE_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "core/evaluation_source.h"
#include "obs/obs.h"
#include "core/frame_matrix.h"
#include "core/scoring.h"
#include "core/strategy.h"
#include "runtime/circuit_breaker.h"
#include "snapshot/checkpoint.h"
#include "snapshot/identity.h"
#include "temporal/gate.h"

namespace vqe {

/// Engine configuration for one run.
struct EngineOptions {
  ScoringFunction sc;
  /// TCVI time budget B in simulated ms; 0 means unrestricted (TUVI).
  /// Per Alg. 2, a frame is processed whenever C <= B still holds at the
  /// top of the loop, so consumption may overshoot by one frame.
  double budget_ms = 0.0;
  /// Seed forwarded to randomized strategies.
  uint64_t strategy_seed = 0;
  /// Record the (t, cumulative cost) curve for LRBP.
  bool record_cost_curve = false;
  /// Compute the per-frame regret baseline max_S r_{S*|v} (Eq. 17). The
  /// baseline reads the true score of *every* mask, so on a lazy source
  /// it forces full-lattice materialization (the engine falls back to an
  /// exhaustive scan when the source offers no Pareto frontier). Disable
  /// it to keep a lazy run's cost proportional to the selected subset
  /// lattices; RunResult::regret_available records the choice.
  bool compute_regret = true;
  /// Per-model circuit breakers over the run's frame clock: models whose
  /// selected-member calls keep failing are masked out of the strategy's
  /// candidate arms (SelectionStrategy::SetEligibleModels) until the
  /// breaker re-admits probes. Breaker trajectories depend only on the
  /// deterministic per-frame call outcomes, so runs stay bit-identical
  /// across worker counts and backends.
  CircuitBreakerOptions breaker;
  /// Crash-safe checkpointing: when enabled, the run writes an atomic,
  /// CRC-protected snapshot of all resumable state every
  /// `checkpoint.every_frames` frames and, on start, resumes from the
  /// newest good generation found in `checkpoint.directory`. Resumed runs
  /// are bit-identical to uninterrupted ones (wall-clock fields aside).
  CheckpointPolicy checkpoint;
  /// Temporal-coherence fast path: frames the gate deems redundant are
  /// answered by coasting confirmed tracks instead of running detectors,
  /// charging only SimulatedTrackerCostMs to the ledger. Requires an
  /// evaluation source with SupportsPropagation() (a LazyFrameEvaluator)
  /// when enabled. The
  /// default (!skip.enabled()) constructs no gate and leaves every code
  /// path byte-identical to a skip-free build.
  SkipOptions skip;
  /// Observability sink. Disabled by default: every instrumentation site
  /// is behind one `enabled()` branch and the frame loop performs zero
  /// extra allocations, so a run without obs is bit-identical to a build
  /// that never heard of it. When enabled, instrumentation only *reads*
  /// run state — observation never perturbs selection. Each stepped frame
  /// records its spans and one frame-cost histogram sample; the
  /// `vqe_engine_*` counters are published once, from the finished
  /// RunResult, by Finish (a run that aborts publishes none), so they are
  /// deterministic across worker and shard counts. Like SetDegradation,
  /// the handle is a property of the process, not of the stream: it is
  /// absent from the identity fingerprint and from snapshots.
  ObsHandle obs;

  Status Validate() const;
};

/// Simulated/measured time decomposition of a run (Figure 13).
struct TimeBreakdown {
  /// Simulated camera-detector inference, ms.
  double detector_ms = 0.0;
  /// Simulated reference (LiDAR) inference, ms.
  double reference_ms = 0.0;
  /// Simulated box-fusion overhead c^e, ms.
  double ensembling_ms = 0.0;
  /// Simulated time wasted on faults: failed attempts, retry backoff,
  /// abandoned-deadline waits. Split out of detector_ms so degraded runs
  /// show where the budget went.
  double fault_ms = 0.0;
  /// Simulated tracker time of the temporal fast path: coasting tracks
  /// through skipped frames plus ingesting detect frames into the gate's
  /// tracker. Zero whenever skipping is disabled.
  double tracker_ms = 0.0;
  /// Real wall-clock spent in strategy Select/Observe, ms — the "other
  /// optimization components" share. It covers this invocation only:
  /// snapshots carry no wall time, so a resumed or migrated run counts
  /// from its restore, and no bit-identity check reads this field.
  double algorithm_ms = 0.0;

  /// Simulated frame-clock time only (detector + reference + ensembling +
  /// fault + tracker). This is the component that is additive across concurrent
  /// streams: when N sessions run in parallel, Σ SimulatedMs() is the
  /// total per-stream work regardless of overlap. algorithm_ms is real
  /// wall-clock — overlapping runs spend it concurrently, so summing it
  /// across sessions double-counts; report it (and any scheduler wall
  /// time) separately. ServeStats and StrategyOutcome keep the two
  /// ledgers apart for exactly this reason.
  double SimulatedMs() const {
    return detector_ms + reference_ms + ensembling_ms + fault_ms +
           tracker_ms;
  }

  /// SimulatedMs() + algorithm_ms — meaningful for ONE run in isolation
  /// (the Figure 13 single-run breakdown), where the wall-clock share is
  /// serial with the simulated work by construction. Do not sum across
  /// concurrent runs; use SimulatedMs() plus a separately measured wall
  /// clock instead.
  double TotalMs() const { return SimulatedMs() + algorithm_ms; }
};

/// All measurements from one run of one strategy on one matrix.
struct RunResult {
  /// Σ true scores of the selected ensembles (s_sum of §5.5).
  double s_sum = 0.0;
  /// Average true AP of the selected ensembles (ā of §5.5).
  double avg_true_ap = 0.0;
  /// Average normalized cost ĉ of the selected ensembles.
  double avg_norm_cost = 0.0;
  /// Frames processed (|V| for TUVI; |V_B| for TCVI).
  size_t frames_processed = 0;
  /// Σ (r_{S*|v} − r_{Ĝ|v}) over processed frames (Eq. 17). Zero and
  /// meaningless when !regret_available.
  double regret = 0.0;
  /// False when the run skipped the regret baseline
  /// (EngineOptions::compute_regret was off).
  bool regret_available = true;
  /// Total budget-accountable simulated cost C (Eq. 12/14), ms.
  double charged_cost_ms = 0.0;
  TimeBreakdown breakdown;
  /// Number of times each ensemble was selected, indexed by mask.
  std::vector<uint64_t> selection_counts;
  /// (iteration, cumulative charged cost) pairs when record_cost_curve.
  std::vector<std::pair<size_t, double>> cost_curve;

  /// Per-model health over the run (fault-tolerance report).
  struct ModelAvailability {
    /// Frames where the strategy's selected mask included this model.
    uint64_t frames_selected = 0;
    /// Of those, frames where the model's call failed after retries.
    uint64_t frames_failed = 0;
    /// Times this model's circuit breaker tripped open.
    uint64_t breaker_opens = 0;
    /// Wasted time charged to this model (failed attempts + backoff), ms.
    double fault_ms = 0.0;
  };
  /// Indexed by model; size num_models.
  std::vector<ModelAvailability> model_availability;
  /// Frames that completed on a strict sub-mask of the selection because
  /// some selected member failed.
  uint64_t fallback_frames = 0;
  /// Frames where *every* selected member failed — processed (time is
  /// charged) but with no output and no bandit observation.
  uint64_t failed_frames = 0;

  /// Temporal fast-path accounting (all zero when skipping is disabled).
  /// Skipped frames count toward frames_processed but not toward
  /// selection_counts — no ensemble was selected on them.
  struct SkipStats {
    /// Frames answered from tracker propagation.
    uint64_t skipped_frames = 0;
    /// Frames that ran the detect path while the gate was enabled.
    uint64_t detect_frames = 0;
    /// Detect frames forced while skips were still planned (scene-context
    /// change, or no propagatable tracks).
    uint64_t forced_detects = 0;
    /// Σ true AP of propagated outputs over skipped frames — divide by
    /// skipped_frames for the accuracy the fast path actually delivered.
    double propagated_ap_sum = 0.0;
  };
  SkipStats skip;

  /// What checkpointing did during THIS invocation (never serialized into
  /// snapshots — it describes the process, not the run, and wall-clock
  /// fields here legitimately differ between a resumed and an
  /// uninterrupted run).
  struct CheckpointReport {
    /// True when this invocation started from a loaded snapshot.
    bool resumed = false;
    /// First frame processed by this invocation when resumed.
    size_t resumed_from_frame = 0;
    /// Snapshot generations written by this invocation.
    uint64_t snapshots_written = 0;
    /// Corrupt/truncated generations skipped while locating the newest
    /// good one (the fallback path).
    int generations_rejected = 0;
    /// Real wall-clock spent serializing + durably writing snapshots, ms.
    double checkpoint_write_ms = 0.0;
  };
  CheckpointReport checkpoint;
};

/// One strategy run, exposed one frame at a time. This is the loop inside
/// RunStrategy with the iteration inverted: Create() performs validation,
/// BeginVideo and (when configured) checkpoint resume; each StepFrame()
/// call processes exactly the next frame — selection, cost charging,
/// subset-lattice evaluation, bandit feedback, measurements, breaker
/// bookkeeping, checkpoint writes and crash injection — and Finish()
/// finalizes the averages and yields the RunResult.
///
/// The serving layer's StreamScheduler drives many EngineRuns interleaved
/// over one process; because a run's state is private and each frame is a
/// deterministic function of the run's own history, any interleaving of
/// StepFrame calls across runs leaves every run bit-identical to its solo
/// RunStrategy execution. RunStrategy itself is implemented on top of this
/// class (Create → StepFrame until done → Finish), so there is exactly one
/// engine loop body in the codebase.
///
/// Not thread-safe: a given EngineRun must be stepped by one thread at a
/// time (distinct runs are independent). `source` and `strategy` must
/// outlive the run; strategies holding the OracleView pointer may use it
/// only while the run is alive.
class EngineRun {
 public:
  static Result<std::unique_ptr<EngineRun>> Create(
      EvaluationSource& source, SelectionStrategy* strategy,
      const EngineOptions& options);

  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  /// True once the run has no more frames to process: the video is
  /// exhausted, the TCVI budget is spent (Alg. 2's `C <= B` guard), or
  /// Finish() was called. StepFrame on a done run is FailedPrecondition.
  bool done() const;

  /// Next frame StepFrame() will process (== frames consumed so far,
  /// including frames restored from a checkpoint).
  size_t next_frame() const { return next_frame_; }
  size_t num_frames() const { return num_frames_; }

  /// Live accumulators. Averages (avg_true_ap, avg_norm_cost) and
  /// breakdown.algorithm_ms are finalized only by Finish(); everything
  /// else is current as of the last StepFrame. Invalid after Finish().
  const RunResult& result() const { return result_; }

  /// Simulated charged cost so far — the scheduler's deficit currency.
  double charged_cost_ms() const { return result_.charged_cost_ms; }

  /// Processes exactly one frame. Returns Aborted under crash injection,
  /// FailedPrecondition when done(), or any checkpoint-write error.
  Status StepFrame();

  /// Dynamic degradation overlay from the serving layer's overload
  /// controller. `skip_boost` extends every episode the temporal gate
  /// plans from here on (no-op on runs without a gate);
  /// `model_mask` restricts the strategy's eligible models to
  /// mask ∩ breaker-healthy — ignored when the intersection is empty (the
  /// run never selects nothing) or when the mask is 0 (unrestricted).
  /// The overlay is a property of the serving NODE, not of the stream: it
  /// is deliberately absent from the identity fingerprint and from the
  /// snapshot sections, and a migration target's own controller re-applies
  /// its level on the next round. (The gate's boost does travel inside the
  /// temporal section as dynamic state, so boosted skip counters restore
  /// within bounds.) SetDegradation(0, 0) — the controller-disabled state —
  /// leaves every code path byte-identical to a build without this hook.
  void SetDegradation(int skip_boost, EnsembleId model_mask);

  /// Rebinds the observability sink (serving layer: per-stream track
  /// attribution via ObsHandle::WithStream). Same contract as the
  /// degradation overlay: a node property, never fingerprinted, never
  /// snapshotted, and SetObs({}) restores the exact disabled path.
  /// Registers the frame-cost histogram here (locking, may allocate), so
  /// the per-frame observation path stays lock- and allocation-free.
  void SetObs(const ObsHandle& obs);

  /// Serializes the complete resumable state of the live run into the
  /// snapshot wire format (sections in core/engine_snapshot.h, identity
  /// included) WITHOUT touching disk. Checkpoint writes persist exactly
  /// these bytes; the live-migration path exports a mid-video session on
  /// one scheduler shard and implants the bytes on another. Callable any
  /// time between Create and Finish; FailedPrecondition after Finish.
  Result<std::vector<uint8_t>> ExportSnapshot() const;

  /// Overlays a parsed, CRC-valid snapshot onto this run; checkpoint
  /// resume loads through it as well. The snapshot's identity must match
  /// this run's configuration (FailedPrecondition naming the first
  /// differing field otherwise: the payload belongs to a different stream
  /// or to an incompatible build) and it is checked BEFORE any run state
  /// is mutated, so a refused payload leaves the run exactly as it was.
  /// Structural damage inside a CRC-valid section returns DataLoss.
  /// Callable only before this invocation has stepped any frame (a
  /// migration target is always a freshly created run).
  Status RestoreFromSnapshot(const SnapshotReader& snapshot);

  /// Finalizes averages and per-model breaker counters, publishes the
  /// RunResult's totals to the obs registry (when one is bound) and
  /// returns the RunResult. Callable once; the run is done() afterwards.
  Result<RunResult> Finish();

 private:
  EngineRun(EvaluationSource& source, SelectionStrategy* strategy,
            const EngineOptions& options);

  /// BeginVideo, accumulator setup, identity fingerprint and checkpoint
  /// resume (the part of RunStrategy that precedes the frame loop).
  Status Init();

  /// The skip path of StepFrame: propagate tracks, score and charge the
  /// frame, then run the shared epilogue.
  Status StepSkippedFrame(size_t t);

  /// Regret baseline max_S r_{S*|v} for frame t (frontier scan when the
  /// source caches one, exhaustive otherwise).
  double BestTrueScore(size_t t, double inv_max);

  /// Checkpoint write + crash injection shared by both frame paths.
  /// `t` is the frame just processed.
  Status FrameEpilogue(size_t t);

  EvaluationSource* source_;
  SelectionStrategy* strategy_;
  EngineOptions options_;
  uint32_t num_masks_;
  size_t num_frames_;
  int m_;
  EnsembleId full_;
  OracleView oracle_;

  TimeAccumulator algo_time_;
  RunResult result_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<double> est_score_;
  std::vector<double> norm_cost_;

  /// This run's configuration as snapshot identity fields (engine.meta);
  /// written once by Init, compared against every snapshot restored.
  IdentityWriter identity_;
  size_t next_frame_ = 0;
  size_t frames_this_invocation_ = 0;
  uint64_t next_generation_ = 1;
  std::unique_ptr<CheckpointManager> ckpt_;
  bool finished_ = false;

  /// Temporal skip gate; null unless options_.skip.enabled(), in which
  /// case every frame consults it exactly once.
  std::unique_ptr<TemporalGate> gate_;
  /// Degradation overlay mask (0 = unrestricted); see SetDegradation.
  EnsembleId degrade_mask_ = 0;
  /// max_S c_{S|v} of the last detect frame: the cost normalizer a
  /// skipped frame uses. Reading the skipped frame's own normalizer would
  /// materialize it on a lazy source and defeat the skip.
  double last_max_cost_ms_ = 0.0;

  /// Observability sink (disabled by default; see SetObs). The histogram
  /// id is registered once per SetObs so the frame loop never hashes a
  /// metric name.
  ObsHandle obs_;
  struct ObsIds {
    MetricsRegistry::Id frame_cost_hist = MetricsRegistry::kInvalidId;
  };
  ObsIds obs_ids_;
  /// Cumulative instrumented wall time (select/observe/checkpoint): the
  /// monotone timestamp ledger for this run's wall-clock trace track.
  double wall_ledger_ms_ = 0.0;
  /// Reused empty list for gate ingest on fully-failed frames.
  DetectionList no_detections_;
};

/// Runs `strategy` over an evaluation source — the eager matrix view or a
/// LazyFrameEvaluator, which only pays for the cells the run touches. The
/// strategy is reset via BeginVideo.
Result<RunResult> RunStrategy(EvaluationSource& source,
                              SelectionStrategy* strategy,
                              const EngineOptions& options);

/// Convenience overload over an eagerly built matrix.
Result<RunResult> RunStrategy(const FrameMatrix& matrix,
                              SelectionStrategy* strategy,
                              const EngineOptions& options);

}  // namespace vqe

#endif  // VQE_CORE_ENGINE_H_

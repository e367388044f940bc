// Shared per-frame evaluation kernel: runs every detector and the
// reference model on one frame, caches their outputs and the per-class
// ground-truth indexes, and evaluates any ensemble mask on demand, fused
// with WBF from the frame's presorted SoA store. Both the eager
// BuildFrameMatrix (which materializes all 2^m − 1 masks) and the
// LazyFrameEvaluator (which materializes only what a strategy touches)
// run their mask evaluations through this one code path, so lazy and eager
// results are bit-identical *by construction*, not by parallel maintenance
// of two arithmetic pipelines. A context is loaded frame after frame in
// place (Load), so both keep one per thread rather than building one per
// frame.

#ifndef VQE_CORE_FRAME_EVAL_H_
#define VQE_CORE_FRAME_EVAL_H_

#include <vector>

#include "core/ensemble_id.h"
#include "core/frame_matrix.h"
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/wbf.h"
#include "models/model_zoo.h"
#include "sim/video.h"

namespace vqe {

// The evaluation contract below is the single definition shared by matrix
// construction, the lazy evaluator, and the online query executor.

/// Simulated box-fusion overhead c^e: a fixed dispatch cost plus a per-box
/// term. Kept ≪ any model's inference cost, per the paper's assumption.
inline double SimulatedFusionOverheadMs(size_t num_input_boxes) {
  return 0.01 + 0.002 * static_cast<double>(num_input_boxes);
}

/// Reference detections below this confidence are dropped before they
/// stand in as pseudo-ground truth for est_ap (filters LiDAR clutter).
inline constexpr double kReferenceMinConfidence = 0.5;

/// One mask's evaluation on one frame — the ⟨est_ap, true_ap, cost,
/// fusion_overhead⟩ cell of the frame matrix.
struct MaskEvaluation {
  /// AP of the fused output vs. the reference model (what MES observes).
  double est_ap = 0.0;
  /// AP vs. ground truth (measurement/oracle only). NaN in an
  /// estimate-only cell (FrameEvalContext::Evaluate without true AP,
  /// EvaluationSource::EvalEstimate), whose readers never look at it.
  double true_ap = 0.0;
  /// Full ensemble cost per Eq. (1), ms.
  double cost_ms = 0.0;
  /// Fusion-only overhead c^e_{S|v}, ms.
  double fusion_overhead_ms = 0.0;
};

/// All per-frame state the mask loop reuses: cached per-model detections
/// and costs, the reference pseudo-ground-truth index, the true
/// ground-truth index and the frame's SoA store, which WBF (the pipeline's
/// fusion method) fuses every mask from.
///
/// One context serves many frames: Load re-targets it and reuses every
/// buffer, so a warmed context allocates nothing per frame beyond the
/// lists the detectors and the reference model return. It is neither
/// copyable nor movable — the SoA store points into its own model lists.
///
/// Not thread-safe: Load, Evaluate and Fuse reuse its buffers. Parallel
/// callers keep one context per worker (frames are independent pure
/// functions of (frame, trial_seed), which is what makes the parallel
/// eager build bit-identical for any worker count).
class FrameEvalContext {
 public:
  /// A context with no frame loaded. `pool` and `options` must outlive
  /// the context.
  FrameEvalContext(const DetectorPool& pool, uint64_t trial_seed,
                   const MatrixOptions& options);

  /// A context with `frame` loaded.
  FrameEvalContext(const VideoFrame& frame, const DetectorPool& pool,
                   uint64_t trial_seed, const MatrixOptions& options)
      : FrameEvalContext(pool, trial_seed, options) {
    Load(frame);
  }

  FrameEvalContext(const FrameEvalContext&) = delete;
  FrameEvalContext& operator=(const FrameEvalContext&) = delete;

  /// Runs all m detectors and the reference model on `frame` and rebuilds
  /// every per-frame structure in place. Everything read afterwards is
  /// exactly what a fresh context over `frame` would hold.
  void Load(const VideoFrame& frame);

  int num_models() const { return static_cast<int>(model_out_.size()); }
  const std::vector<double>& model_cost_ms() const { return model_cost_ms_; }
  double ref_cost_ms() const { return ref_cost_ms_; }

  /// Models whose call succeeded on this frame (after the retry policy in
  /// MatrixOptions ran its course). Full when nothing failed.
  EnsembleId available_mask() const { return available_mask_; }
  /// Per-model wasted time (failed attempts + backoff); part of
  /// model_cost_ms, split out so callers can report fault time separately.
  const std::vector<double>& model_fault_ms() const { return model_fault_ms_; }
  bool model_ok(int i) const {
    return model_ok_[static_cast<size_t>(i)] != 0;
  }

  /// c_{M|v} of the full pool: Σ over all models (ascending index) plus
  /// the fusion overhead of every cached box. Bit-identical to
  /// Evaluate(FullEnsemble(m)).cost_ms without fusing anything, and equal
  /// to max_S c_{S|v}: every accumulator folds non-negative terms in the
  /// same ascending-index order, and IEEE round-to-nearest folds of
  /// non-negative terms are monotone under term inclusion, so no subset's
  /// rounded sum can exceed the full pool's.
  double FullEnsembleCostMs() const;

  /// Fuses and scores one mask from the cached outputs, class-major: WBF
  /// hands each fused class straight to the mean-AP accumulators
  /// (WbfFusion::FuseByClass, ClassMajorMeanAp), so no fused list is
  /// assembled, globally sorted or re-filtered per class. With
  /// `with_true_ap` false only est_ap is scored (the ground-truth matching
  /// is skipped) and true_ap is NaN; est_ap, cost_ms and
  /// fusion_overhead_ms are bit-identical either way.
  ///
  /// Steady-state allocation-free: fusion/scoring scratch lives in the
  /// calling thread's FrameArena.
  MaskEvaluation Evaluate(EnsembleId mask, bool with_true_ap = true);

  /// Fuses one mask into `*out` (cleared first, capacity kept) exactly as
  /// WbfFusion::FuseInto lists it, scoring nothing — for callers that
  /// need the boxes (the skip gate's tracker ingest).
  void Fuse(EnsembleId mask, DetectionList* out);

  /// The frame's SoA detection store, rebuilt on every Load: its
  /// presorted class blocks feed all mask fusions.
  const FrameSoA& soa() const { return soa_; }

 private:
  const DetectorPool* pool_;
  uint64_t trial_seed_;
  const MatrixOptions* options_;
  /// The pipeline's one fusion method, with default options.
  WbfFusion fusion_;
  std::vector<DetectionList> model_out_;
  std::vector<double> model_cost_ms_;
  std::vector<double> model_fault_ms_;
  std::vector<uint8_t> model_ok_;
  EnsembleId available_mask_ = 0;
  double ref_cost_ms_ = 0.0;
  /// The reference model's boxes as pseudo-ground truth (Load scratch).
  GroundTruthList ref_gt_;
  GroundTruthIndex ref_index_;
  GroundTruthIndex gt_index_;
  FrameSoA soa_;
  std::vector<const DetectionList*> inputs_;  // scratch for GatherInputs

  /// Points inputs_ at `mask`'s member outputs (ascending model index) and
  /// returns their box count, with their summed cost in `*model_cost`.
  size_t GatherInputs(EnsembleId mask, double* model_cost);
};

}  // namespace vqe

#endif  // VQE_CORE_FRAME_EVAL_H_

// Frame evaluation matrix: for every frame of a sampled video and every
// candidate ensemble, the estimated AP (vs. the reference model), the true
// AP (vs. ground truth — used only for measurement/oracles, never shown to
// the online algorithms), and the simulated costs of Equation (1).
//
// Building the matrix materializes each model's detections once per frame
// and fuses every ensemble from the cached outputs with WBF, the paper's
// fusion method — exactly the reuse MES exploits in Alg. 1 lines 9–10 — so
// the per-ensemble *charged* costs are the paper's:
// c_{S|v} = Σ_{M∈S} c_{M|v} + c^e_{S|v}.

#ifndef VQE_CORE_FRAME_MATRIX_H_
#define VQE_CORE_FRAME_MATRIX_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/ensemble_id.h"
#include "models/model_zoo.h"
#include "runtime/retry.h"
#include "sim/video.h"

namespace vqe {

/// Options for matrix construction. What a cell scores is fixed: AP at
/// kApIouThreshold (detection/ap.h) against the reference boxes at or
/// above kReferenceMinConfidence (core/frame_eval.h).
struct MatrixOptions {
  /// Worker threads for frame-level parallelism. 0 = share the process
  /// pool (degrades to serial when nested inside trial-level parallelism);
  /// 1 = always serial; n = up to n workers. Frames are independent pure
  /// functions of (frame, trial_seed), so the matrix is bit-identical for
  /// every setting.
  int parallelism = 0;
  /// Deadline/retry policy for each detector call (runtime/retry.h). The
  /// default (one attempt, no deadline) reproduces the pre-runtime behavior
  /// bit-for-bit. Shared by the eager build, the lazy evaluator and the
  /// query executor, so every path sees identical call outcomes.
  RetryPolicy retry;

  Status Validate() const;
};

/// Per-frame evaluation of all ensembles. Vectors are indexed by
/// EnsembleId (index 0 unused).
struct FrameEvaluation {
  SceneContext context = SceneContext::kClear;
  /// AP of the fused output vs. the reference model (what MES observes).
  std::vector<double> est_ap;
  /// AP vs. ground truth (measurement/oracle only).
  std::vector<double> true_ap;
  /// Full ensemble cost per Eq. (1), ms.
  std::vector<double> cost_ms;
  /// Fusion-only overhead c^e_{S|v}, ms.
  std::vector<double> fusion_overhead_ms;
  /// Per-model inference cost c_{M_i|v}, ms (size m).
  std::vector<double> model_cost_ms;
  /// Reference-model inference cost on this frame, ms.
  double ref_cost_ms = 0.0;
  /// max_S c_{S|v}: the normalizer of ĉ (§5.4).
  double max_cost_ms = 0.0;
  /// Masks on this frame's ⟨true_ap, cost_ms⟩ Pareto frontier, ascending by
  /// cost. Every scoring function that rises with AP and falls with cost
  /// attains its per-frame maximum true score on one of these, so the
  /// engine's oracle scan is O(|frontier|) instead of O(2^m). Empty means
  /// "not cached: scan every mask" (hand-built matrices in tests).
  std::vector<EnsembleId> best_true_candidates;
  /// Models whose detector call succeeded on this frame (after retries); a
  /// selected mask degrades to `selected & available_mask` in the engine.
  EnsembleId available_mask = 0;
  /// Wasted per-model time: failed attempts + backoff (size m). Included in
  /// model_cost_ms; the engine splits it back out into
  /// TimeBreakdown.fault_ms.
  std::vector<double> model_fault_ms;
};

/// The whole evaluation matrix for one (video, trial) pair.
struct FrameMatrix {
  int num_models = 0;
  std::vector<std::string> model_names;
  std::vector<FrameEvaluation> frames;

  size_t size() const { return frames.size(); }
  uint32_t num_ensembles() const { return NumEnsembles(num_models); }
};

/// Builds the matrix by running every detector and the reference model on
/// every frame (detections drawn from the trial's noise streams) and fusing
/// every candidate ensemble from the cached per-model outputs.
Result<FrameMatrix> BuildFrameMatrix(const Video& video,
                                     const DetectorPool& pool,
                                     uint64_t trial_seed,
                                     const MatrixOptions& options = {});

/// Average true AP per ensemble over the matrix (ā_S of Figure 3).
std::vector<double> AverageTrueApPerEnsemble(const FrameMatrix& matrix);

/// Average normalized cost per ensemble over the matrix (ĉ_S of Figure 3).
std::vector<double> AverageNormCostPerEnsemble(const FrameMatrix& matrix);

}  // namespace vqe

#endif  // VQE_CORE_FRAME_MATRIX_H_

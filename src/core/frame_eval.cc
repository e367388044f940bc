#include "core/frame_eval.h"

#include <limits>
#include <utility>

#include "runtime/retry.h"

namespace vqe {

FrameEvalContext::FrameEvalContext(const DetectorPool& pool,
                                   uint64_t trial_seed,
                                   const MatrixOptions& options)
    : pool_(&pool), trial_seed_(trial_seed), options_(&options) {
  inputs_.reserve(pool.detectors.size());
}

void FrameEvalContext::Load(const VideoFrame& frame) {
  const DetectorPool& pool = *pool_;
  const size_t m = pool.detectors.size();
  model_out_.resize(m);
  model_cost_ms_.assign(m, 0.0);
  model_fault_ms_.assign(m, 0.0);
  model_ok_.assign(m, 0);
  available_mask_ = 0;
  // Materialize per-model outputs once (the reuse of Alg. 1 lines 9-10),
  // each call routed through the deadline/retry choke point. The default
  // policy on a plain detector reduces to Detect + InferenceCostMs in the
  // historical order, so no-fault runs stay bit-identical. A failed call
  // contributes an empty output and only wasted time — the mask lattice
  // over the surviving models stays fully evaluable.
  for (size_t i = 0; i < m; ++i) {
    DetectorCallOutcome call =
        DetectWithRetries(*pool.detectors[i], frame, trial_seed_,
                          options_->retry);
    model_cost_ms_[i] = call.charged_ms();
    model_fault_ms_[i] = call.fault_ms;
    if (call.ok()) {
      model_out_[i] = std::move(call.detections);
      model_ok_[i] = 1;
      available_mask_ |= Singleton(static_cast<int>(i));
    } else {
      model_out_[i].clear();
    }
  }
  const DetectionList ref_out = pool.reference->Detect(frame, trial_seed_);
  ref_cost_ms_ = pool.reference->InferenceCostMs(frame, trial_seed_);
  DetectionsAsGroundTruth(ref_out, kReferenceMinConfidence, &ref_gt_);

  // Per-frame invariants of the mask loop, rebuilt in place once and
  // reused across every evaluation.
  RebuildGroundTruthIndex(ref_gt_, &ref_index_);
  RebuildGroundTruthIndex(frame.objects, &gt_index_);
  // The store's per-class, presorted pools feed all 2^m − 1 mask fusions.
  soa_.Rebuild(model_out_);
}

double FrameEvalContext::FullEnsembleCostMs() const {
  size_t num_boxes = 0;
  double model_cost = 0.0;
  for (size_t i = 0; i < model_out_.size(); ++i) {
    num_boxes += model_out_[i].size();
    model_cost += model_cost_ms_[i];
  }
  return model_cost + SimulatedFusionOverheadMs(num_boxes);
}

size_t FrameEvalContext::GatherInputs(EnsembleId mask, double* model_cost) {
  inputs_.clear();
  size_t num_boxes = 0;
  *model_cost = 0.0;
  const int m = num_models();
  for (int i = 0; i < m; ++i) {
    if (!ContainsModel(mask, i)) continue;
    const DetectionList& out_i = model_out_[static_cast<size_t>(i)];
    inputs_.push_back(&out_i);
    num_boxes += out_i.size();
    *model_cost += model_cost_ms_[static_cast<size_t>(i)];
  }
  return num_boxes;
}

namespace {

/// Scores each fused class against the reference index and, when asked,
/// against ground truth.
class ScoreSink final : public ClassSink {
 public:
  ScoreSink(ClassMajorMeanAp* est, ClassMajorMeanAp* truth)
      : est_(est), truth_(truth) {}
  void AddClass(ClassId label, const Detection* dets, size_t n) override {
    est_->AddClass(label, dets, n);
    if (truth_ != nullptr) truth_->AddClass(label, dets, n);
  }

 private:
  ClassMajorMeanAp* est_;
  ClassMajorMeanAp* truth_;
};

}  // namespace

MaskEvaluation FrameEvalContext::Evaluate(EnsembleId mask, bool with_true_ap) {
  double model_cost = 0.0;
  const size_t num_boxes = GatherInputs(mask, &model_cost);
  ClassMajorMeanAp est(ref_index_);
  ClassMajorMeanAp truth(gt_index_);
  ScoreSink sink(&est, with_true_ap ? &truth : nullptr);
  fusion_.FuseByClass(DetectionListSpan(inputs_), &soa_, &sink);

  MaskEvaluation e;
  e.fusion_overhead_ms = SimulatedFusionOverheadMs(num_boxes);
  e.cost_ms = model_cost + e.fusion_overhead_ms;
  e.est_ap = est.Finish();
  e.true_ap = with_true_ap ? truth.Finish()
                           : std::numeric_limits<double>::quiet_NaN();
  return e;
}

void FrameEvalContext::Fuse(EnsembleId mask, DetectionList* out) {
  double model_cost = 0.0;
  GatherInputs(mask, &model_cost);
  fusion_.FuseInto(DetectionListSpan(inputs_), &soa_, out);
}

}  // namespace vqe

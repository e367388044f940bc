// Transparent timing wrappers around the modules' public interfaces. Each
// forwards every virtual to the wrapped object unchanged and only opens a
// span (and bumps a counter) around the call, so a run over wrapped
// objects must produce the same outputs as a run over the bare ones — the
// benchmark checks that digest for digest.

#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

#include <memory>
#include <string>

#include "core/evaluation_source.h"
#include "core/lazy_frame_evaluator.h"
#include "core/strategy.h"
#include "models/model_zoo.h"

namespace perfbench {

/// A pool whose detectors and reference model time every Detect call. The
/// detectors borrow `base`'s, which must outlive the returned pool; the
/// reference is a ReferenceDetector subclass with the same profile (its
/// noise streams are keyed by the profile name, so outputs match).
vqe::DetectorPool MakeTimedPool(const vqe::DetectorPool& base);

/// Wrapper around a LazyFrameEvaluator. Besides timing each call it reads
/// the evaluator's public counters (frames touched, cells materialized,
/// memo hits) before and after, and attributes the calls that first touch
/// a frame to Layer::kLazyFrame. Spans carry `request` (see ScopedSpan).
///
/// The eager MatrixEvaluationSource is deliberately not wrapped: its calls
/// are array reads cheaper than the timer, so timing them would measure
/// the timer.
class TimedSource final : public vqe::EvaluationSource {
 public:
  TimedSource(std::unique_ptr<vqe::LazyFrameEvaluator> inner,
              int64_t request);

  int num_models() const override { return inner_->num_models(); }
  size_t num_frames() const override { return inner_->num_frames(); }
  vqe::FrameStats Stats(size_t t) override;
  vqe::MaskEvaluation Eval(size_t t, vqe::EnsembleId mask) override;
  vqe::SceneContext PeekContext(size_t t) override {
    return inner_->PeekContext(t);
  }
  bool SupportsPropagation() const override {
    return inner_->SupportsPropagation();
  }
  vqe::Result<double> ScorePropagated(
      size_t t, const vqe::DetectionList& dets) override;
  const vqe::DetectionList* FusedOutput(size_t t,
                                        vqe::EnsembleId mask) override;
  const std::vector<vqe::EnsembleId>* TrueFrontier(size_t t) override {
    return inner_->TrueFrontier(t);
  }
  vqe::Status SaveState(vqe::ByteWriter& writer) const override {
    return inner_->SaveState(writer);
  }
  vqe::Status RestoreState(vqe::ByteReader& reader) override {
    return inner_->RestoreState(reader);
  }

 private:
  struct LazyCounts {
    uint64_t frames = 0, cells = 0, hits = 0;
  };
  LazyCounts Read() const;
  void Credit(const LazyCounts& before);

  std::unique_ptr<vqe::LazyFrameEvaluator> inner_;
  int64_t request_;
};

/// Strategy wrapper: times BeginVideo/Select (Layer::kSelect) and Observe
/// (Layer::kObserve) and counts Select calls.
class TimedStrategy final : public vqe::SelectionStrategy {
 public:
  TimedStrategy(std::unique_ptr<vqe::SelectionStrategy> inner,
                int64_t request)
      : inner_(std::move(inner)), request_(request) {}

  const std::string& name() const override { return inner_->name(); }
  void BeginVideo(const vqe::StrategyContext& ctx) override;
  vqe::EnsembleId Select(size_t t) override;
  void Observe(const vqe::FrameFeedback& feedback) override;
  bool UsesReferenceModel() const override {
    return inner_->UsesReferenceModel();
  }
  bool needs_full_lattice() const override {
    return inner_->needs_full_lattice();
  }
  void SetEligibleModels(vqe::EnsembleId eligible) override {
    inner_->SetEligibleModels(eligible);
  }
  vqe::Status SaveState(vqe::ByteWriter& writer) const override {
    return inner_->SaveState(writer);
  }
  vqe::Status RestoreState(vqe::ByteReader& reader) override {
    return inner_->RestoreState(reader);
  }

 private:
  std::unique_ptr<vqe::SelectionStrategy> inner_;
  int64_t request_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_

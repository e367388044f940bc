#include "wrappers.h"

#include "spans.h"

namespace perfbench {

namespace {

class TimedDetector final : public vqe::ObjectDetector {
 public:
  explicit TimedDetector(const vqe::ObjectDetector* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  vqe::DetectionList Detect(const vqe::VideoFrame& frame,
                            uint64_t trial_seed) const override {
    ScopedSpan span(Layer::kDetect);
    vqe::DetectionList out = inner_->Detect(frame, trial_seed);
    Bump(Counter::kDetectCalls);
    Bump(Counter::kBoxes, out.size());
    return out;
  }
  double InferenceCostMs(const vqe::VideoFrame& frame,
                         uint64_t trial_seed) const override {
    return inner_->InferenceCostMs(frame, trial_seed);
  }
  uint64_t param_count() const override { return inner_->param_count(); }
  const std::string& structure_name() const override {
    return inner_->structure_name();
  }

 private:
  const vqe::ObjectDetector* inner_;
};

class TimedReference final : public vqe::ReferenceDetector {
 public:
  explicit TimedReference(const vqe::ReferenceProfile& profile)
      : vqe::ReferenceDetector(profile) {}

  vqe::DetectionList Detect(const vqe::VideoFrame& frame,
                            uint64_t trial_seed) const override {
    ScopedSpan span(Layer::kDetect);
    vqe::DetectionList out = vqe::ReferenceDetector::Detect(frame, trial_seed);
    Bump(Counter::kDetectCalls);
    Bump(Counter::kBoxes, out.size());
    return out;
  }
};

}  // namespace

vqe::DetectorPool MakeTimedPool(const vqe::DetectorPool& base) {
  vqe::DetectorPool pool;
  for (const auto& det : base.detectors) {
    pool.detectors.push_back(std::make_unique<TimedDetector>(det.get()));
  }
  pool.reference = std::make_unique<TimedReference>(base.reference->profile());
  return pool;
}

TimedSource::TimedSource(std::unique_ptr<vqe::LazyFrameEvaluator> inner,
                         int64_t request)
    : inner_(std::move(inner)), request_(request) {}

TimedSource::LazyCounts TimedSource::Read() const {
  return {inner_->frames_touched(), inner_->masks_materialized(),
          inner_->memo_hits()};
}

void TimedSource::Credit(const LazyCounts& before) {
  const LazyCounts after = Read();
  Bump(Counter::kLazyFrames, after.frames - before.frames);
  Bump(Counter::kLazyCells, after.cells - before.cells);
  Bump(Counter::kLazyMemoHits, after.hits - before.hits);
}

vqe::FrameStats TimedSource::Stats(size_t t) {
  // A first-touch Stats runs the frame's detectors; which layer the call
  // belongs to is known only once it returns.
  const LazyCounts before = Read();
  vqe::FrameStats out;
  {
    ScopedSpan span(Layer::kLazyStats, request_);
    out = inner_->Stats(t);
    if (inner_->frames_touched() != before.frames) {
      span.Relabel(Layer::kLazyFrame);
    }
  }
  Credit(before);
  return out;
}

vqe::MaskEvaluation TimedSource::Eval(size_t t, vqe::EnsembleId mask) {
  ScopedSpan span(Layer::kLazyCell, request_);
  const LazyCounts before = Read();
  const vqe::MaskEvaluation out = inner_->Eval(t, mask);
  Credit(before);
  return out;
}

vqe::Result<double> TimedSource::ScorePropagated(
    size_t t, const vqe::DetectionList& dets) {
  ScopedSpan span(Layer::kPropagate, request_);
  return inner_->ScorePropagated(t, dets);
}

const vqe::DetectionList* TimedSource::FusedOutput(size_t t,
                                                   vqe::EnsembleId mask) {
  ScopedSpan span(Layer::kPropagate, request_);
  const LazyCounts before = Read();
  const vqe::DetectionList* out = inner_->FusedOutput(t, mask);
  Credit(before);
  return out;
}

void TimedStrategy::BeginVideo(const vqe::StrategyContext& ctx) {
  ScopedSpan span(Layer::kSelect, request_);
  inner_->BeginVideo(ctx);
}

vqe::EnsembleId TimedStrategy::Select(size_t t) {
  ScopedSpan span(Layer::kSelect, request_);
  Bump(Counter::kSelectCalls);
  return inner_->Select(t);
}

void TimedStrategy::Observe(const vqe::FrameFeedback& feedback) {
  ScopedSpan span(Layer::kObserve, request_);
  inner_->Observe(feedback);
}

}  // namespace perfbench

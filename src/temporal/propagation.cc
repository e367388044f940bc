#include "temporal/propagation.h"

#include <algorithm>
#include <cmath>

#include "temporal/skip_policy.h"

namespace vqe {

TrackPropagator::TrackPropagator(const TrackerOptions& tracker_options,
                                 double confidence_decay)
    : tracker_(tracker_options), confidence_decay_(confidence_decay) {}

void TrackPropagator::Reset() {
  tracker_.Reset();
  propagated_.clear();
  coast_streak_ = 0;
  churn_ = 1.0;
  instability_ = 1.0;
  agreement_ = 0.0;
  last_detect_count_ = 0;
}

void TrackPropagator::ObserveDetections(const DetectionList& fused,
                                        int64_t frame_index) {
  // Record the one-step predictions of the currently-associated tracks
  // BEFORE the update: these are exactly the boxes a skipped frame
  // would have served, and exactly what Update() associates against, so
  // their IoU with the fresh boxes is the realized propagation error.
  pred_ids_.clear();
  pred_boxes_.clear();
  for (const Track& t : tracker_.tracks()) {
    if (!t.UpdatedThisFrame()) continue;
    pred_ids_.push_back(t.track_id);
    pred_boxes_.push_back(BBox{t.box.x1 + t.vx, t.box.y1 + t.vy,
                               t.box.x2 + t.vx, t.box.y2 + t.vy});
  }

  tracker_.Update(fused, frame_index);

  // Agreement: each recorded prediction scores the IoU against its
  // track's freshly-associated box, or 0 if the track went unmatched.
  if (pred_ids_.empty()) {
    agreement_ = fused.empty() ? 1.0 : 0.0;
  } else {
    double sum = 0.0;
    for (size_t i = 0; i < pred_ids_.size(); ++i) {
      for (const Track& t : tracker_.tracks()) {
        if (t.track_id != pred_ids_[i]) continue;
        if (t.UpdatedThisFrame()) sum += IoU(pred_boxes_[i], t.box);
        break;
      }
    }
    sum /= static_cast<double>(pred_ids_.size());
    agreement_ = std::clamp(sum, 0.0, 1.0);
  }

  // Churn: share of this round's association events that were births or
  // retirements rather than matches.
  const TrackerUpdateStats& s = tracker_.last_update_stats();
  const int events = s.births + s.retired + s.matched;
  churn_ = events > 0
               ? static_cast<double>(s.births + s.retired) /
                     static_cast<double>(events)
               : (fused.empty() ? 0.0 : 1.0);

  // Instability: mean per-frame displacement relative to box diagonal.
  // An object moving a third of its own diagonal per frame saturates the
  // signal — constant-velocity coasting degrades fast at that speed.
  double ratio_sum = 0.0;
  int live = 0;
  for (const Track& t : tracker_.tracks()) {
    const double diag = std::sqrt(t.box.width() * t.box.width() +
                                  t.box.height() * t.box.height());
    if (!(diag > 1e-9)) continue;
    const double speed = std::sqrt(t.vx * t.vx + t.vy * t.vy);
    ratio_sum += speed / diag;
    ++live;
  }
  instability_ =
      live > 0 ? std::clamp(3.0 * ratio_sum / static_cast<double>(live),
                            0.0, 1.0)
               : 0.0;

  last_detect_count_ = fused.size();
  coast_streak_ = 0;
}

const DetectionList& TrackPropagator::Propagate() {
  tracker_.CoastOne();
  ++coast_streak_;
  const double decay =
      std::pow(confidence_decay_, static_cast<double>(coast_streak_));
  propagated_.clear();
  for (const Track& t : tracker_.tracks()) {
    // Every track associated at the last detect frame propagates,
    // tentative ones included: the propagated list stands in for what the
    // detectors WOULD have output — the last fused frame coasted forward —
    // so filtering it to confirmed tracks would throw away recall the
    // detect frame actually had. (Confirmation filtering remains the
    // TRACKS() predicate's business.) Already-missed tracks stay out:
    // they are coasting on stale evidence the detectors contradicted.
    if (!t.UpdatedThisFrame()) continue;
    Detection d;
    d.box = t.box;
    d.confidence = t.confidence * decay;
    d.label = t.label;
    propagated_.push_back(d);
  }
  return propagated_;
}

bool TrackPropagator::CanPropagate() const {
  if (last_detect_count_ == 0) return true;
  for (const Track& t : tracker_.tracks()) {
    if (t.UpdatedThisFrame()) return true;
  }
  return false;
}

Status TrackPropagator::SaveState(ByteWriter& w) const {
  w.I64(coast_streak_);
  w.F64(churn_);
  w.F64(instability_);
  w.F64(agreement_);
  w.U64(last_detect_count_);
  return tracker_.SaveState(w);
}

Status TrackPropagator::RestoreState(ByteReader& r) {
  int64_t streak = 0;
  double churn = 0.0, instability = 0.0, agreement = 0.0;
  uint64_t last_count = 0;
  VQE_RETURN_NOT_OK(r.I64(&streak));
  VQE_RETURN_NOT_OK(r.F64(&churn));
  VQE_RETURN_NOT_OK(r.F64(&instability));
  VQE_RETURN_NOT_OK(r.F64(&agreement));
  VQE_RETURN_NOT_OK(r.U64(&last_count));
  // A streak never outlasts the longest episode a gate can plan.
  if (streak < 0 || streak > kMaxSkipBudget + kMaxSkipBoost) {
    return Status::DataLoss("coast streak out of range");
  }
  VQE_RETURN_NOT_OK(tracker_.RestoreState(r));
  coast_streak_ = static_cast<int>(streak);
  churn_ = churn;
  instability_ = instability;
  agreement_ = agreement;
  last_detect_count_ = last_count;
  propagated_.clear();
  return Status::OK();
}

}  // namespace vqe

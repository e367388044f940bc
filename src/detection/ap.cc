#include "detection/ap.h"

#include <algorithm>
#include <new>

#include "common/arena.h"

namespace vqe {

std::vector<PrPoint> PrecisionRecallCurve(
    const std::vector<DetectionMatch>& matches, size_t num_gt) {
  std::vector<PrPoint> curve;
  if (num_gt == 0) return curve;
  size_t tp = 0;
  size_t fp = 0;
  curve.reserve(matches.size());
  for (const auto& m : matches) {
    if (m.ignored) continue;
    if (m.is_tp) {
      ++tp;
    } else {
      ++fp;
    }
    PrPoint p;
    p.recall = static_cast<double>(tp) / static_cast<double>(num_gt);
    p.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
    curve.push_back(p);
  }
  return curve;
}

namespace {

// Precision envelope: for each curve point, the max precision at any
// recall >= that point's recall (standard monotone interpolation).
std::vector<PrPoint> MonotoneEnvelope(std::vector<PrPoint> curve) {
  for (size_t i = curve.size(); i-- > 1;) {
    curve[i - 1].precision = std::max(curve[i - 1].precision,
                                      curve[i].precision);
  }
  return curve;
}

// --- Arena twins of the PR pipeline -----------------------------------
//
// The scoring hot path (FrameMeanAp against a prebuilt index, thousands of
// calls per frame) runs the same arithmetic as the public vector-based
// functions but carves every transient from the calling thread's
// FrameArena. Each stage mirrors its vector twin statement by statement,
// so the results are bit-identical by construction.

// PrecisionRecallCurve over arena match records, into an arena curve.
struct ArenaCurve {
  PrPoint* points = nullptr;
  size_t size = 0;
};

ArenaCurve PrecisionRecallCurveArena(const DetectionMatch* matches,
                                     size_t num_matches, size_t num_gt,
                                     FrameArena& arena) {
  ArenaCurve curve;
  if (num_gt == 0) return curve;
  curve.points = arena.AllocateArray<PrPoint>(num_matches);
  size_t tp = 0;
  size_t fp = 0;
  for (size_t i = 0; i < num_matches; ++i) {
    const DetectionMatch& m = matches[i];
    if (m.ignored) continue;
    if (m.is_tp) {
      ++tp;
    } else {
      ++fp;
    }
    PrPoint* p = new (curve.points + curve.size++) PrPoint();
    p->recall = static_cast<double>(tp) / static_cast<double>(num_gt);
    p->precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  }
  return curve;
}

// IntegratePrCurve, with the monotone envelope applied in place (the
// vector twin's copy carries exactly these values).
double IntegratePrCurveArena(const ArenaCurve& curve) {
  PrPoint* env = curve.points;
  const size_t n = curve.size;
  for (size_t i = n; i-- > 1;) {
    env[i - 1].precision = std::max(env[i - 1].precision, env[i].precision);
  }
  double ap = 0.0;
  double prev_recall = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ap += (env[i].recall - prev_recall) * env[i].precision;
    prev_recall = env[i].recall;
  }
  return ap;
}

// SingleClassAp over a class-filtered arena run of detections.
double SingleClassApArena(const Detection* detections, size_t n,
                          const GroundTruthBox* ground_truth, size_t num_boxes,
                          FrameArena& arena) {
  size_t num_gt = 0;
  for (size_t g = 0; g < num_boxes; ++g) {
    if (!ground_truth[g].difficult) ++num_gt;
  }
  if (num_gt == 0) {
    // No evaluable objects of this class: perfect iff every detection is
    // ignorable (matched a difficult box) or absent.
    if (n == 0) return 1.0;
    ArenaScope scope(arena);
    const detail::ArenaMatchResult mr = detail::MatchDetectionsArena(
        detections, n, ground_truth, num_boxes, kApIouThreshold, arena);
    for (size_t i = 0; i < mr.size; ++i) {
      if (!mr.matches[i].ignored) return 0.0;
    }
    return 1.0;
  }
  if (n == 0) return 0.0;
  ArenaScope scope(arena);
  const detail::ArenaMatchResult mr = detail::MatchDetectionsArena(
      detections, n, ground_truth, num_boxes, kApIouThreshold, arena);
  const ArenaCurve curve =
      PrecisionRecallCurveArena(mr.matches, mr.size, mr.num_gt, arena);
  return IntegratePrCurveArena(curve);
}

}  // namespace

double IntegratePrCurve(const std::vector<PrPoint>& curve) {
  double ap = 0.0;
  double prev_recall = 0.0;
  for (const auto& p : MonotoneEnvelope(curve)) {
    ap += (p.recall - prev_recall) * p.precision;
    prev_recall = p.recall;
  }
  return ap;
}

double SingleClassAp(const DetectionList& detections,
                     const GroundTruthList& ground_truth) {
  size_t num_gt = 0;
  for (const auto& g : ground_truth) {
    if (!g.difficult) ++num_gt;
  }
  if (num_gt == 0) {
    // No evaluable objects of this class: perfect iff every detection is
    // ignorable (matched a difficult box) or absent.
    if (detections.empty()) return 1.0;
    const MatchResult mr =
        MatchDetections(detections, ground_truth, kApIouThreshold);
    for (const auto& m : mr.matches) {
      if (!m.ignored) return 0.0;
    }
    return 1.0;
  }
  if (detections.empty()) return 0.0;
  const MatchResult mr =
      MatchDetections(detections, ground_truth, kApIouThreshold);
  const auto curve = PrecisionRecallCurve(mr.matches, mr.num_gt);
  return IntegratePrCurve(curve);
}

void RebuildGroundTruthIndex(const GroundTruthList& ground_truth,
                             GroundTruthIndex* index) {
  // Count each class into its ascending-label range, then scatter the
  // boxes in input order: `end` serves as each range's fill cursor.
  auto& classes = index->classes;
  classes.clear();
  for (const auto& g : ground_truth) {
    auto it = std::lower_bound(
        classes.begin(), classes.end(), g.label,
        [](const GroundTruthIndex::ClassRange& r, ClassId l) {
          return r.label < l;
        });
    if (it == classes.end() || it->label != g.label) {
      it = classes.insert(it, GroundTruthIndex::ClassRange{});
      it->label = g.label;
    }
    ++it->end;
    if (!g.difficult) it->has_evaluable = true;
  }
  size_t begin = 0;
  for (auto& r : classes) {
    const size_t count = r.end;
    r.begin = begin;
    r.end = begin;
    begin += count;
  }
  index->boxes.resize(ground_truth.size());
  for (const auto& g : ground_truth) {
    auto it = std::lower_bound(
        classes.begin(), classes.end(), g.label,
        [](const GroundTruthIndex::ClassRange& r, ClassId l) {
          return r.label < l;
        });
    index->boxes[it->end++] = g;
  }
}

GroundTruthIndex BuildGroundTruthIndex(const GroundTruthList& ground_truth) {
  GroundTruthIndex index;
  RebuildGroundTruthIndex(ground_truth, &index);
  return index;
}

double FrameMeanAp(const DetectionList& detections,
                   const GroundTruthList& ground_truth) {
  return FrameMeanAp(detections, BuildGroundTruthIndex(ground_truth));
}

void ClassMajorMeanAp::SkipBelow(ClassId label) {
  const auto& classes = ground_truth_->classes;
  while (next_entry_ < classes.size() && classes[next_entry_].label < label) {
    if (classes[next_entry_].has_evaluable) ++num_classes_;
    ++next_entry_;
  }
}

void ClassMajorMeanAp::AddClass(ClassId label, const Detection* dets,
                                size_t n) {
  if (n == 0) return;
  SkipBelow(label);
  const GroundTruthBox* cls_gt = nullptr;
  size_t cls_gt_size = 0;
  const auto& classes = ground_truth_->classes;
  if (next_entry_ < classes.size() && classes[next_entry_].label == label) {
    const GroundTruthIndex::ClassRange& r = classes[next_entry_++];
    cls_gt = ground_truth_->boxes.data() + r.begin;
    cls_gt_size = r.end - r.begin;
  }
  sum_ += SingleClassApArena(dets, n, cls_gt, cls_gt_size,
                             FrameArena::ThreadLocal());
  ++num_classes_;
}

double ClassMajorMeanAp::Finish() {
  const auto& classes = ground_truth_->classes;
  for (; next_entry_ < classes.size(); ++next_entry_) {
    if (classes[next_entry_].has_evaluable) ++num_classes_;
  }
  if (num_classes_ == 0) return 1.0;  // nothing to detect, nothing predicted
  return sum_ / static_cast<double>(num_classes_);
}

double FrameMeanAp(const DetectionList& detections,
                   const GroundTruthIndex& ground_truth) {
  ClassMajorMeanAp accumulator(ground_truth);
  PartitionByClass(detections, &accumulator);
  return accumulator.Finish();
}

GroundTruthList DetectionsAsGroundTruth(const DetectionList& reference,
                                        double min_confidence) {
  GroundTruthList out;
  DetectionsAsGroundTruth(reference, min_confidence, &out);
  return out;
}

void DetectionsAsGroundTruth(const DetectionList& reference,
                             double min_confidence, GroundTruthList* out) {
  out->clear();
  out->reserve(reference.size());
  for (const auto& d : reference) {
    if (d.confidence < min_confidence) continue;
    GroundTruthBox g;
    g.box = d.box;
    g.label = d.label;
    out->push_back(g);
  }
}

}  // namespace vqe

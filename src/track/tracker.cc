#include "track/tracker.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

namespace vqe {

Status TrackerOptions::Validate() const {
  if (iou_threshold <= 0.0 || iou_threshold > 1.0) {
    return Status::InvalidArgument("iou_threshold must be in (0, 1]");
  }
  if (max_missed < 0) {
    return Status::InvalidArgument("max_missed must be >= 0");
  }
  if (min_hits < 1) {
    return Status::InvalidArgument("min_hits must be >= 1");
  }
  if (min_confidence < 0.0 || min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  return Status::OK();
}

IouTracker::IouTracker(TrackerOptions options) : options_(options) {}

void IouTracker::Reset() {
  tracks_.clear();
  retired_.clear();
  next_id_ = 1;
}

namespace {

void SaveTrack(ByteWriter& w, const Track& t) {
  w.I64(t.track_id);
  w.I64(t.label);
  w.F64(t.box.x1);
  w.F64(t.box.y1);
  w.F64(t.box.x2);
  w.F64(t.box.y2);
  w.F64(t.confidence);
  w.I64(t.hits);
  w.I64(t.missed);
  w.I64(t.first_frame);
  w.I64(t.last_frame);
  w.F64(t.vx);
  w.F64(t.vy);
}

Status RestoreTrack(ByteReader& r, Track* t) {
  int64_t label = 0;
  int64_t hits = 0;
  int64_t missed = 0;
  VQE_RETURN_NOT_OK(r.I64(&t->track_id));
  VQE_RETURN_NOT_OK(r.I64(&label));
  VQE_RETURN_NOT_OK(r.F64(&t->box.x1));
  VQE_RETURN_NOT_OK(r.F64(&t->box.y1));
  VQE_RETURN_NOT_OK(r.F64(&t->box.x2));
  VQE_RETURN_NOT_OK(r.F64(&t->box.y2));
  VQE_RETURN_NOT_OK(r.F64(&t->confidence));
  VQE_RETURN_NOT_OK(r.I64(&hits));
  VQE_RETURN_NOT_OK(r.I64(&missed));
  VQE_RETURN_NOT_OK(r.I64(&t->first_frame));
  VQE_RETURN_NOT_OK(r.I64(&t->last_frame));
  VQE_RETURN_NOT_OK(r.F64(&t->vx));
  VQE_RETURN_NOT_OK(r.F64(&t->vy));
  if (t->track_id < 1) return Status::DataLoss("track id out of range");
  if (hits < 0 || missed < 0) return Status::DataLoss("track counters negative");
  // The wire carries int64; the track holds an int32 label and int
  // counters, so a value the cast would wrap is damage, not data.
  constexpr int64_t kMaxCounter = std::numeric_limits<int>::max();
  if (hits > kMaxCounter || missed > kMaxCounter) {
    return Status::DataLoss("track counters out of range");
  }
  if (label < std::numeric_limits<ClassId>::min() ||
      label > std::numeric_limits<ClassId>::max()) {
    return Status::DataLoss("track label out of range");
  }
  t->label = static_cast<ClassId>(label);
  t->hits = static_cast<int>(hits);
  t->missed = static_cast<int>(missed);
  return Status::OK();
}

Status RestoreTrackList(ByteReader& r, std::vector<Track>* out) {
  uint64_t n = 0;
  VQE_RETURN_NOT_OK(r.U64(&n));
  // Each track is 13 fixed 8-byte fields on the wire.
  if (n > r.remaining() / (13 * 8)) {
    return Status::DataLoss("track count exceeds payload");
  }
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Track t;
    VQE_RETURN_NOT_OK(RestoreTrack(r, &t));
    out->push_back(t);
  }
  return Status::OK();
}

}  // namespace

Status IouTracker::SaveState(ByteWriter& writer) const {
  writer.I64(next_id_);
  writer.U64(tracks_.size());
  for (const Track& t : tracks_) SaveTrack(writer, t);
  writer.U64(0);  // the finished-track list, kept for the wire layout
  return Status::OK();
}

Status IouTracker::RestoreState(ByteReader& reader) {
  int64_t next_id = 0;
  std::vector<Track> tracks, finished;
  VQE_RETURN_NOT_OK(reader.I64(&next_id));
  if (next_id < 1) return Status::DataLoss("tracker next_id out of range");
  VQE_RETURN_NOT_OK(RestoreTrackList(reader, &tracks));
  // Parsed in full before anything is assigned, so a malformed list
  // leaves the tracker untouched; its tracks are then dropped.
  VQE_RETURN_NOT_OK(RestoreTrackList(reader, &finished));
  next_id_ = next_id;
  tracks_ = std::move(tracks);
  retired_.clear();
  return Status::OK();
}

void IouTracker::CoastOne() {
  for (Track& t : tracks_) {
    t.box = BBox{t.box.x1 + t.vx, t.box.y1 + t.vy, t.box.x2 + t.vx,
                 t.box.y2 + t.vy};
  }
}

const std::vector<Track>& IouTracker::Update(const DetectionList& detections,
                                             int64_t frame_index) {
  last_stats_ = TrackerUpdateStats{};
  retired_.clear();
  // 1. Predict: advance every track by its velocity estimate.
  std::vector<BBox> predicted(tracks_.size());
  for (size_t i = 0; i < tracks_.size(); ++i) {
    const Track& t = tracks_[i];
    predicted[i] = BBox{t.box.x1 + t.vx, t.box.y1 + t.vy, t.box.x2 + t.vx,
                        t.box.y2 + t.vy};
  }

  // 2. Associate greedily: detections in confidence order claim the best
  // unclaimed same-class track by predicted-box IoU.
  std::vector<size_t> order(detections.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return detections[a].confidence > detections[b].confidence;
  });

  std::vector<bool> track_claimed(tracks_.size(), false);
  std::vector<bool> det_used(detections.size(), false);
  for (size_t det_idx : order) {
    const Detection& det = detections[det_idx];
    if (det.confidence < options_.min_confidence) continue;
    double best_iou = options_.iou_threshold;
    int best_track = -1;
    for (size_t i = 0; i < tracks_.size(); ++i) {
      if (track_claimed[i]) continue;
      if (tracks_[i].label != det.label) continue;
      const double iou = IoU(predicted[i], det.box);
      if (iou >= best_iou) {
        best_iou = iou;
        best_track = static_cast<int>(i);
      }
    }
    if (best_track < 0) continue;
    track_claimed[static_cast<size_t>(best_track)] = true;
    det_used[det_idx] = true;
    ++last_stats_.matched;

    Track& t = tracks_[static_cast<size_t>(best_track)];
    // Velocity from consecutive associations (EMA for stability).
    const double new_vx = det.box.cx() - t.box.cx();
    const double new_vy = det.box.cy() - t.box.cy();
    t.vx = 0.5 * t.vx + 0.5 * new_vx;
    t.vy = 0.5 * t.vy + 0.5 * new_vy;
    t.box = det.box;
    t.confidence = det.confidence;
    ++t.hits;
    t.missed = 0;
    t.last_frame = frame_index;
  }

  // 3. Age unmatched tracks; retire the stale ones.
  std::vector<Track> survivors;
  survivors.reserve(tracks_.size() + detections.size());
  for (size_t i = 0; i < tracks_.size(); ++i) {
    Track& t = tracks_[i];
    if (!track_claimed[i]) {
      ++t.missed;
      ++last_stats_.unmatched;
      t.box = predicted[i];  // coast on the predicted position
      if (t.missed > options_.max_missed) {
        retired_.push_back(t);
        ++last_stats_.retired;
        continue;
      }
    }
    survivors.push_back(t);
  }

  // 4. Birth new tracks from unmatched confident detections.
  for (size_t det_idx = 0; det_idx < detections.size(); ++det_idx) {
    if (det_used[det_idx]) continue;
    const Detection& det = detections[det_idx];
    if (det.confidence < options_.min_confidence) continue;
    Track t;
    t.track_id = next_id_++;
    t.label = det.label;
    t.box = det.box;
    t.confidence = det.confidence;
    t.hits = 1;
    t.missed = 0;
    t.first_frame = frame_index;
    t.last_frame = frame_index;
    survivors.push_back(t);
    ++last_stats_.births;
  }

  tracks_ = std::move(survivors);
  return tracks_;
}

std::vector<Track> IouTracker::ActiveConfirmed() const {
  std::vector<Track> out;
  for (const Track& t : tracks_) {
    if (t.IsConfirmed(options_) && t.UpdatedThisFrame()) out.push_back(t);
  }
  return out;
}

}  // namespace vqe

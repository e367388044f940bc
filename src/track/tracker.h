// Online multi-object tracking over fused detections: a SORT-style greedy
// IoU tracker with constant-velocity prediction (cf. Bewley et al., "Simple
// online and realtime tracking", the paper's reference [7]). Video query
// systems use tracks as the temporal primitive ("a car that persists for k
// frames"); the query engine's TRACKS() aggregate is built on this module.

#ifndef VQE_TRACK_TRACKER_H_
#define VQE_TRACK_TRACKER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "detection/detection.h"
#include "snapshot/wire.h"

namespace vqe {

/// Tracker tuning.
struct TrackerOptions {
  /// Minimum IoU between a predicted track box and a detection to match.
  double iou_threshold = 0.3;
  /// Frames a track survives without a matching detection.
  int max_missed = 3;
  /// Consecutive-hit threshold before a track counts as confirmed.
  int min_hits = 3;
  /// Detections below this confidence neither start nor extend tracks.
  double min_confidence = 0.30;

  Status Validate() const;
};

/// One tracked object.
struct Track {
  int64_t track_id = 0;
  ClassId label = 0;
  /// Last associated (or predicted) box.
  BBox box;
  /// Confidence of the last associated detection.
  double confidence = 0.0;
  /// Total number of associated detections.
  int hits = 0;
  /// Consecutive frames without an associated detection.
  int missed = 0;
  /// Frame index of the first/last association.
  int64_t first_frame = 0;
  int64_t last_frame = 0;
  /// Constant-velocity estimate (pixels/frame).
  double vx = 0.0;
  double vy = 0.0;

  /// Age in frames since birth, inclusive.
  int64_t Age() const { return last_frame - first_frame + 1; }
  /// True once the track has accumulated min_hits associations.
  bool IsConfirmed(const TrackerOptions& options) const {
    return hits >= options.min_hits;
  }
  /// True when the track was associated on the most recent update.
  bool UpdatedThisFrame() const { return missed == 0; }
};

/// Association summary of the most recent Update() call. The temporal
/// skip gate reads these as its detection-churn signal: a frame whose
/// associations were mostly births/retirements is a bad frame to start
/// coasting from.
struct TrackerUpdateStats {
  /// Tracks created from unmatched detections this update.
  int births = 0;
  /// Tracks that claimed a detection this update.
  int matched = 0;
  /// Tracks retired (missed > max_missed) this update.
  int retired = 0;
  /// Live tracks left unmatched (now coasting on prediction).
  int unmatched = 0;
};

/// Greedy-IoU online tracker. Feed frames in order via Update().
class IouTracker {
 public:
  explicit IouTracker(TrackerOptions options = {});

  /// Advances one frame: predicts track positions, associates detections
  /// (greedy by confidence, same-class, best IoU), births new tracks and
  /// retires stale ones. Returns the live tracks after the update.
  const std::vector<Track>& Update(const DetectionList& detections,
                                   int64_t frame_index);

  /// Advances every live track by exactly one frame of constant-velocity
  /// motion without consuming detections: box += (vx, vy), nothing else
  /// changes. Unlike a missed frame in Update(), coasting does not age
  /// tracks — a skipped frame is answered *from* the prediction, it is
  /// not evidence the object vanished. Implemented as a single Euler
  /// step on purpose: k calls reproduce the k intermediate single-frame
  /// predictions bit-for-bit (box + v added k times, never box + k*v),
  /// which the skip-path regression test pins.
  void CoastOne();

  /// Live tracks (confirmed or tentative).
  const std::vector<Track>& tracks() const { return tracks_; }

  /// Confirmed tracks associated on the latest frame.
  std::vector<Track> ActiveConfirmed() const;

  /// Tracks retired by the most recent Update(), in retirement order
  /// (empty before the first Update and after a restore). The tracker
  /// keeps live tracks only: a caller that wants every track it ever
  /// retired collects them here after each Update.
  const std::vector<Track>& retired() const { return retired_; }

  /// Association summary of the most recent Update().
  const TrackerUpdateStats& last_update_stats() const { return last_stats_; }

  const TrackerOptions& options() const { return options_; }

  /// Clears all state.
  void Reset();

  /// Serializes the live tracks and the id counter so a resumed run
  /// continues track identities and lifetimes exactly. The wire layout
  /// still carries the finished-track list older builds filled; this one
  /// always writes it empty.
  Status SaveState(ByteWriter& writer) const;

  /// Restores a SaveState payload; DataLoss on malformed bytes. A
  /// non-empty finished-track list (written by older builds) is validated
  /// and discarded, so such payloads restore the same live state.
  Status RestoreState(ByteReader& reader);

 private:
  TrackerOptions options_;
  std::vector<Track> tracks_;
  int64_t next_id_ = 1;
  // Not serialized: both describe the latest Update() only.
  std::vector<Track> retired_;
  TrackerUpdateStats last_stats_;
};

}  // namespace vqe

#endif  // VQE_TRACK_TRACKER_H_

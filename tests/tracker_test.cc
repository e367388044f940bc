// Tests for the SORT-style IoU tracker and its TRACKS() query integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "query/executor.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "track/tracker.h"

namespace vqe {
namespace {

Detection Det(double x, double y, double w, double h, double conf,
              ClassId label = 0) {
  Detection d;
  d.box = BBox::FromXYWH(x, y, w, h);
  d.confidence = conf;
  d.label = label;
  return d;
}

TEST(TrackerOptionsTest, Validation) {
  TrackerOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.iou_threshold = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.iou_threshold = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.iou_threshold = 1.0;
  EXPECT_TRUE(o.Validate().ok());
  o = TrackerOptions{};
  o.max_missed = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.max_missed = 0;
  EXPECT_TRUE(o.Validate().ok());
  o = TrackerOptions{};
  o.min_hits = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.min_confidence = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.min_confidence = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  o = TrackerOptions{};
  o.min_confidence = 0.0;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(TrackerTest, BirthsTrackPerConfidentDetection) {
  IouTracker tracker;
  const auto& tracks =
      tracker.Update({Det(0, 0, 20, 20, 0.9), Det(100, 0, 20, 20, 0.8),
                      Det(200, 0, 20, 20, 0.1)},  // below min_confidence
                     0);
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_NE(tracks[0].track_id, tracks[1].track_id);
  EXPECT_EQ(tracks[0].hits, 1);
  EXPECT_FALSE(tracks[0].IsConfirmed(tracker.options()));
}

TEST(TrackerTest, IdentityPersistsAcrossFrames) {
  IouTracker tracker;
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  const int64_t id = tracker.tracks()[0].track_id;
  // Object moves 5px per frame; IoU with previous position stays high.
  for (int t = 1; t <= 5; ++t) {
    const auto& tracks = tracker.Update({Det(5.0 * t, 0, 40, 40, 0.9)}, t);
    ASSERT_EQ(tracks.size(), 1u);
    EXPECT_EQ(tracks[0].track_id, id);
    EXPECT_EQ(tracks[0].hits, t + 1);
  }
  EXPECT_TRUE(tracker.tracks()[0].IsConfirmed(tracker.options()));
  EXPECT_EQ(tracker.tracks()[0].Age(), 6);
}

TEST(TrackerTest, OpposingMotionKeepsEachTrackId) {
  // Two objects move in opposite directions for 30 frames: each keeps the
  // id it was born with, is updated on every frame, and its box follows
  // its detection.
  IouTracker tracker;
  int64_t ids[2] = {0, 0};
  for (int f = 0; f < 30; ++f) {
    const DetectionList dets{Det(5.0 * f, 0, 40, 40, 0.9),
                             Det(500 - 5.0 * f, 100, 40, 40, 0.9)};
    const auto& tracks = tracker.Update(dets, f);
    ASSERT_EQ(tracks.size(), 2u);
    for (size_t k = 0; k < dets.size(); ++k) {
      const auto it = std::find_if(
          tracks.begin(), tracks.end(),
          [&](const Track& t) { return t.box == dets[k].box; });
      ASSERT_NE(it, tracks.end()) << "frame " << f << ", object " << k;
      if (f == 0) ids[k] = it->track_id;
      EXPECT_EQ(it->track_id, ids[k]) << "frame " << f;
      EXPECT_TRUE(it->UpdatedThisFrame());
      EXPECT_EQ(it->hits, f + 1);
    }
  }
  EXPECT_NE(ids[0], ids[1]);
}

TEST(TrackerTest, VelocityPredictionBridgesFastMotion) {
  // 25px/frame steps: consecutive raw boxes overlap barely at IoU 1/3; once
  // the velocity estimate warms up the predicted box overlaps much better,
  // keeping the association alive for the whole run.
  TrackerOptions opt;
  opt.iou_threshold = 0.3;
  IouTracker tracker(opt);
  for (int t = 0; t <= 6; ++t) {
    tracker.Update({Det(25.0 * t, 0, 50, 50, 0.9)}, t);
  }
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_EQ(tracker.tracks()[0].hits, 7);
  // The learned velocity approaches the true 25 px/frame.
  EXPECT_GT(tracker.tracks()[0].vx, 15.0);
}

TEST(TrackerTest, ClassMismatchNeverAssociates) {
  IouTracker tracker;
  tracker.Update({Det(0, 0, 40, 40, 0.9, /*label=*/0)}, 0);
  const auto& tracks = tracker.Update({Det(0, 0, 40, 40, 0.9, /*label=*/1)}, 1);
  // The class-1 detection starts its own track; class-0 track coasts.
  EXPECT_EQ(tracks.size(), 2u);
}

TEST(TrackerTest, MissedTracksRetire) {
  TrackerOptions opt;
  opt.max_missed = 2;
  IouTracker tracker(opt);
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  tracker.Update({}, 1);
  tracker.Update({}, 2);
  EXPECT_EQ(tracker.tracks().size(), 1u);  // still coasting (missed == 2)
  EXPECT_TRUE(tracker.retired().empty());
  tracker.Update({}, 3);
  EXPECT_EQ(tracker.tracks().size(), 0u);
  ASSERT_EQ(tracker.retired().size(), 1u);
  EXPECT_EQ(tracker.retired()[0].hits, 1);
  // retired() describes the latest Update only.
  tracker.Update({}, 4);
  EXPECT_TRUE(tracker.retired().empty());
}

TEST(TrackerTest, ReacquisitionWithinGraceWindow) {
  IouTracker tracker;
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  const int64_t id = tracker.tracks()[0].track_id;
  tracker.Update({}, 1);  // occluded one frame
  const auto& tracks = tracker.Update({Det(2, 0, 40, 40, 0.9)}, 2);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].track_id, id);
  EXPECT_EQ(tracks[0].missed, 0);
}

TEST(TrackerTest, GreedyAssociationPrefersConfidentDetections) {
  IouTracker tracker;
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  // Two candidate detections overlap the track; the higher-confidence one
  // claims it, the other births a new track.
  const auto& tracks = tracker.Update(
      {Det(4, 0, 40, 40, 0.5), Det(2, 0, 40, 40, 0.95)}, 1);
  ASSERT_EQ(tracks.size(), 2u);
  // The original track carries the 0.95 confidence.
  const Track& original =
      tracks[0].track_id < tracks[1].track_id ? tracks[0] : tracks[1];
  EXPECT_DOUBLE_EQ(original.confidence, 0.95);
}

TEST(TrackerTest, ActiveConfirmedFilters) {
  TrackerOptions opt;
  opt.min_hits = 2;
  IouTracker tracker(opt);
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  EXPECT_TRUE(tracker.ActiveConfirmed().empty());  // 1 hit < min_hits
  tracker.Update({Det(1, 0, 40, 40, 0.9)}, 1);
  EXPECT_EQ(tracker.ActiveConfirmed().size(), 1u);
  tracker.Update({}, 2);  // coasting: not "active"
  EXPECT_TRUE(tracker.ActiveConfirmed().empty());
}

TEST(TrackerTest, ResetClearsState) {
  IouTracker tracker;
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  tracker.Reset();
  EXPECT_TRUE(tracker.tracks().empty());
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  EXPECT_EQ(tracker.tracks()[0].track_id, 1);  // ids restart
}

// ------------------------------------------------------ tracker state ---

/// One track in the tracker's wire layout (13 eight-byte fields).
void WriteTrack(ByteWriter& w, const Track& t) {
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

/// Drives a tracker through births, matches and retirements.
void Drive(IouTracker& tracker, int64_t from, int64_t to) {
  for (int64_t f = from; f < to; ++f) {
    DetectionList dets;
    // Object 0 persists; object 1 appears only on even frames of the first
    // ten, so its tracks keep retiring; object 2 shows up late.
    dets.push_back(Det(2.0 * f, 0, 40, 40, 0.9));
    if (f < 10 && f % 2 == 0) dets.push_back(Det(200, 200, 30, 30, 0.8));
    if (f >= 12) dets.push_back(Det(400, 50, 30, 30, 0.7, /*label=*/1));
    tracker.Update(dets, f);
  }
}

// The tracker keeps live tracks only and writes an always-empty finished
// list. Payloads of builds that kept every retired track there still
// restore: the list is validated and dropped, and the restored tracker
// saves and continues exactly like the one that never held it.
TEST(TrackerStateTest, OlderPayloadWithFinishedTracksRestoresTheLiveState) {
  TrackerOptions opt;
  opt.max_missed = 1;
  IouTracker tracker(opt);
  std::vector<Track> retired;
  for (int64_t f = 0; f < 16; ++f) {
    Drive(tracker, f, f + 1);
    retired.insert(retired.end(), tracker.retired().begin(),
                   tracker.retired().end());
  }
  ASSERT_FALSE(retired.empty());
  ASSERT_FALSE(tracker.tracks().empty());

  ByteWriter now;
  ASSERT_TRUE(tracker.SaveState(now).ok());
  // The older layout: the same fields with every retired track listed.
  ByteReader head(now.bytes().data(), now.size());
  int64_t next_id = 0;
  ASSERT_TRUE(head.I64(&next_id).ok());
  ByteWriter older_payload;
  older_payload.I64(next_id);
  older_payload.U64(tracker.tracks().size());
  for (const Track& t : tracker.tracks()) WriteTrack(older_payload, t);
  older_payload.U64(retired.size());
  for (const Track& t : retired) WriteTrack(older_payload, t);
  // Without the retired tracks the older payload is exactly today's.
  ASSERT_EQ(older_payload.size(), now.size() + 104 * retired.size());

  IouTracker restored(opt);
  ByteReader reader(older_payload.bytes().data(), older_payload.size());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_TRUE(restored.retired().empty());
  ByteWriter resaved;
  ASSERT_TRUE(restored.SaveState(resaved).ok());
  EXPECT_EQ(resaved.bytes(), now.bytes());

  Drive(tracker, 16, 24);
  Drive(restored, 16, 24);
  ByteWriter a, b;
  ASSERT_TRUE(tracker.SaveState(a).ok());
  ASSERT_TRUE(restored.SaveState(b).ok());
  EXPECT_EQ(a.bytes(), b.bytes());
}

// A truncated finished list is malformed: DataLoss, and the target keeps
// its state.
TEST(TrackerStateTest, TruncatedFinishedListIsDataLossAndLeavesTargetAsIs) {
  IouTracker source;
  Drive(source, 0, 6);
  ByteWriter payload;
  payload.I64(9);
  payload.U64(source.tracks().size());
  for (const Track& t : source.tracks()) WriteTrack(payload, t);
  payload.U64(2);  // claims two finished tracks, carries one
  WriteTrack(payload, source.tracks()[0]);

  IouTracker target;
  Drive(target, 0, 3);
  ByteWriter before;
  ASSERT_TRUE(target.SaveState(before).ok());
  ByteReader reader(payload.bytes().data(), payload.size());
  EXPECT_EQ(target.RestoreState(reader).code(), StatusCode::kDataLoss);
  ByteWriter after;
  ASSERT_TRUE(target.SaveState(after).ok());
  EXPECT_EQ(after.bytes(), before.bytes());
}

// A track field the restore would wrap when narrowing it from the wire's
// int64 (hits or missed above INT_MAX, a label outside int32) is DataLoss,
// and the target keeps its state. The boundary values themselves restore.
TEST(TrackerStateTest, NarrowingOverflowIsDataLossAndLeavesTargetAsIs) {
  IouTracker source;
  Drive(source, 0, 6);
  ASSERT_FALSE(source.tracks().empty());
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kLabelMin = std::numeric_limits<int32_t>::min();
  constexpr int64_t kLabelMax = std::numeric_limits<int32_t>::max();
  // Field offsets inside one 13-field track record (8 bytes each).
  constexpr size_t kLabel = 1, kHits = 7, kMissed = 8;
  struct Case {
    const char* name;
    size_t field;
    int64_t value;
    bool ok;
  };
  const Case cases[] = {
      {"hits INT_MAX", kHits, kIntMax, true},
      {"hits 2^31", kHits, kIntMax + 1, false},
      {"missed INT_MAX", kMissed, kIntMax, true},
      {"missed 2^31", kMissed, kIntMax + 1, false},
      {"label INT32_MIN", kLabel, kLabelMin, true},
      {"label INT32_MAX", kLabel, kLabelMax, true},
      {"label INT32_MIN - 1", kLabel, kLabelMin - 1, false},
      {"label INT32_MAX + 1", kLabel, kLabelMax + 1, false},
  };
  ByteWriter good;
  ASSERT_TRUE(source.SaveState(good).ok());
  for (const Case& c : cases) {
    // next_id (8 bytes) and the track count (8 bytes) precede track 0.
    std::vector<uint8_t> bytes = good.bytes();
    ByteWriter field;
    field.I64(c.value);
    std::copy(field.bytes().begin(), field.bytes().end(),
              bytes.begin() + static_cast<long>(16 + 8 * c.field));

    IouTracker target;
    Drive(target, 0, 3);
    ByteWriter before;
    ASSERT_TRUE(target.SaveState(before).ok());
    ByteReader reader(bytes.data(), bytes.size());
    const Status status = target.RestoreState(reader);
    if (c.ok) {
      ASSERT_TRUE(status.ok()) << c.name << ": " << status.ToString();
      ByteWriter resaved;
      ASSERT_TRUE(target.SaveState(resaved).ok());
      EXPECT_EQ(resaved.bytes(), bytes) << c.name;
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << c.name;
    ByteWriter after;
    ASSERT_TRUE(target.SaveState(after).ok());
    EXPECT_EQ(after.bytes(), before.bytes()) << c.name;
  }
}

// ------------------------------------------------- coasting (skip path) --

// The skip fast path leans on CoastOne being a single Euler step: calling
// it k times must land on exactly the same doubles as accumulating the
// velocity one frame at a time (box + v + v + ..., never box + k*v).
TEST(TrackerCoastTest, KStepsMatchIncrementalPredictionBitExactly) {
  IouTracker tracker;
  // Warm the velocity estimate up over a few frames of steady motion.
  for (int t = 0; t <= 3; ++t) {
    tracker.Update({Det(7.0 * t, 3.0 * t, 40, 40, 0.9)}, t);
  }
  ASSERT_EQ(tracker.tracks().size(), 1u);
  const Track start = tracker.tracks()[0];
  ASSERT_NE(start.vx, 0.0);

  double ex1 = start.box.x1, ey1 = start.box.y1;
  double ex2 = start.box.x2, ey2 = start.box.y2;
  for (int k = 1; k <= 5; ++k) {
    tracker.CoastOne();
    ex1 += start.vx;
    ey1 += start.vy;
    ex2 += start.vx;
    ey2 += start.vy;
    const Track& coasted = tracker.tracks()[0];
    EXPECT_EQ(coasted.box.x1, ex1) << "step " << k;
    EXPECT_EQ(coasted.box.y1, ey1) << "step " << k;
    EXPECT_EQ(coasted.box.x2, ex2) << "step " << k;
    EXPECT_EQ(coasted.box.y2, ey2) << "step " << k;
    // Coasting moves ONLY the box: velocity, confidence and association
    // bookkeeping stay untouched.
    EXPECT_EQ(coasted.vx, start.vx);
    EXPECT_EQ(coasted.vy, start.vy);
    EXPECT_EQ(coasted.confidence, start.confidence);
  }
}

// A skipped frame is answered FROM the prediction — it is not evidence the
// object vanished, so coasting must not age or retire tracks the way a
// missed frame in Update() does.
TEST(TrackerCoastTest, CoastingDoesNotAgeOrRetireTracks) {
  TrackerOptions opt;
  opt.max_missed = 1;  // a single missed Update() frame would retire soon
  IouTracker tracker(opt);
  tracker.Update({Det(0, 0, 40, 40, 0.9)}, 0);
  tracker.Update({Det(5, 0, 40, 40, 0.9)}, 1);
  const Track before = tracker.tracks()[0];

  for (int k = 0; k < 10; ++k) tracker.CoastOne();
  ASSERT_EQ(tracker.tracks().size(), 1u);
  const Track& after = tracker.tracks()[0];
  EXPECT_EQ(after.missed, before.missed);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.Age(), before.Age());
  EXPECT_TRUE(after.UpdatedThisFrame());
  EXPECT_TRUE(tracker.retired().empty());
}

// After coasting, a fresh detection near the coasted position must
// re-associate with the same identity — the detect frame that ends a skip
// episode continues the track, it does not fork it.
TEST(TrackerCoastTest, DetectionAfterCoastingKeepsIdentity) {
  IouTracker tracker;
  for (int t = 0; t <= 2; ++t) {
    tracker.Update({Det(6.0 * t, 0, 40, 40, 0.9)}, t);
  }
  const int64_t id = tracker.tracks()[0].track_id;
  tracker.CoastOne();
  tracker.CoastOne();
  // True object position after two more frames of the same motion.
  const auto& tracks = tracker.Update({Det(6.0 * 4, 0, 40, 40, 0.9)}, 4);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].track_id, id);
  EXPECT_EQ(tracks[0].missed, 0);
}

// ----------------------------------------------------- TRACKS() in queries --

TEST(TracksAggregateTest, ParserAndExplain) {
  const auto q = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE TRACKS(car) >= 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where->aggregate.kind, AggregateKind::kTracks);
  EXPECT_TRUE(PredicateUsesTracks(q->where.get()));

  const auto q2 = ParseQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE COUNT(car) >= 2");
  EXPECT_FALSE(PredicateUsesTracks(q2->where.get()));
}

TEST(TracksAggregateTest, EvaluatesAgainstTrackList) {
  AggregateExpr agg;
  agg.kind = AggregateKind::kTracks;
  agg.class_name = "car";
  std::vector<Track> tracks(3);
  tracks[0].label = 0;  // car
  tracks[1].label = 0;
  tracks[2].label = 3;  // pedestrian
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, {}, &tracks), 2.0);
  agg.class_name = "*";
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, {}, &tracks), 3.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(agg, {}, nullptr), 0.0);
}

TEST(TracksAggregateTest, EndToEndQuery) {
  QueryEngineOptions opt;
  opt.scene_scale = 0.02;
  opt.seed = 3;
  const auto with_tracks = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE TRACKS(car) >= 1",
      opt);
  ASSERT_TRUE(with_tracks.ok()) << with_tracks.status().ToString();
  EXPECT_GT(with_tracks->frames_matched, 0u);
  EXPECT_LT(with_tracks->frames_matched, with_tracks->frames_processed);

  // Track confirmation requires min_hits frames, so TRACKS >= 1 matches no
  // more frames than the instantaneous COUNT >= 1.
  const auto with_count = ExecuteQuery(
      "SELECT frameID FROM (PROCESS nusc PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(car) >= 1",
      opt);
  ASSERT_TRUE(with_count.ok());
  EXPECT_LE(with_tracks->frames_matched, with_count->frames_matched);
}

}  // namespace
}  // namespace vqe

// Track-level analytics: count distinct vehicles passing through a stream
// and answer a persistence query ("frames with at least two tracked cars"),
// combining MES ensemble selection, the SORT-style tracker, and the TRACKS
// aggregate of the query dialect.
//
//   ./build/examples/track_analytics

#include <cstdio>
#include <iostream>
#include <map>

#include "fusion/ensemble_method.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "sim/dataset.h"
#include "sim/object_classes.h"
#include "track/tracker.h"

int main() {
  using namespace vqe;

  // --- Part 1: declarative persistence query -----------------------------
  const std::string sql =
      "SELECT frameID "
      "FROM (PROCESS nusc-clear SCALE 0.05 SEED 11 PRODUCE frameID, "
      "      Detections USING MES(*; REF)) "
      "WHERE TRACKS(car) >= 2";

  auto parsed = ParseQuery(sql);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  std::printf("Plan:\n%s\n", ExplainQuery(*parsed).c_str());

  auto out = ExecuteQuery(*parsed);
  if (!out.ok()) {
    std::cerr << out.status().ToString() << "\n";
    return 1;
  }
  std::printf("Frames with >= 2 confirmed car tracks: %zu of %zu (%.1f%%)\n\n",
              out->frames_matched, out->frames_processed,
              100.0 * out->frames_matched / out->frames_processed);

  // --- Part 2: library-level track census ---------------------------------
  // Run the tracker over the full-pool detections of the same stream and
  // census the distinct objects per class.
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-clear");
  SampleOptions sample;
  sample.scene_scale = 0.05;
  sample.seed = 11;
  const Video video = std::move(SampleVideo(*spec, sample)).value();
  auto pool = std::move(BuildNuscenesPool(3)).value();
  auto fusion = std::move(CreateEnsembleMethod(FusionKind::kWbf)).value();

  IouTracker tracker;
  std::map<ClassId, int> census;
  std::map<ClassId, double> lifetime;
  auto tally = [&](const Track& t) {
    if (t.hits < tracker.options().min_hits) return;
    ++census[t.label];
    lifetime[t.label] += static_cast<double>(t.Age());
  };
  for (const VideoFrame& frame : video.frames) {
    std::vector<DetectionList> outs;
    for (const auto& det : pool.detectors) {
      outs.push_back(det->Detect(frame, sample.seed));
    }
    tracker.Update(fusion->Fuse(outs), frame.frame_index);
    // The tracker keeps live tracks only: census each one as it retires.
    for (const Track& t : tracker.retired()) tally(t);
  }
  for (const Track& t : tracker.tracks()) tally(t);

  std::printf("Distinct tracked objects over %zu frames (confirmed only):\n",
              video.size());
  std::printf("  %-14s %8s %14s\n", "class", "tracks", "avg life (fr)");
  for (const auto& [cls, count] : census) {
    std::printf("  %-14s %8d %14.1f\n", ClassIdToName(cls).c_str(), count,
                lifetime[cls] / count);
  }

  // Actual distinct ground-truth objects, for reference.
  std::map<ClassId, std::map<int64_t, bool>> gt_objects;
  for (const auto& frame : video.frames) {
    for (const auto& obj : frame.objects) {
      gt_objects[obj.label][obj.object_id] = true;
    }
  }
  std::printf("\nGround truth distinct objects:\n");
  for (const auto& [cls, ids] : gt_objects) {
    std::printf("  %-14s %8zu\n", ClassIdToName(cls).c_str(), ids.size());
  }
  std::printf("\n(Track counts exceed GT counts when identities fragment — "
              "the classic MOT trade-off; raise min_hits to trade recall "
              "for purity.)\n");
  return 0;
}

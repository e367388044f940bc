// §5.2 fusion-method comparison: average AP of each box-fusion algorithm
// when ensembling the m=3 specialist pool, on nuScenes. The paper selects
// WBF as "the most accurate".

#include <iostream>

#include "bench_util.h"
#include "detection/ap.h"
#include "sim/dataset.h"

using namespace vqe;
using namespace vqe::bench;

int main() {
  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Box-fusion method comparison", "§5.2 (ensemble approaches)",
              settings);

  auto pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc");
  SampleOptions sample;
  sample.scene_scale = ScaleFor(*spec, settings.target_frames / 2);
  sample.seed = 11;
  const Video video = std::move(SampleVideo(*spec, sample)).value();

  TablePrinter table({"Method", "Avg AP (full trio)", "Avg boxes/frame"});
  double best_ap = -1.0;
  std::string best_name;
  for (FusionKind kind : AllFusionKinds()) {
    auto method = std::move(CreateEnsembleMethod(kind)).value();
    double ap = 0.0;
    double boxes = 0.0;
    for (const VideoFrame& frame : video.frames) {
      std::vector<DetectionList> outs;
      for (const auto& det : pool.detectors) {
        outs.push_back(det->Detect(frame, sample.seed));
      }
      const DetectionList fused = method->Fuse(outs);
      ap += FrameMeanAp(fused, frame.objects);
      boxes += static_cast<double>(fused.size());
    }
    ap /= static_cast<double>(video.size());
    boxes /= static_cast<double>(video.size());
    table.AddRow({method->name(), Fmt(ap, 4), Fmt(boxes, 1)});
    if (ap > best_ap) {
      best_ap = ap;
      best_name = method->name();
    }
  }
  table.Print(std::cout);
  std::cout << "\nMost accurate method here: " << best_name
            << " (paper: WBF). All subsequent experiments use WBF.\n";
  return 0;
}

// Table 3: model structures — parameter counts and average inference time —
// measured from the simulated detectors, plus their in-domain accuracy
// ordering (paper: YOLOv7 > tiny > micro > Faster R-CNN).

#include <iostream>

#include "bench_util.h"
#include "detection/ap.h"
#include "sim/scene_generator.h"

using namespace vqe;
using namespace vqe::bench;

int main() {
  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Model structures", "Table 3", settings);

  struct Entry {
    DetectorStructure structure;
    const char* name;
  };
  const Entry entries[] = {
      {DetectorStructure::kYoloV7, "yolov7@clear"},
      {DetectorStructure::kYoloV7Tiny, "yolov7-tiny@clear"},
      {DetectorStructure::kYoloV7Micro, "yolov7-micro@clear"},
      {DetectorStructure::kFasterRcnn, "faster-rcnn@clear"},
  };

  SceneGeneratorOptions gen;
  const int kFrames = 400;

  TablePrinter table({"Structure", "# of Params", "Avg. Inference Time (ms)",
                      "In-domain avg AP"});
  for (const Entry& e : entries) {
    SimulatedDetector det(*ParseDetectorName(e.name));
    double cost = 0.0;
    double ap = 0.0;
    for (int s = 0; s < kFrames; ++s) {
      const Video v = GenerateScene(gen, SceneContext::kClear, s, 1, 77);
      const VideoFrame& frame = v.frames[0];
      cost += det.InferenceCostMs(frame, s);
      ap += FrameMeanAp(det.Detect(frame, s), frame.objects);
    }
    table.AddRow({det.structure_name(),
                  Fmt(det.param_count() / 1e6, 2) + "M",
                  Fmt(cost / kFrames, 1), Fmt(ap / kFrames, 3)});
  }
  table.Print(std::cout);

  std::cout << "\nReference model:\n";
  ReferenceDetector ref;
  double ref_cost = 0.0;
  for (int s = 0; s < kFrames; ++s) {
    const Video v = GenerateScene(gen, SceneContext::kClear, s, 1, 77);
    ref_cost += ref.InferenceCostMs(v.frames[0], s);
  }
  std::cout << "  " << ref.name() << " (" << ref.structure_name()
            << "): avg inference " << Fmt(ref_cost / kFrames, 2)
            << " ms (paper assumption: c_REF << c_M holds)\n";
  std::cout << "\nExpected shape: params and times match Table 3 by "
               "construction; accuracy ordering YOLOv7 > tiny > micro > "
               "Faster R-CNN.\n";
  return 0;
}

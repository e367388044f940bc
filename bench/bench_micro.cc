// Micro-benchmarks (google-benchmark): the hot primitives — IoU, matching,
// per-frame AP, each fusion algorithm, and a full MES engine step — to back
// the Figure 13 claim that selection overhead is negligible next to
// (even simulated) model inference.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/mes.h"
#include "detection/ap.h"
#include "fusion/ensemble_method.h"
#include "models/model_zoo.h"
#include "sim/scene_generator.h"

namespace vqe {
namespace {

DetectionList RandomDetections(Rng& rng, int n) {
  DetectionList out;
  for (int i = 0; i < n; ++i) {
    Detection d;
    d.box = BBox::FromCenter(rng.Uniform(0, 1600), rng.Uniform(0, 900),
                             rng.Uniform(30, 200), rng.Uniform(20, 150));
    d.confidence = rng.Uniform(0.05, 1.0);
    d.label = static_cast<ClassId>(rng.UniformInt(8));
    d.box_variance = rng.Uniform(0.1, 20.0);
    out.push_back(d);
  }
  return out;
}

void BM_IoU(benchmark::State& state) {
  Rng rng(1);
  const auto a = RandomDetections(rng, 64);
  const auto b = RandomDetections(rng, 64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IoU(a[i & 63].box, b[(i + 7) & 63].box));
    ++i;
  }
}
BENCHMARK(BM_IoU);

void BM_MatchDetections(benchmark::State& state) {
  Rng rng(2);
  const auto dets = RandomDetections(rng, static_cast<int>(state.range(0)));
  GroundTruthList gts;
  for (const auto& d : RandomDetections(rng, static_cast<int>(state.range(0)))) {
    gts.push_back(GroundTruthBox{d.box, d.label, -1, false, 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchDetections(dets, gts, 0.5));
  }
}
BENCHMARK(BM_MatchDetections)->Arg(8)->Arg(32);

void BM_FrameMeanAp(benchmark::State& state) {
  Rng rng(3);
  const auto dets = RandomDetections(rng, static_cast<int>(state.range(0)));
  GroundTruthList gts;
  for (const auto& d : RandomDetections(rng, static_cast<int>(state.range(0)))) {
    gts.push_back(GroundTruthBox{d.box, d.label, -1, false, 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FrameMeanAp(dets, gts));
  }
}
BENCHMARK(BM_FrameMeanAp)->Arg(8)->Arg(32);

void BM_Fusion(benchmark::State& state) {
  const FusionKind kind = static_cast<FusionKind>(state.range(0));
  auto method = std::move(CreateEnsembleMethod(kind)).value();
  Rng rng(4);
  std::vector<DetectionList> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(RandomDetections(rng, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(method->Fuse(inputs));
  }
  state.SetLabel(FusionKindToString(kind));
}
BENCHMARK(BM_Fusion)
    ->DenseRange(0, 6)
    ->Unit(benchmark::kMicrosecond);

void BM_SimulatedDetect(benchmark::State& state) {
  SimulatedDetector det(*ParseDetectorName("yolov7-tiny@clear"));
  SceneGeneratorOptions gen;
  const Video v = GenerateScene(gen, SceneContext::kClear, 0, 1, 9);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(v.frames[0], seed++));
  }
}
BENCHMARK(BM_SimulatedDetect);

void BM_MesSelectStep(benchmark::State& state) {
  // One UCB argmax over the 31 arms of an m=5 pool.
  MesStrategy mes;
  StrategyContext ctx;
  ctx.num_models = 5;
  mes.BeginVideo(ctx);
  std::vector<double> rewards(NumEnsembles(5) + 1, 0.5);
  FrameFeedback fb;
  fb.selected = FullEnsemble(5);
  fb.est_score = &rewards;
  for (size_t t = 0; t < 20; ++t) {
    fb.t = t;
    mes.Observe(fb);
  }
  size_t t = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mes.Select(t++));
  }
}
BENCHMARK(BM_MesSelectStep);

void BM_SwMesSelectStep(benchmark::State& state) {
  SwMesOptions opt;
  opt.window = 400;
  SwMesStrategy sw(opt);
  StrategyContext ctx;
  ctx.num_models = 5;
  sw.BeginVideo(ctx);
  std::vector<double> rewards(NumEnsembles(5) + 1, 0.5);
  FrameFeedback fb;
  fb.selected = FullEnsemble(5);
  fb.est_score = &rewards;
  for (size_t t = 0; t < 50; ++t) {
    fb.t = t;
    sw.Observe(fb);
  }
  size_t t = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.Select(t++));
  }
}
BENCHMARK(BM_SwMesSelectStep);

}  // namespace
}  // namespace vqe

BENCHMARK_MAIN();

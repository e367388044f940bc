// Zero-allocation regression gate for the fused hot path. Evaluating a
// frame's mask lattice must stop touching the heap once the scratch has
// warmed up: the class-major fuse-and-score kernel keeps its transients in
// the thread's FrameArena (the default FuseByClass also reuses one
// thread-local fused list), and the arena's blocks are recycled between
// masks. This test instruments global operator new and the arena's block
// counter, warms a FrameEvalContext with one mask pass (full and
// estimate-only evaluations plus Fuse into a reused buffer), then asserts
// a second identical pass performs exactly zero heap allocations — for
// every fusion method. The same holds for a lazy evaluator's
// estimate-only cells, their upgrades and FusedOutput on a live frame,
// and the engine's lazy frame loop allocates nothing beyond each frame's
// context. A last gate bounds what a lazy run retains per frame once the
// run has moved past it.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "common/arena.h"
#include "core/engine.h"
#include "core/frame_eval.h"
#include "core/frame_matrix.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "models/model_zoo.h"
#include "sim/dataset.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};
/// Live bytes allocated through operator new (usable sizes, so the
/// allocator's rounding counts); tracked only where glibc reports them.
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t UsableBytes(void* p) {
#if defined(__GLIBC__)
  return static_cast<std::int64_t>(malloc_usable_size(p));
#else
  (void)p;
  return 0;
#endif
}

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    g_live_bytes.fetch_add(UsableBytes(p), std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(UsableBytes(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Counting overrides: allocation frequency and live bytes. GCC cannot see
// that every pointer these deletes free came from the malloc-backed news
// above, so quiet its mismatched-new-delete guess.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
#pragma GCC diagnostic pop

namespace vqe {
namespace {

DetectorPool MakePool(int m) {
  const std::vector<std::string> names = {
      "yolov7-tiny@clear", "yolov7-tiny@night", "yolov7-tiny@rainy",
      "yolov7@clear",      "yolov7-micro@clear", "yolov7@night"};
  std::vector<DetectorProfile> profiles;
  for (int i = 0; i < m; ++i) {
    profiles.push_back(
        std::move(ParseDetectorName(names[static_cast<size_t>(i)])).value());
  }
  return std::move(BuildPool(profiles)).value();
}

Video MakeVideo(double scene_scale, uint64_t seed) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc");
  SampleOptions sample;
  sample.scene_scale = scene_scale;
  sample.seed = seed;
  return std::move(SampleVideo(*spec, sample)).value();
}

struct PassCounters {
  std::uint64_t heap_allocs = 0;
  std::uint64_t arena_blocks = 0;
  double checksum = 0.0;
};

// One full pass over the frame's mask lattice — a full and an
// estimate-only evaluation and a Fuse into `fused` per mask — with heap and
// arena-block allocation counts taken around it.
PassCounters MaskPass(FrameEvalContext& ctx, uint32_t num_masks,
                      DetectionList* fused) {
  PassCounters c;
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t blocks_before =
      FrameArena::ThreadLocal().stats().block_allocs;
  for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
    const MaskEvaluation e = ctx.Evaluate(mask);
    const MaskEvaluation estimate = ctx.Evaluate(mask, /*with_true_ap=*/false);
    ctx.Fuse(mask, fused);
    c.checksum += e.est_ap + e.true_ap + e.cost_ms + estimate.est_ap +
                  static_cast<double>(fused->size());
  }
  c.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  c.arena_blocks =
      FrameArena::ThreadLocal().stats().block_allocs - blocks_before;
  return c;
}

class AllocRegressionTest : public ::testing::TestWithParam<FusionKind> {};

TEST_P(AllocRegressionTest, SteadyStateMaskLoopIsAllocationFree) {
  const int m = 6;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  ASSERT_GE(video.size(), 2u);

  MatrixOptions options;
  options.fusion = GetParam();
  auto fusion =
      std::move(CreateEnsembleMethod(options.fusion, options.fusion_options))
          .value();
  const uint32_t num_masks = NumEnsembles(m);

  for (size_t t = 0; t < std::min<size_t>(video.size(), 3); ++t) {
    FrameEvalContext ctx(video.frames[t], pool, /*trial_seed=*/23, options,
                         *fusion);
    DetectionList fused;
    // Warm-up pass: may allocate (the fused buffers and the arena grow to
    // their high-water marks).
    const PassCounters warm = MaskPass(ctx, num_masks, &fused);
    // Steady-state pass: bit-identical work, zero heap traffic.
    const PassCounters steady = MaskPass(ctx, num_masks, &fused);

    EXPECT_EQ(steady.heap_allocs, 0u)
        << FusionKindToString(options.fusion) << " frame " << t
        << ": steady-state mask pass hit the heap";
    EXPECT_EQ(steady.arena_blocks, 0u)
        << FusionKindToString(options.fusion) << " frame " << t
        << ": arena grew after warm-up";
    // Identical inputs must produce identical outputs (the counters'
    // absence of drift is only meaningful if the work really repeated).
    EXPECT_EQ(warm.checksum, steady.checksum);
  }
}

// A lazy evaluator on a live frame: fresh estimate-only cells, their
// upgrades to full and FusedOutput all run allocation-free once this
// thread's scratch and the evaluator's fused buffer have warmed up.
TEST_P(AllocRegressionTest, LazyCellsAndFusedOutputAreAllocationFree) {
  const int m = 4;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  MatrixOptions options;
  options.fusion = GetParam();
  const uint32_t num_masks = NumEnsembles(m);

  for (size_t t = 0; t < std::min<size_t>(video.size(), 3); ++t) {
    // Warm the thread's arena (and the default kernel's fused list) on a
    // throwaway evaluator over the same frame.
    auto warm = std::move(LazyFrameEvaluator::Create(video, pool, 23, options))
                    .value();
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      warm->EvalEstimate(t, mask);
      warm->Eval(t, mask);
      warm->FusedOutput(t, mask);
    }
    auto lazy = std::move(LazyFrameEvaluator::Create(video, pool, 23, options))
                    .value();
    lazy->Stats(t);  // builds the frame's context and memo
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      lazy->FusedOutput(t, mask);  // warms the evaluator's fused buffer
    }
    const std::uint64_t heap_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    const std::uint64_t blocks_before =
        FrameArena::ThreadLocal().stats().block_allocs;
    double checksum = 0.0;
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      checksum += lazy->EvalEstimate(t, mask).est_ap;
    }
    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      checksum += lazy->Eval(t, mask).true_ap;
      checksum += static_cast<double>(lazy->FusedOutput(t, mask)->size());
    }
    EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - heap_before,
              0u)
        << FusionKindToString(options.fusion) << " frame " << t;
    EXPECT_EQ(FrameArena::ThreadLocal().stats().block_allocs - blocks_before,
              0u)
        << FusionKindToString(options.fusion) << " frame " << t;
    EXPECT_EQ(lazy->masks_materialized(), num_masks);
    EXPECT_EQ(lazy->cells_upgraded(), num_masks);
    EXPECT_GE(checksum, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(FusionKinds, AllocRegressionTest,
                         ::testing::ValuesIn(AllFusionKinds()),
                         [](const ::testing::TestParamInfo<FusionKind>& info) {
                           switch (info.param) {
                             case FusionKind::kWbf: return std::string("Wbf");
                             case FusionKind::kNms: return std::string("Nms");
                             case FusionKind::kConsensus:
                               return std::string("Consensus");
                             case FusionKind::kSoftNmsLinear:
                               return std::string("SoftNmsLinear");
                             case FusionKind::kSoftNmsGaussian:
                               return std::string("SoftNmsGaussian");
                             case FusionKind::kSofterNms:
                               return std::string("SofterNms");
                             case FusionKind::kNmw: return std::string("Nmw");
                           }
                           return std::string("Other");
                         });

// The engine frame loop with observability DISABLED (the default) must be
// as quiet as the mask lattice underneath it: after the warm-up frames,
// every further StepFrame runs without touching the heap. This is the
// zero-cost half of the obs contract — the one `enabled()` branch per
// instrumentation site compiles down to a skipped pointer check, never a
// registration or a buffer.
TEST(EngineSteadyStateTest, DisabledObsFrameLoopIsAllocationFree) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  ASSERT_GE(video.size(), 8u);
  const auto matrix =
      BuildFrameMatrix(video, pool, /*trial_seed=*/23, MatrixOptions{});
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  MatrixEvaluationSource source(*matrix);

  MesOptions mes;
  mes.gamma = 2;
  MesStrategy strategy(mes);
  EngineOptions options;
  options.strategy_seed = 23;
  options.compute_regret = false;
  auto run = EngineRun::Create(source, &strategy, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Warm-up: the first half of the video may allocate (accumulator growth,
  // arena high-water marks, MES initialization episodes).
  const size_t warm = video.size() / 2;
  while (!(*run)->done() && (*run)->next_frame() < warm) {
    ASSERT_TRUE((*run)->StepFrame().ok());
  }
  ASSERT_FALSE((*run)->done());

  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  size_t steady_frames = 0;
  while (!(*run)->done()) {
    ASSERT_TRUE((*run)->StepFrame().ok());
    ++steady_frames;
  }
  EXPECT_GT(steady_frames, 0u);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - heap_before, 0u)
      << "steady-state StepFrame hit the heap with obs disabled";
}

// On a lazy source each detect frame necessarily allocates its detector
// context (per-model outputs, ground-truth indexes, SoA store) and memo
// record. Nothing else in the frame loop may: the class-major cells the
// engine materializes, full for the realized mask and estimate-only for
// its strict subsets, run on warmed scratch. So the steady-state frames
// of an MES run allocate exactly what touching the same frames does.
TEST(EngineSteadyStateTest, LazyFrameLoopAllocatesOnlyFrameContexts) {
  const DetectorPool pool = MakePool(4);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23);
  ASSERT_GE(video.size(), 8u);
  auto lazy =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/23))
          .value();
  MesOptions mes;
  mes.gamma = 2;
  MesStrategy strategy(mes);
  EngineOptions options;
  options.strategy_seed = 23;
  options.compute_regret = false;
  auto run = EngineRun::Create(*lazy, &strategy, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const size_t warm = video.size() / 2;
  while (!(*run)->done() && (*run)->next_frame() < warm) {
    ASSERT_TRUE((*run)->StepFrame().ok());
  }
  ASSERT_FALSE((*run)->done());
  const std::uint64_t run_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  while (!(*run)->done()) ASSERT_TRUE((*run)->StepFrame().ok());
  const std::uint64_t run_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - run_before;
  EXPECT_GT(lazy->masks_materialized(), video.size());
  EXPECT_EQ(lazy->cells_upgraded(), 0u);

  auto touched =
      std::move(LazyFrameEvaluator::Create(video, pool, /*trial_seed=*/23))
          .value();
  const std::uint64_t touch_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (size_t t = warm; t < video.size(); ++t) touched->Stats(t);
  EXPECT_EQ(run_allocs,
            g_heap_allocs.load(std::memory_order_relaxed) - touch_before)
      << "the lazy frame loop allocated beyond its frame contexts";
}

// What a lazy run keeps per frame once it has stepped past it: the memo
// and the frame's Stats() scalars, never its detector context (per-model
// detections, ground-truth indexes, SoA store: kilobytes in dozens of
// blocks). Heap still live after a run over 2N frames, minus after N,
// must fit N such records.
TEST(LazyRetainedHeapTest, RunRetainsOnlyMemoAndScalarsPerFrame) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live-byte accounting needs malloc_usable_size";
#endif
  const int m = 6;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.06, /*seed=*/29);
  const size_t n = video.size() / 2;
  ASSERT_GE(n, 40u);

  // Bytes an evaluator holds after a run over the first `frames` frames,
  // beyond what it held when created (the video and per-frame slots).
  auto retained = [&](size_t frames) {
    Video clip;
    clip.geometry = video.geometry;
    clip.frames.assign(video.frames.begin(), video.frames.begin() + frames);
    auto lazy =
        std::move(LazyFrameEvaluator::Create(std::move(clip), pool, 29))
            .value();
    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    {
      MesOptions mes;
      mes.gamma = 2;
      MesStrategy strategy(mes);
      EngineOptions options;
      options.strategy_seed = 29;
      options.compute_regret = false;
      EXPECT_TRUE(RunStrategy(*lazy, &strategy, options).ok());
    }
    EXPECT_EQ(lazy->frames_touched(), frames);
    return g_live_bytes.load(std::memory_order_relaxed) - before;
  };
  retained(2 * n);  // warm the thread's fusion arena to its high-water mark

  // Per-frame allowance: the memo (one cell and one state byte per mask)
  // and two m-double cost vectors, each block given 16 bytes of allocator
  // rounding.
  const size_t masks = NumEnsembles(m) + 1;
  const std::int64_t per_frame = static_cast<std::int64_t>(
      masks * (sizeof(MaskEvaluation) + 1) + 2 * m * sizeof(double) + 4 * 16);
  const std::int64_t growth = retained(2 * n) - retained(n);
  EXPECT_LE(growth, static_cast<std::int64_t>(n) * per_frame)
      << "a lazy run retains " << growth / static_cast<std::int64_t>(n)
      << " bytes per frame it moved past; allowance " << per_frame;
}

// The arena itself must also be quiet in steady state: repeated
// scope-bounded workloads of the same shape reuse retained blocks.
TEST(ArenaSteadyStateTest, RepeatedScopesDoNotGrowArena) {
  FrameArena arena;
  auto workload = [&arena] {
    ArenaScope scope(arena);
    double* xs = arena.AllocateArray<double>(4096);
    for (int i = 0; i < 4096; ++i) xs[i] = static_cast<double>(i);
    ArenaVector<int> v = MakeArenaVector<int>(arena);
    for (int i = 0; i < 512; ++i) v.push_back(i);
  };
  workload();  // warm-up
  const std::uint64_t blocks = arena.stats().block_allocs;
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) workload();
  EXPECT_EQ(arena.stats().block_allocs, blocks);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), heap_before);
}

}  // namespace
}  // namespace vqe

// Zero-allocation regression gate for the fused hot path. Evaluating a
// frame's mask lattice must stop touching the heap once the scratch has
// warmed up: the class-major fuse-and-score kernel keeps its transients in
// the thread's FrameArena, and the arena's blocks are recycled between
// masks. This test instruments global operator new and the arena's block
// counter, warms a FrameEvalContext with one mask pass (full and
// estimate-only evaluations plus Fuse into a reused buffer), then asserts
// a second identical pass performs exactly zero heap allocations. The
// same holds for each fusion method's plain FuseInto over a frame's mask
// lattice, for a lazy evaluator's estimate-only cells, their upgrades and
// FusedOutput on a live frame, and for in-place rebuilds of the per-frame
// stores (SoA, ground-truth indexes) on warmed storage. A warmed context
// reload allocates only the lists the detectors return, and the engine's
// lazy frame loop adds only each frame's record. A last gate bounds what a
// lazy run retains per frame once the run has moved past it.

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
#include "detection/ap.h"
#include "detection/frame_soa.h"
#include "fusion/ensemble_method.h"
#include "models/model_zoo.h"
#include "runtime/retry.h"
#include "sim/dataset.h"
#include "test_util.h"

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

using test::MakePool;
using test::MakeVideo;

struct PassCounters {
  std::uint64_t heap_allocs = 0;
  std::uint64_t arena_blocks = 0;
  double checksum = 0.0;
};

// One full pass over a frame's mask lattice, `fuse_mask(mask)` per mask
// (returning a checksum of what it produced), with heap and arena-block
// allocation counts taken around it.
template <typename FuseMask>
PassCounters MaskPass(uint32_t num_masks, FuseMask&& fuse_mask) {
  PassCounters c;
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t blocks_before =
      FrameArena::ThreadLocal().stats().block_allocs;
  for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
    c.checksum += fuse_mask(mask);
  }
  c.heap_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
  c.arena_blocks =
      FrameArena::ThreadLocal().stats().block_allocs - blocks_before;
  return c;
}

// A warm-up pass may allocate (the fused buffers and the arena grow to
// their high-water marks); the steady-state pass repeats the work
// bit-identically with zero heap traffic and no arena growth.
void ExpectSteadyPassAllocationFree(const PassCounters& warm,
                                    const PassCounters& steady,
                                    const std::string& where) {
  EXPECT_EQ(steady.heap_allocs, 0u)
      << where << ": steady-state mask pass hit the heap";
  EXPECT_EQ(steady.arena_blocks, 0u) << where << ": arena grew after warm-up";
  // Identical inputs must produce identical outputs (the counters'
  // absence of drift is only meaningful if the work really repeated).
  EXPECT_EQ(warm.checksum, steady.checksum) << where;
}

// The pipeline's mask loop: a full and an estimate-only evaluation and a
// Fuse into a reused buffer per mask, on a loaded frame context.
TEST(ContextAllocRegressionTest, MaskLoopIsAllocationFree) {
  const int m = 6;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23, "nusc");
  ASSERT_GE(video.size(), 2u);
  const MatrixOptions options;
  const uint32_t num_masks = NumEnsembles(m);

  for (size_t t = 0; t < std::min<size_t>(video.size(), 3); ++t) {
    FrameEvalContext ctx(video.frames[t], pool, /*trial_seed=*/23, options);
    DetectionList fused;
    const auto pass = [&](EnsembleId mask) {
      const MaskEvaluation e = ctx.Evaluate(mask);
      const MaskEvaluation estimate =
          ctx.Evaluate(mask, /*with_true_ap=*/false);
      ctx.Fuse(mask, &fused);
      return e.est_ap + e.true_ap + e.cost_ms + estimate.est_ap +
             static_cast<double>(fused.size());
    };
    const PassCounters warm = MaskPass(num_masks, pass);
    const PassCounters steady = MaskPass(num_masks, pass);
    ExpectSteadyPassAllocationFree(warm, steady,
                                   "frame " + std::to_string(t));
  }
}

// Each of the seven methods' plain FuseInto over every mask of a frame's
// detector lists, into a reused buffer: the comparison kernels (§5.2)
// keep their pools, sort buffers and flags in the thread's FrameArena.
class AllocRegressionTest : public ::testing::TestWithParam<FusionKind> {};

TEST_P(AllocRegressionTest, SteadyStateMaskLoopIsAllocationFree) {
  const int m = 6;
  const uint64_t seed = 23;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, seed, "nusc");
  ASSERT_GE(video.size(), 2u);
  const auto method = std::move(CreateEnsembleMethod(GetParam())).value();
  const uint32_t num_masks = NumEnsembles(m);

  for (size_t t = 0; t < std::min<size_t>(video.size(), 3); ++t) {
    std::vector<DetectionList> outs;
    for (const auto& detector : pool.detectors) {
      outs.push_back(detector->Detect(video.frames[t], seed));
    }
    std::vector<const DetectionList*> inputs;
    inputs.reserve(outs.size());
    DetectionList fused;
    const auto pass = [&](EnsembleId mask) {
      inputs.clear();
      for (int i = 0; i < m; ++i) {
        if (ContainsModel(mask, i)) {
          inputs.push_back(&outs[static_cast<size_t>(i)]);
        }
      }
      method->FuseInto(DetectionListSpan(inputs), &fused);
      double checksum = static_cast<double>(fused.size());
      for (const Detection& d : fused) checksum += d.confidence + d.box.x1;
      return checksum;
    };
    const PassCounters warm = MaskPass(num_masks, pass);
    const PassCounters steady = MaskPass(num_masks, pass);
    ExpectSteadyPassAllocationFree(
        warm, steady, method->name() + " frame " + std::to_string(t));
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

// A lazy evaluator on a live frame: fresh estimate-only cells, their
// upgrades to full and FusedOutput all run allocation-free once this
// thread's scratch and the evaluator's fused buffer have warmed up.
TEST(ContextAllocRegressionTest, LazyCellsAndFusedOutputAreAllocationFree) {
  const int m = 4;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23, "nusc");
  const MatrixOptions options;
  const uint32_t num_masks = NumEnsembles(m);

  for (size_t t = 0; t < std::min<size_t>(video.size(), 3); ++t) {
    // Warm the thread's arena on a throwaway evaluator over the same
    // frame.
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
        << "frame " << t;
    EXPECT_EQ(FrameArena::ThreadLocal().stats().block_allocs - blocks_before,
              0u)
        << "frame " << t;
    EXPECT_EQ(lazy->masks_materialized(), num_masks);
    EXPECT_EQ(lazy->cells_upgraded(), num_masks);
    EXPECT_GE(checksum, 0.0);
  }
}

// The engine frame loop with observability DISABLED (the default) must be
// as quiet as the mask lattice underneath it: after the warm-up frames,
// every further StepFrame runs without touching the heap. This is the
// zero-cost half of the obs contract — the one `enabled()` branch per
// instrumentation site compiles down to a skipped pointer check, never a
// registration or a buffer.
TEST(EngineSteadyStateTest, DisabledObsFrameLoopIsAllocationFree) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/23, "nusc");
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

// Heap allocations the m detector calls and the reference call make on
// `frame`: the lists they return, measured by making the same calls here
// (detections are pure functions of (frame, trial_seed)).
std::uint64_t DetectorCallAllocs(const DetectorPool& pool,
                                 const VideoFrame& frame, uint64_t trial_seed,
                                 const MatrixOptions& options) {
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (const auto& detector : pool.detectors) {
    const DetectorCallOutcome call =
        DetectWithRetries(*detector, frame, trial_seed, options.retry);
    EXPECT_TRUE(call.ok());
  }
  {
    const DetectionList ref = pool.reference->Detect(frame, trial_seed);
    EXPECT_GE(pool.reference->InferenceCostMs(frame, trial_seed), 0.0);
  }
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

// A frame context is reloaded in place, so once its buffers have held a
// frame, loading that frame again allocates exactly the lists the
// detectors and the reference model return — nothing for the cached
// lists, cost vectors, ground-truth indexes, SoA store or scratch. On a
// lazy source the engine's frame loop adds only each frame's record (memo,
// memo states and the two cost vectors: four blocks): the class-major
// cells it materializes, full for the realized mask and estimate-only for
// its strict subsets, run on warmed scratch. Both gates are exact and run
// a second pass over frames the context has already held.
TEST(EngineSteadyStateTest, LazyFrameLoopAllocatesOnlyFrameContexts) {
  const int m = 4;
  const uint64_t seed = 23;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, seed, "nusc");
  const size_t n = video.size();
  ASSERT_GE(n, 8u);
  const MatrixOptions options;
  std::vector<std::uint64_t> call_allocs(n);
  std::uint64_t all_call_allocs = 0;
  for (size_t t = 0; t < n; ++t) {
    call_allocs[t] = DetectorCallAllocs(pool, video.frames[t], seed, options);
    all_call_allocs += call_allocs[t];
  }

  FrameEvalContext ctx(pool, seed, options);
  for (size_t t = 0; t < n; ++t) {
    ctx.Load(video.frames[t]);
    ctx.Evaluate(FullEnsemble(m));
  }
  for (size_t t = 0; t < n; ++t) {
    const std::uint64_t before =
        g_heap_allocs.load(std::memory_order_relaxed);
    ctx.Load(video.frames[t]);
    EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before,
              call_allocs[t])
        << "a warmed Load of frame " << t
        << " allocated beyond the detector and reference lists";
  }

  // The clip played twice: the second pass reloads frames the live
  // context has already held.
  Video twice = video;
  twice.frames.insert(twice.frames.end(), video.frames.begin(),
                      video.frames.end());
  auto lazy =
      std::move(LazyFrameEvaluator::Create(std::move(twice), pool, seed))
          .value();
  MesOptions mes;
  mes.gamma = 2;
  MesStrategy strategy(mes);
  EngineOptions engine;
  engine.strategy_seed = seed;
  engine.compute_regret = false;
  auto run = EngineRun::Create(*lazy, &strategy, engine);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  while (!(*run)->done() && (*run)->next_frame() < n) {
    ASSERT_TRUE((*run)->StepFrame().ok());
  }
  ASSERT_EQ((*run)->next_frame(), n);
  const std::uint64_t run_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  while (!(*run)->done()) ASSERT_TRUE((*run)->StepFrame().ok());
  const std::uint64_t run_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - run_before;
  EXPECT_EQ(run_allocs, all_call_allocs + 4 * n)
      << "the lazy frame loop allocated beyond the detector lists and the "
         "frame records";
  EXPECT_EQ(lazy->frames_touched(), 2 * n);
  EXPECT_EQ(lazy->frames_rebuilt(), 0u);
  EXPECT_EQ(lazy->cells_upgraded(), 0u);
  EXPECT_GT(lazy->masks_materialized(), 2 * n);
}

// The per-frame stores rebuild in place: once a FrameSoA and the two
// GroundTruthIndexes have been rebuilt over a run of frames, rebuilding
// them over the same frames touches the heap zero times.
TEST(ContextAllocRegressionTest, WarmedRebuildsAreAllocationFree) {
  const int m = 6;
  const uint64_t seed = 23;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, seed, "nusc");
  const size_t frames = std::min<size_t>(video.size(), 6);
  ASSERT_GE(frames, 2u);

  std::vector<std::vector<DetectionList>> outs(frames);
  std::vector<GroundTruthList> ref_gt(frames);
  for (size_t t = 0; t < frames; ++t) {
    for (const auto& detector : pool.detectors) {
      outs[t].push_back(detector->Detect(video.frames[t], seed));
    }
    ref_gt[t] = DetectionsAsGroundTruth(
        pool.reference->Detect(video.frames[t], seed), 0.5);
  }

  FrameSoA soa;
  GroundTruthIndex gt_index;
  GroundTruthIndex ref_index;
  const auto rebuild_all = [&] {
    size_t checksum = 0;
    for (size_t t = 0; t < frames; ++t) {
      soa.Rebuild(outs[t]);
      RebuildGroundTruthIndex(video.frames[t].objects, &gt_index);
      RebuildGroundTruthIndex(ref_gt[t], &ref_index);
      checksum += soa.packed_size() + soa.blocks().size() +
                  gt_index.classes.size() + ref_index.boxes.size();
    }
    return checksum;
  };
  const size_t warm = rebuild_all();
  const std::uint64_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const size_t steady = rebuild_all();
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - heap_before, 0u)
      << "a warmed in-place rebuild hit the heap";
  EXPECT_EQ(warm, steady);
  EXPECT_GT(steady, 0u);
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
  const Video video = MakeVideo(/*scene_scale=*/0.06, /*seed=*/29, "nusc");
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
    // A buffer growing by doubling, as a container claims it.
    for (size_t n = 1; n <= 512; n *= 2) {
      int* v = arena.AllocateArray<int>(n);
      for (size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
    }
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

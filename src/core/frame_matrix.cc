#include "core/frame_matrix.h"

#include <algorithm>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "core/frame_eval.h"

namespace vqe {

Status MatrixOptions::Validate() const {
  if (parallelism < 0) {
    return Status::InvalidArgument("parallelism must be >= 0");
  }
  return retry.Validate();
}

namespace {

// The masks not weakly dominated on ⟨true_ap, cost_ms⟩: sweep by ascending
// cost (ties: descending AP, then ascending mask for stability) and keep a
// mask iff it strictly raises the running AP maximum. For any excluded mask
// some kept mask is at least as accurate and no costlier, so a monotone
// score's maximum over the kept set equals its maximum over all masks.
std::vector<EnsembleId> ParetoTrueCandidates(const FrameEvaluation& fe,
                                             uint32_t num_masks) {
  // The sweep order is arena scratch (the comparator is a strict total
  // order — the tie-break on the mask id makes the sorted sequence unique,
  // so an in-place std::sort is deterministic); only the surviving
  // frontier, which the matrix keeps, touches the heap.
  FrameArena& arena = FrameArena::ThreadLocal();
  ArenaScope scope(arena);
  EnsembleId* order = arena.AllocateArray<EnsembleId>(num_masks);
  for (uint32_t i = 0; i < num_masks; ++i) order[i] = EnsembleId{i + 1};
  std::sort(order, order + num_masks, [&](EnsembleId a, EnsembleId b) {
    if (fe.cost_ms[a] != fe.cost_ms[b]) return fe.cost_ms[a] < fe.cost_ms[b];
    if (fe.true_ap[a] != fe.true_ap[b]) return fe.true_ap[a] > fe.true_ap[b];
    return a < b;
  });
  std::vector<EnsembleId> frontier;
  double best_ap = -1.0;
  for (uint32_t i = 0; i < num_masks; ++i) {
    const EnsembleId mask = order[i];
    if (fe.true_ap[mask] > best_ap) {
      best_ap = fe.true_ap[mask];
      frontier.push_back(mask);
    }
  }
  return frontier;
}

}  // namespace

Result<FrameMatrix> BuildFrameMatrix(const Video& video,
                                     const DetectorPool& pool,
                                     uint64_t trial_seed,
                                     const MatrixOptions& options) {
  VQE_RETURN_NOT_OK(options.Validate());
  if (pool.detectors.empty()) {
    return Status::InvalidArgument("detector pool is empty");
  }
  if (pool.detectors.size() > static_cast<size_t>(kMaxPoolSize)) {
    return Status::InvalidArgument("detector pool exceeds kMaxPoolSize");
  }
  if (pool.reference == nullptr) {
    return Status::InvalidArgument("pool has no reference model");
  }

  const int m = static_cast<int>(pool.detectors.size());
  const uint32_t num_masks = NumEnsembles(m);

  FrameMatrix matrix;
  matrix.num_models = m;
  matrix.model_names.reserve(pool.detectors.size());
  for (const auto& d : pool.detectors) matrix.model_names.push_back(d->name());
  // Pre-sized slots: frame t is a pure function of (video.frames[t],
  // trial_seed) and writes only matrix.frames[t], so workers race on
  // nothing and the matrix is bit-identical for every worker count.
  matrix.frames.resize(video.size());

  auto build_frame = [&](FrameEvalContext& ctx, size_t t) {
    const VideoFrame& frame = video.frames[t];
    FrameEvaluation& fe = matrix.frames[t];
    fe.context = frame.context;
    fe.est_ap.assign(num_masks + 1, 0.0);
    fe.true_ap.assign(num_masks + 1, 0.0);
    fe.cost_ms.assign(num_masks + 1, 0.0);
    fe.fusion_overhead_ms.assign(num_masks + 1, 0.0);

    // The shared per-frame kernel (also behind LazyFrameEvaluator, which
    // is what keeps lazy and eager bit-identical by construction) caches
    // the per-model outputs once; the loop below materializes the full
    // mask lattice from it — the eager path OPT/BF and the Figure 3
    // aggregates rely on.
    ctx.Load(frame);
    fe.model_cost_ms = ctx.model_cost_ms();
    fe.ref_cost_ms = ctx.ref_cost_ms();
    fe.available_mask = ctx.available_mask();
    fe.model_fault_ms = ctx.model_fault_ms();

    for (EnsembleId mask = 1; mask <= num_masks; ++mask) {
      const MaskEvaluation e = ctx.Evaluate(mask);
      fe.fusion_overhead_ms[mask] = e.fusion_overhead_ms;
      fe.cost_ms[mask] = e.cost_ms;
      fe.est_ap[mask] = e.est_ap;
      fe.true_ap[mask] = e.true_ap;
      if (fe.cost_ms[mask] > fe.max_cost_ms) fe.max_cost_ms = fe.cost_ms[mask];
    }
    fe.best_true_candidates = ParetoTrueCandidates(fe, num_masks);
  };

  // Chunks of consecutive frames, each reloading one context in place
  // frame after frame: one chunk on a serial build, else about eight per
  // worker (the slack ParallelFor itself keeps for skewed frames).
  const size_t n = video.size();
  const int workers = ResolveWorkers(options.parallelism, n);
  const size_t chunk =
      workers <= 1 ? n
                   : std::max<size_t>(1, n / (static_cast<size_t>(workers) * 8));
  const size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
  ParallelFor(num_chunks, options.parallelism, [&](size_t c) {
    FrameEvalContext ctx(pool, trial_seed, options);
    const size_t end = std::min(n, (c + 1) * chunk);
    for (size_t t = c * chunk; t < end; ++t) build_frame(ctx, t);
  });
  return matrix;
}

std::vector<double> AverageTrueApPerEnsemble(const FrameMatrix& matrix) {
  const uint32_t num_masks = matrix.num_ensembles();
  std::vector<double> avg(num_masks + 1, 0.0);
  if (matrix.frames.empty()) return avg;
  for (const auto& fe : matrix.frames) {
    for (EnsembleId s = 1; s <= num_masks; ++s) avg[s] += fe.true_ap[s];
  }
  for (auto& v : avg) v /= static_cast<double>(matrix.frames.size());
  return avg;
}

std::vector<double> AverageNormCostPerEnsemble(const FrameMatrix& matrix) {
  const uint32_t num_masks = matrix.num_ensembles();
  std::vector<double> avg(num_masks + 1, 0.0);
  if (matrix.frames.empty()) return avg;
  for (const auto& fe : matrix.frames) {
    for (EnsembleId s = 1; s <= num_masks; ++s) {
      avg[s] += fe.max_cost_ms > 0 ? fe.cost_ms[s] / fe.max_cost_ms : 0.0;
    }
  }
  for (auto& v : avg) v /= static_cast<double>(matrix.frames.size());
  return avg;
}

}  // namespace vqe

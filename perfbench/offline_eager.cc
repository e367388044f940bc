// offline_eager: the paper-reproduction path. One client, closed loop; a
// request is one trial — BuildFrameMatrix over all 2^m − 1 ensembles
// (frame-level ParallelFor on every core) of a clip cut from a video
// sampled in set-up, then RunStrategy for the Figure 4 line-up with regret
// on. Trials rotate over nusc, the c&n&r drift composition and bdd, each
// with its own pool.
//
// Trial lengths span the reproduction harness's two frame targets
// (bench_util: 1200 frames under VQE_BENCH_FAST, 4000 by default); clips
// are cut from each dataset sampled whole (scene_scale 1.0, the paper's
// dataset sizes).
//
// Output check: all six strategies are re-run, regret on, over a
// LazyFrameEvaluator on the same clip — the second evaluation path the
// repository guarantees bit-identical. OPT, BF and the regret baseline
// scan every ensemble of every frame (a lazy source has no cached
// frontier), so a wrong cell anywhere in the lattice that moves any
// trial result shows.

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/frame_matrix.h"
#include "core/lazy_frame_evaluator.h"
#include "models/model_zoo.h"
#include "workload.h"
#include "wrappers.h"

namespace perfbench {

namespace {

using vqe::Result;
using vqe::Status;

constexpr const char* kDatasets[] = {"nusc", "c&n&r", "bdd"};
constexpr int kNumDatasets = 3;
/// Trial lengths, frames (continuous, stratified): bench_util's
/// VQE_BENCH_FAST and default frame targets.
constexpr double kMinFrames = 1200.0;
constexpr double kMaxFrames = 4000.0;

struct TrialSpec {
  int dataset = 0;
  size_t start = 0;
  size_t len = 0;
  uint64_t trial_seed = 0;
  uint64_t strategy_seed = 0;
};

class OfflineEager final : public Workload {
 public:
  explicit OfflineEager(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    vqe::SharedThreadPool();
    frames_ = 0;
    for (int q = 0; q < kNumDatasets; ++q) {
      VQE_RETURN_NOT_OK(inputs_[q].Load(
          kDatasets[q], vqe::HashCombine(seed_, static_cast<uint64_t>(q)),
          static_cast<size_t>(kMaxFrames)));
      frames_ += inputs_[q].video.size();
    }
    // Warm the pools, the thread pool and the allocator: one trial per
    // dataset.
    for (int q = 0; q < kNumDatasets; ++q) {
      RequestRecord rec;
      rec.id = kWarmupId + q;
      LoopResult unused;
      RunTrial(Spec(rec.id), false, &rec, &unused);
      if (!rec.ok) return Status::Internal("offline_eager: warm-up failed");
    }
    return Status::OK();
  }

  uint64_t setup_frames() const override { return frames_; }
  int64_t pass_requests() const override { return 24; }

  Result<LoopResult> Run(const StopRule& stop, bool traced) override {
    LoopResult out;
    const int64_t start_ns = NowNs();
    for (int64_t i = 0;; ++i) {
      if (stop.max_requests > 0 && i >= stop.max_requests) break;
      if (stop.seconds > 0 &&
          static_cast<double>(NowNs() - start_ns) / 1e9 >= stop.seconds) {
        break;
      }
      RequestRecord rec;
      rec.id = i;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(Layer::kRequest, i);
        RunTrial(Spec(i), traced, &rec, &out);
      }
      out.latencies_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      out.frames += rec.frames;
      out.requests.push_back(std::move(rec));
    }
    out.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
    return out;
  }

  std::vector<int64_t> Verify(
      const std::vector<RequestRecord>& records) override {
    return FailedIds(records,
                     [this](const RequestRecord& r) { return CheckTrial(r); });
  }

  void LayerMetrics(const LoopResult& pass, const Totals& totals,
                    std::map<std::string, double>* out) const override {
    (void)pass;
    // Detector spans are summed over the build's worker threads; divide
    // by their count before taking them off the build's wall time.
    const int workers = vqe::ResolveWorkers(0, static_cast<size_t>(kMinFrames));
    (*out)["core.eval_self_ms"] =
        totals.ms(Layer::kMatrixBuild) - totals.ms(Layer::kDetect) / workers;
  }

 private:
  TrialSpec Spec(int64_t i) const {
    TrialSpec s;
    s.dataset = static_cast<int>(i % kNumDatasets);
    const uint64_t j = static_cast<uint64_t>(i / kNumDatasets);
    s.len = static_cast<size_t>(
        StratifiedDraw(seed_, s.dataset, j, kMinFrames, kMaxFrames));
    vqe::Rng rng =
        vqe::MakeStreamRng(seed_, 0xEA6E2ULL, static_cast<uint64_t>(i));
    s.start = rng.UniformInt(inputs_[s.dataset].video.size() - s.len + 1);
    s.trial_seed = rng.Next();
    s.strategy_seed = rng.Next();
    return s;
  }

  void RunTrial(const TrialSpec& spec, bool traced, RequestRecord* rec,
                LoopResult* out) const {
    const SourceVideo& in = inputs_[spec.dataset];
    const vqe::Video clip = Slice(in.video, spec.start, spec.len);
    SetGlobalRequest(rec->id);
    Result<vqe::FrameMatrix> matrix = Status::Internal("not built");
    {
      ScopedSpan span(Layer::kMatrixBuild);
      matrix = vqe::BuildFrameMatrix(clip, traced ? in.timed : in.pool,
                                     spec.trial_seed);
    }
    if (!matrix.ok()) {
      rec->ok = false;
      return;
    }
    vqe::MatrixEvaluationSource source(*matrix);
    Digest all;
    const auto specs = vqe::DefaultTuviStrategies(10, 2);
    for (size_t k = 0; k < specs.size(); ++k) {
      std::unique_ptr<vqe::SelectionStrategy> strategy = specs[k].make();
      if (traced) {
        strategy =
            std::make_unique<TimedStrategy>(std::move(strategy), rec->id);
      }
      vqe::EngineOptions eo;
      eo.strategy_seed = vqe::HashCombine(spec.strategy_seed, k);
      Result<vqe::RunResult> run = Status::Internal("not run");
      {
        ScopedSpan span(Layer::kRunStrategy);
        run = vqe::RunStrategy(source, strategy.get(), eo);
      }
      if (!run.ok()) {
        rec->ok = false;
        return;
      }
      rec->check.push_back(DigestRun(*run, true));
      all.U64(rec->check.back());
    }
    rec->digest = all.value();
    rec->frames = matrix->size();
    if (traced) {
      out->layer["core.matrix_cells"] +=
          static_cast<double>(matrix->size()) * matrix->num_ensembles();
    }
  }

  bool CheckTrial(const RequestRecord& rec) const {
    if (!rec.ok) return false;
    const TrialSpec spec = Spec(rec.id);
    const SourceVideo& in = inputs_[spec.dataset];
    auto lazy = vqe::LazyFrameEvaluator::Create(
        Slice(in.video, spec.start, spec.len), in.pool, spec.trial_seed);
    if (!lazy.ok()) return false;
    std::vector<uint64_t> got;
    const auto specs = vqe::DefaultTuviStrategies(10, 2);
    for (size_t k = 0; k < specs.size(); ++k) {
      std::unique_ptr<vqe::SelectionStrategy> strategy = specs[k].make();
      vqe::EngineOptions eo;
      eo.strategy_seed = vqe::HashCombine(spec.strategy_seed, k);
      auto run = vqe::RunStrategy(**lazy, strategy.get(), eo);
      if (!run.ok()) return false;
      got.push_back(DigestRun(*run, true));
    }
    return got == rec.check;
  }

  uint64_t seed_;
  SourceVideo inputs_[kNumDatasets];
  uint64_t frames_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOfflineEager(uint64_t seed) {
  return std::make_unique<OfflineEager>(seed);
}

}  // namespace perfbench

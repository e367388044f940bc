#include "core/experiment.h"

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/baselines.h"
#include "core/mes.h"

namespace vqe {
namespace {

/// Strategy labels become path components of per-run checkpoint
/// directories; anything outside [A-Za-z0-9._-] is mapped to '_'.
std::string SanitizeLabel(const std::string& label) {
  std::string out = label.empty() ? std::string("strategy") : label;
  for (char& c : out) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// Steps `runs` in lockstep from frame `*frontier` up to (excluding)
/// `end`: frame f of every run before any run moves past f. A shared lazy
/// evaluator keeps one live frame context and no run reads a frame again
/// after stepping past it, so the whole line-up builds each frame once.
Status StepLockstep(const std::vector<EngineRun*>& runs, size_t end,
                    size_t* frontier) {
  for (; *frontier < end; ++*frontier) {
    for (EngineRun* run : runs) {
      if (!run->done() && run->next_frame() == *frontier) {
        VQE_RETURN_NOT_OK(run->StepFrame());
      }
    }
  }
  return Status::OK();
}

/// The source a calibrating run (SelectionStrategy::calibrates_on_video)
/// is created on. Before a read of frame t it steps the line-up's online
/// runs through t, so a whole-video calibration reads each frame while
/// its context is live for them, instead of touching every frame ahead
/// of them. Everything else forwards to the shared source.
class CatchUpSource final : public EvaluationSource {
 public:
  CatchUpSource(EvaluationSource& inner, const std::vector<EngineRun*>& runs)
      : inner_(&inner), runs_(&runs) {}

  /// First error a caught-up run returned (reads cannot carry a Status).
  const Status& status() const { return status_; }

  int num_models() const override { return inner_->num_models(); }
  size_t num_frames() const override { return inner_->num_frames(); }
  FrameStats Stats(size_t t) override {
    CatchUp(t);
    return inner_->Stats(t);
  }
  MaskEvaluation Eval(size_t t, EnsembleId mask) override {
    CatchUp(t);
    return inner_->Eval(t, mask);
  }
  MaskEvaluation EvalEstimate(size_t t, EnsembleId mask) override {
    CatchUp(t);
    return inner_->EvalEstimate(t, mask);
  }
  const std::vector<EnsembleId>* TrueFrontier(size_t t) override {
    return inner_->TrueFrontier(t);
  }
  SceneContext PeekContext(size_t t) override {
    return inner_->PeekContext(t);
  }
  bool SupportsPropagation() const override {
    return inner_->SupportsPropagation();
  }
  Result<double> ScorePropagated(size_t t,
                                 const DetectionList& dets) override {
    return inner_->ScorePropagated(t, dets);
  }
  const DetectionList* FusedOutput(size_t t, EnsembleId mask) override {
    CatchUp(t);
    return inner_->FusedOutput(t, mask);
  }

 private:
  void CatchUp(size_t t) {
    if (status_.ok()) status_ = StepLockstep(*runs_, t + 1, &frontier_);
  }

  EvaluationSource* inner_;
  const std::vector<EngineRun*>* runs_;
  size_t frontier_ = 0;
  Status status_ = Status::OK();
};

/// Runs the whole line-up over one trial's source into
/// result->outcomes[i].runs[trial].
Status RunLineup(EvaluationSource& source,
                 const std::vector<StrategySpec>& strategies,
                 const EngineOptions& options, size_t trial,
                 ExperimentResult* result) {
  const size_t n = strategies.size();
  std::vector<std::unique_ptr<SelectionStrategy>> lineup(n);
  for (size_t i = 0; i < n; ++i) {
    lineup[i] = strategies[i].make();
    if (lineup[i] == nullptr) {
      return Status::Internal("strategy factory returned null");
    }
  }
  // Online runs first; calibrating runs are created on the catch-up
  // source, so their calibration steps the online runs frame by frame.
  std::vector<std::unique_ptr<EngineRun>> runs(n);
  std::vector<EngineRun*> online;
  CatchUpSource catch_up(source, online);
  EngineOptions engine = options;
  for (const bool calibrating : {false, true}) {
    for (size_t i = 0; i < n; ++i) {
      if (lineup[i]->calibrates_on_video() != calibrating) continue;
      // Each (trial, strategy) run checkpoints into its own directory so
      // concurrent trials never share generation files and a resumed
      // experiment picks every run up exactly where it stopped.
      if (options.checkpoint.enabled()) {
        engine.checkpoint.directory = options.checkpoint.directory +
                                      "/trial-" + std::to_string(trial) +
                                      "/" + SanitizeLabel(strategies[i].label);
      }
      auto run = EngineRun::Create(calibrating ? catch_up : source,
                                   lineup[i].get(), engine);
      VQE_RETURN_NOT_OK(catch_up.status());
      if (!run.ok()) return run.status();
      runs[i] = std::move(run).value();
      if (!calibrating) online.push_back(runs[i].get());
    }
  }
  std::vector<EngineRun*> all;
  for (const auto& run : runs) all.push_back(run.get());
  size_t frontier = 0;
  VQE_RETURN_NOT_OK(StepLockstep(all, source.num_frames(), &frontier));
  for (size_t i = 0; i < n; ++i) {
    VQE_ASSIGN_OR_RETURN(result->outcomes[i].runs[trial], runs[i]->Finish());
  }
  return Status::OK();
}

}  // namespace

Status ExperimentConfig::Validate() const {
  if (dataset == nullptr) {
    return Status::InvalidArgument("experiment has no dataset");
  }
  if (scene_scale <= 0.0 || scene_scale > 1.0) {
    return Status::InvalidArgument("scene_scale must be in (0, 1]");
  }
  if (trials < 1) return Status::InvalidArgument("trials must be >= 1");
  if (parallelism < 0) {
    return Status::InvalidArgument("parallelism must be >= 0");
  }
  for (const FaultScript& script : fault_scripts) {
    VQE_RETURN_NOT_OK(script.Validate());
  }
  VQE_RETURN_NOT_OK(matrix.Validate());
  return engine.Validate();
}

Result<DetectorPool> ApplyFaultScripts(
    const DetectorPool& pool, const std::vector<FaultScript>& scripts) {
  if (scripts.size() != pool.detectors.size()) {
    return Status::InvalidArgument(
        "fault_scripts size must equal the pool size");
  }
  if (pool.reference == nullptr) {
    return Status::InvalidArgument("pool has no reference model");
  }
  for (const FaultScript& script : scripts) {
    VQE_RETURN_NOT_OK(script.Validate());
  }
  DetectorPool decorated;
  decorated.detectors.reserve(pool.detectors.size());
  for (size_t i = 0; i < pool.detectors.size(); ++i) {
    decorated.detectors.push_back(std::make_unique<FaultInjectingDetector>(
        pool.detectors[i].get(), scripts[i]));
  }
  // The reference channel is the estimator, not a candidate arm — it is
  // cloned, never fault-injected (its profile fully determines it).
  decorated.reference =
      std::make_unique<ReferenceDetector>(pool.reference->profile());
  return decorated;
}

const StrategyOutcome* ExperimentResult::Find(const std::string& label) const {
  for (const auto& o : outcomes) {
    if (o.label == label) return &o;
  }
  return nullptr;
}

Result<FrameMatrix> BuildTrialMatrix(const ExperimentConfig& config,
                                     const DetectorPool& pool,
                                     uint64_t trial_index) {
  VQE_RETURN_NOT_OK(config.Validate());
  const uint64_t trial_seed = HashCombine(config.base_seed, trial_index);
  SampleOptions sample;
  sample.scene_scale = config.scene_scale;
  sample.seed = trial_seed;
  VQE_ASSIGN_OR_RETURN(Video video, SampleVideo(*config.dataset, sample));
  if (config.video_transform) config.video_transform(video, trial_seed);
  return BuildFrameMatrix(video, pool, trial_seed, config.matrix);
}

Result<std::unique_ptr<LazyFrameEvaluator>> BuildTrialEvaluator(
    const ExperimentConfig& config, const DetectorPool& pool,
    uint64_t trial_index) {
  VQE_RETURN_NOT_OK(config.Validate());
  const uint64_t trial_seed = HashCombine(config.base_seed, trial_index);
  SampleOptions sample;
  sample.scene_scale = config.scene_scale;
  sample.seed = trial_seed;
  VQE_ASSIGN_OR_RETURN(Video video, SampleVideo(*config.dataset, sample));
  if (config.video_transform) config.video_transform(video, trial_seed);
  return LazyFrameEvaluator::Create(std::move(video), pool, trial_seed,
                                    config.matrix);
}

Result<ExperimentResult> RunExperiment(
    const ExperimentConfig& config, const DetectorPool& pool,
    const std::vector<StrategySpec>& strategies) {
  VQE_RETURN_NOT_OK(config.Validate());
  if (strategies.empty()) {
    return Status::InvalidArgument("no strategies to run");
  }

  // With fault scripts configured, run every trial against the decorated
  // pool. The decoration is non-owning, so `pool` (a parameter with caller
  // lifetime) safely backs it for the whole experiment.
  const DetectorPool* run_pool = &pool;
  DetectorPool faulty_pool;
  if (!config.fault_scripts.empty()) {
    VQE_ASSIGN_OR_RETURN(faulty_pool,
                         ApplyFaultScripts(pool, config.fault_scripts));
    run_pool = &faulty_pool;
  }

  ExperimentResult result;
  result.outcomes.resize(strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    result.outcomes[i].label = strategies[i].label;
  }
  for (auto& o : result.outcomes) {
    o.runs.resize(static_cast<size_t>(config.trials));
  }

  // Resolve the backend once, before any trial runs. Skip-enabled runs
  // need the lazy source's propagation hooks. Otherwise go lazy only when
  // laziness can pay off: every strategy in the line-up is online
  // (!needs_full_lattice()) and the engine will not run the full-lattice
  // regret scan. Factories are instantiated once here purely to read the
  // flag; trial runs make fresh instances as before.
  bool lazy = config.engine.skip.enabled();
  if (!lazy && !config.engine.compute_regret) {
    lazy = true;
    for (const auto& spec : strategies) {
      auto probe = spec.make == nullptr ? nullptr : spec.make();
      if (probe == nullptr) {
        return Status::Internal("strategy factory returned null");
      }
      if (probe->needs_full_lattice()) {
        lazy = false;
        break;
      }
    }
  }

  // One trial = sample video, build matrix, run every strategy. Trials are
  // independent and deterministically seeded, so they can run on worker
  // threads; results land in pre-sized slots, making the outcome identical
  // for any thread count. Trial- and frame-level parallelism share the
  // process pool: when trials occupy the workers, BuildFrameMatrix's inner
  // ParallelFor detects the enclosing region and stays serial.
  std::vector<double> frames_per_trial(static_cast<size_t>(config.trials),
                                       0.0);
  std::vector<Status> trial_status(static_cast<size_t>(config.trials));
  auto run_trial = [&](size_t trial) {
    // Either backend yields bit-identical runs (shared FrameEvalContext
    // kernel); lazy skips the masks no strategy touches. One evaluator is
    // shared across the trial's strategies, stepped in lockstep — cells
    // are pure functions of (frame, mask), so a run reading a cell
    // another run materialized just hits the memo.
    std::unique_ptr<LazyFrameEvaluator> evaluator;
    FrameMatrix matrix;
    EvaluationSource* source = nullptr;
    if (lazy) {
      auto eval_result =
          BuildTrialEvaluator(config, *run_pool, static_cast<uint64_t>(trial));
      if (!eval_result.ok()) {
        trial_status[static_cast<size_t>(trial)] = eval_result.status();
        return;
      }
      evaluator = std::move(eval_result).value();
      source = evaluator.get();
      frames_per_trial[static_cast<size_t>(trial)] =
          static_cast<double>(evaluator->num_frames());
    } else {
      auto matrix_result =
          BuildTrialMatrix(config, *run_pool, static_cast<uint64_t>(trial));
      if (!matrix_result.ok()) {
        trial_status[static_cast<size_t>(trial)] = matrix_result.status();
        return;
      }
      matrix = std::move(matrix_result).value();
      frames_per_trial[static_cast<size_t>(trial)] =
          static_cast<double>(matrix.size());
    }
    MatrixEvaluationSource matrix_source(matrix);
    if (source == nullptr) source = &matrix_source;

    EngineOptions engine = config.engine;
    engine.strategy_seed =
        HashCombine(config.base_seed, 0xABCD0000ULL + trial);
    trial_status[static_cast<size_t>(trial)] =
        RunLineup(*source, strategies, engine, trial, &result);
  };

  ParallelFor(static_cast<size_t>(config.trials), config.parallelism,
              run_trial);

  double total_frames = 0.0;
  for (int trial = 0; trial < config.trials; ++trial) {
    VQE_RETURN_NOT_OK(trial_status[static_cast<size_t>(trial)]);
    total_frames += frames_per_trial[static_cast<size_t>(trial)];
  }
  result.avg_video_frames = total_frames / config.trials;

  for (auto& outcome : result.outcomes) {
    outcome.regret_available = config.engine.compute_regret;
    std::vector<double> s_sum, ap, cost, regret, frames;
    std::vector<double> fallback, failed, fault;
    std::vector<double> simulated, algo_wall;
    for (const auto& run : outcome.runs) {
      s_sum.push_back(run.s_sum);
      ap.push_back(run.avg_true_ap);
      cost.push_back(run.avg_norm_cost);
      regret.push_back(run.regret);
      frames.push_back(static_cast<double>(run.frames_processed));
      fallback.push_back(static_cast<double>(run.fallback_frames));
      failed.push_back(static_cast<double>(run.failed_frames));
      fault.push_back(run.breakdown.fault_ms);
      simulated.push_back(run.breakdown.SimulatedMs());
      algo_wall.push_back(run.breakdown.algorithm_ms);
    }
    outcome.s_sum = Summarize(s_sum);
    outcome.avg_true_ap = Summarize(ap);
    outcome.avg_norm_cost = Summarize(cost);
    outcome.regret = Summarize(regret);
    outcome.frames_processed = Summarize(frames);
    outcome.fallback_frames = Summarize(fallback);
    outcome.failed_frames = Summarize(failed);
    outcome.fault_ms = Summarize(fault);
    // Two separate clocks on purpose: simulated per-run frame time sums
    // cleanly across concurrent trials, strategy wall time overlaps and
    // must stay its own ledger (see StrategyOutcome docs).
    outcome.simulated_ms = Summarize(simulated);
    outcome.algorithm_wall_ms = Summarize(algo_wall);
  }
  return result;
}

std::vector<StrategySpec> DefaultTuviStrategies(size_t gamma,
                                                size_t ef_explore) {
  return {
      {"OPT", [] { return std::make_unique<OptStrategy>(); }},
      {"BF", [] { return std::make_unique<BruteForceStrategy>(); }},
      {"SGL", [] { return std::make_unique<SingleBestStrategy>(); }},
      {"RAND", [] { return std::make_unique<RandomStrategy>(); }},
      {"EF",
       [ef_explore] {
         return std::make_unique<ExploreFirstStrategy>(ef_explore);
       }},
      {"MES",
       [gamma] {
         MesOptions opt;
         opt.gamma = gamma;
         return std::make_unique<MesStrategy>(opt);
       }},
  };
}

}  // namespace vqe

// Crash-injection matrix for ISSUE 4: a run that is killed mid-video and
// resumed from its newest good checkpoint generation must be bit-identical
// to the same run left uninterrupted — across all six online strategies,
// both evaluation backends (eager matrix / lazy evaluator), multiple worker
// counts, and with PR 3 fault scripts active. Also covers the corruption
// fallback (newest generation damaged → previous one used), fresh-start
// behaviour when every generation is damaged, resume-identity validation,
// and end-to-end query resume including tracker (TRACKS) state.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/baselines.h"
#include "core/ducb.h"
#include "core/engine.h"
#include "core/engine_snapshot.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "core/mes_b.h"
#include "models/model_zoo.h"
#include "query/executor.h"
#include "runtime/fault_injection.h"
#include "sim/dataset.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "temporal/gate.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ExpectSameQuery;
using test::ExpectSameRun;
using test::MakePool;
using test::MakeStrategy;
using test::MakeVideo;
using test::ScratchDir;

constexpr char kScratch[] = "vqe_resume_test";

/// One engine invocation: builds a fresh source + strategy (as a restarted
/// process would) and runs it under `engine`.
using RunOnce = std::function<Result<RunResult>(const EngineOptions&)>;

/// Drives run_once to completion through repeated crash injections: every
/// invocation but the last must die with kAborted; the survivor's result is
/// returned. Invocation state is rebuilt from scratch each time — only the
/// checkpoint directory carries information across "crashes".
RunResult RunWithCrashes(const RunOnce& run_once, const EngineOptions& engine,
                         int* invocations = nullptr) {
  for (int attempt = 1; attempt <= 64; ++attempt) {
    Result<RunResult> run = run_once(engine);
    if (run.ok()) {
      if (invocations != nullptr) *invocations = attempt;
      return std::move(run).value();
    }
    EXPECT_EQ(run.status().code(), StatusCode::kAborted)
        << run.status().ToString();
  }
  ADD_FAILURE() << "crash-resume loop never completed";
  return RunResult{};
}

/// Builds the per-cell run_once closure for one backend/worker-count
/// combination. The eager matrix and the lazy evaluator are reconstructed
/// on every invocation — a real restart loses them with the process.
RunOnce MakeRunOnce(const Video& video, const DetectorPool& pool,
                    const std::string& kind, bool lazy_backend, int workers,
                    MatrixOptions matrix_options, uint64_t trial_seed) {
  matrix_options.parallelism = workers;
  return [&video, &pool, kind, lazy_backend, matrix_options,
          trial_seed](const EngineOptions& engine) -> Result<RunResult> {
    std::unique_ptr<SelectionStrategy> strategy = MakeStrategy(kind);
    if (lazy_backend) {
      auto lazy =
          LazyFrameEvaluator::Create(video, pool, trial_seed, matrix_options);
      if (!lazy.ok()) return lazy.status();
      return RunStrategy(**lazy, strategy.get(), engine);
    }
    auto matrix = BuildFrameMatrix(video, pool, trial_seed, matrix_options);
    if (!matrix.ok()) return matrix.status();
    return RunStrategy(*matrix, strategy.get(), engine);
  };
}

/// One EngineRun over its own lazy evaluator (trial seed 9) and strategy,
/// as a process that creates, exports or restores a session holds them.
struct LazyRun {
  LazyRun(const Video& video, const DetectorPool& pool,
          const std::string& kind, const EngineOptions& engine)
      : source(std::move(LazyFrameEvaluator::Create(video, pool,
                                                    /*trial_seed=*/9))
                   .value()),
        strategy(MakeStrategy(kind)),
        run(std::move(EngineRun::Create(*source, strategy.get(), engine))
                .value()) {}

  void StepTo(size_t frame) {
    while (run->next_frame() < frame) ASSERT_TRUE(run->StepFrame().ok());
  }
  RunResult Finish() {
    while (!run->done()) EXPECT_TRUE(run->StepFrame().ok());
    return std::move(run->Finish()).value();
  }
  SnapshotReader Export() const {
    return std::move(SnapshotReader::Parse(
                         std::move(run->ExportSnapshot()).value()))
        .value();
  }

  std::unique_ptr<LazyFrameEvaluator> source;
  std::unique_ptr<SelectionStrategy> strategy;
  std::unique_ptr<EngineRun> run;
};

/// Flips one bit in the middle of a generation file.
void CorruptFile(const std::string& path) {
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary |
                     std::ios::ate);
  ASSERT_TRUE(f.is_open()) << path;
  const std::streampos size = f.tellg();
  ASSERT_GT(size, std::streampos(0));
  const std::streampos mid = size / 2;
  f.seekg(mid);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(mid);
  f.write(&byte, 1);
  ASSERT_TRUE(f.good());
}

// ---------------------------------------------------------------------------
// The crash matrix (tentpole acceptance): six strategies × {eager, lazy} ×
// worker counts, clean pool.

void RunCrashMatrix(const Video& video, const DetectorPool& pool,
                    const MatrixOptions& matrix_options,
                    const EngineOptions& base_engine, const std::string& tag) {
  const std::vector<std::string> kinds = {"MES",   "MES-B", "SW-MES",
                                          "D-MES", "RAND",  "EF"};
  for (const std::string& kind : kinds) {
    for (const bool lazy_backend : {false, true}) {
      for (const int workers : {1, 4}) {
        SCOPED_TRACE(tag + "/" + kind +
                     (lazy_backend ? "/lazy" : "/eager") + "/w" +
                     std::to_string(workers));
        const RunOnce run_once = MakeRunOnce(video, pool, kind, lazy_backend,
                                             workers, matrix_options,
                                             /*trial_seed=*/9);
        const Result<RunResult> baseline = run_once(base_engine);
        ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

        EngineOptions ck = base_engine;
        ck.checkpoint.every_frames = 4;
        ck.checkpoint.crash_after_frames = 6;
        ck.checkpoint.directory = ScratchDir(
            kScratch, tag + "/" + kind + (lazy_backend ? "-lazy" : "-eager") +
                          "-w" + std::to_string(workers));
        int invocations = 0;
        const RunResult resumed = RunWithCrashes(run_once, ck, &invocations);
        ExpectSameRun(*baseline, resumed);
        EXPECT_GT(invocations, 1) << "the crash must actually fire";
        EXPECT_TRUE(resumed.checkpoint.resumed);
        EXPECT_GT(resumed.checkpoint.resumed_from_frame, 0u);
      }
    }
  }
}

TEST(CrashMatrixTest, AllStrategiesBackendsAndWorkersResumeBitIdentically) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  ASSERT_GT(video.size(), 12u);

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  RunCrashMatrix(video, pool, MatrixOptions{}, engine, "clean");
}

// The same matrix with PR 3 fault scripts active: a mid-video outage, random
// errors/empties/spikes, retries, and live circuit breakers — all of that
// state must survive the crash too.
TEST(CrashMatrixTest, FaultedRunsResumeBitIdentically) {
  const int m = 3;
  const DetectorPool pool = MakePool(m);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  ASSERT_GT(video.size(), 12u);

  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back({2, 8, FaultKind::kError, -1});
  scripts[1].error_rate = 0.2;
  scripts[1].empty_rate = 0.2;
  scripts[2].spike_rate = 0.3;
  scripts[2].garbage_rate = 0.2;
  const DetectorPool faulty =
      std::move(ApplyFaultScripts(pool, scripts)).value();

  MatrixOptions matrix_options;
  matrix_options.retry.max_attempts = 2;
  matrix_options.retry.backoff_base_ms = 0.25;

  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  engine.breaker.failure_threshold = 2;
  engine.breaker.open_frames = 5;
  RunCrashMatrix(video, faulty, matrix_options, engine, "faulted");
}

// ---------------------------------------------------------------------------
// Feature-specific resume coverage.

// Regret accumulation and the LRBP cost curve are part of the snapshot.
TEST(ResumeTest, RegretAndCostCurveSurviveResume) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/21);
  ASSERT_GT(video.size(), 10u);

  EngineOptions engine;
  engine.strategy_seed = 7;
  engine.compute_regret = true;
  engine.record_cost_curve = true;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/3);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->regret_available);
  ASSERT_FALSE(baseline->cost_curve.empty());

  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 3;
  ck.checkpoint.crash_after_frames = 5;
  ck.checkpoint.directory = ScratchDir(kScratch, "regret-curve");
  const RunResult resumed = RunWithCrashes(run_once, ck);
  ExpectSameRun(*baseline, resumed);
}

// A TCVI budget run: the spent budget is part of the cursor, so a resumed
// run must stop at exactly the same frame.
TEST(ResumeTest, BudgetedRunStopsAtTheSameFrameAfterResume) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/29);
  ASSERT_GT(video.size(), 10u);

  EngineOptions engine;
  engine.strategy_seed = 5;
  engine.compute_regret = false;
  engine.budget_ms = 400.0;  // cuts the run short mid-video

  const RunOnce run_once = MakeRunOnce(video, pool, "MES-B", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/3);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 3;
  ck.checkpoint.directory = ScratchDir(kScratch, "budget");
  const RunResult resumed = RunWithCrashes(run_once, ck);
  ExpectSameRun(*baseline, resumed);
}

// A restored lazy SGL run reads only frames it has not stepped yet, and
// SGL's calibration already recorded every frame's scalars, so finishing
// the run rebuilds no frame context — whether the snapshot arrives as a
// migration payload (RestoreFromSnapshot after Create) or from a
// checkpoint. Engine snapshots carry no evaluation memo that could
// overwrite those records.
TEST(ResumeTest, RestoredLazySglRunRebuildsNoFrame) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/43);
  ASSERT_GT(video.size(), 12u);
  EngineOptions engine;
  engine.strategy_seed = 13;
  engine.compute_regret = false;
  const RunResult solo = LazyRun(video, pool, "SGL", engine).Finish();

  // Migration path: export mid-video, restore into a fresh run.
  LazyRun origin(video, pool, "SGL", engine);
  origin.StepTo(video.size() / 2);
  LazyRun target(video, pool, "SGL", engine);
  ASSERT_TRUE(target.run->RestoreFromSnapshot(origin.Export()).ok());
  ExpectSameRun(solo, target.Finish());
  EXPECT_EQ(target.source->frames_rebuilt(), 0u);

  // Checkpoint path: the invocation that finishes resumed from disk.
  size_t last_rebuilt = 0;
  const RunOnce run_once =
      [&](const EngineOptions& options) -> Result<RunResult> {
    auto source = std::move(LazyFrameEvaluator::Create(video, pool,
                                                       /*trial_seed=*/9))
                      .value();
    auto strategy = MakeStrategy("SGL");
    Result<RunResult> run = RunStrategy(*source, strategy.get(), options);
    last_rebuilt = source->frames_rebuilt();
    return run;
  };
  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "lazy-sgl");
  const RunResult resumed = RunWithCrashes(run_once, ck);
  ExpectSameRun(solo, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
  EXPECT_EQ(last_rebuilt, 0u);
}

// An engine snapshot holds run state, not evaluation caches, so a lazy MES
// session's snapshot has one size however far into the video it is taken.
TEST(ResumeTest, LazyMesSnapshotSizeDoesNotGrowWithTheVideo) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 1.0;
  sample.seed = 7;
  Video video = std::move(SampleVideo(*spec, sample)).value();
  ASSERT_GE(video.size(), 900u);
  video.frames.resize(900);
  const DetectorPool pool = std::move(BuildPoolForDataset(spec->name)).value();
  auto lazy = std::move(LazyFrameEvaluator::Create(std::move(video), pool,
                                                   /*trial_seed=*/7))
                  .value();
  MesStrategy mes;
  EngineOptions engine;
  engine.strategy_seed = 7;
  engine.compute_regret = false;
  auto run = std::move(EngineRun::Create(*lazy, &mes, engine)).value();
  auto size_at = [&](size_t frame) {
    while (run->next_frame() < frame) EXPECT_TRUE(run->StepFrame().ok());
    return std::move(run->ExportSnapshot()).value().size();
  };
  const size_t early = size_at(150);
  const size_t late = size_at(450);
  EXPECT_EQ(early, late);
  EXPECT_LT(early, 4096u);
}

// The skip gate's tracker keeps live tracks only, so a gated run's
// `temporal` section is a fixed block plus 104 bytes (13 eight-byte
// fields) per live track, however long the video: 836 / 836 / 1,148 bytes
// at frames 150 / 450 / 899 here, where keeping every retired track made
// it 16,852 / 35,988 / 64,380. The live-track count is read back by
// restoring the section into a fresh gate.
TEST(TrackerStateTest, GatedSnapshotTemporalSectionHoldsLiveTracksOnly) {
  const DatasetSpec* spec = *DatasetCatalog::Default().Find("nusc-lowmotion");
  SampleOptions sample;
  sample.scene_scale = 1.0;
  sample.seed = 7;
  Video video = std::move(SampleVideo(*spec, sample)).value();
  ASSERT_GE(video.size(), 900u);
  video.frames.resize(900);
  const DetectorPool pool = std::move(BuildPoolForDataset(spec->name)).value();
  auto lazy = std::move(LazyFrameEvaluator::Create(std::move(video), pool,
                                                   /*trial_seed=*/7))
                  .value();
  DucbMesStrategy dmes;
  EngineOptions engine;
  engine.strategy_seed = 7;
  engine.compute_regret = false;
  engine.skip.mode = SkipMode::kDifficultyGated;
  engine.skip.skip_budget = 4;
  auto run = std::move(EngineRun::Create(*lazy, &dmes, engine)).value();

  // A fresh gate's state plus the engine's normalizer (one F64) is the
  // fixed part.
  auto fresh = std::move(TemporalGate::Create(engine.skip)).value();
  ByteWriter fresh_state;
  ASSERT_TRUE(fresh->SaveState(fresh_state).ok());
  const size_t fixed = sizeof(double) + fresh_state.size();

  const std::pair<size_t, size_t> expected[] = {
      {150, 836}, {450, 836}, {899, 1148}};
  for (const auto& [frame, bytes] : expected) {
    while (run->next_frame() < frame) ASSERT_TRUE(run->StepFrame().ok());
    const SnapshotReader snapshot =
        std::move(SnapshotReader::Parse(
                      std::move(run->ExportSnapshot()).value()))
            .value();
    ByteReader section =
        std::move(snapshot.Section(kTemporalSection)).value();
    const size_t section_bytes = section.remaining();
    double last_max_cost_ms = 0.0;
    ASSERT_TRUE(section.F64(&last_max_cost_ms).ok());
    auto restored = std::move(TemporalGate::Create(engine.skip)).value();
    ASSERT_TRUE(restored->RestoreState(section).ok());
    ASSERT_TRUE(section.ExpectEnd().ok());
    const size_t live = restored->tracker().tracks().size();
    EXPECT_EQ(section_bytes, fixed + 104 * live) << "frame " << frame;
    EXPECT_EQ(section_bytes, bytes) << "frame " << frame;
  }
}

// ---------------------------------------------------------------------------
// Corruption fallback and validation.

// Damage the newest generation after a crash: the resume must reject it,
// fall back to the previous good generation, report the rejection, and
// still finish bit-identically.
TEST(ResumeTest, FallsBackToPreviousGenerationWhenNewestIsCorrupt) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/37);
  ASSERT_GT(video.size(), 8u);

  EngineOptions engine;
  engine.strategy_seed = 13;
  engine.compute_regret = false;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/7);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  const std::string dir = ScratchDir(kScratch, "fallback");
  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = dir;

  // First invocation: writes generations at frames 2, 4, 6 then dies. The
  // retention window (2) keeps the two newest.
  const Result<RunResult> first = run_once(ck);
  ASSERT_FALSE(first.ok());
  ASSERT_EQ(first.status().code(), StatusCode::kAborted);

  CheckpointManager manager(dir);
  const std::vector<uint64_t> generations = manager.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);
  CorruptFile(manager.GenerationPath(generations.back()));

  // Second invocation, no crash: must skip the damaged newest generation.
  ck.checkpoint.crash_after_frames = 0;
  const Result<RunResult> resumed = run_once(ck);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->checkpoint.resumed);
  EXPECT_EQ(resumed->checkpoint.generations_rejected, 1);
  EXPECT_EQ(resumed->checkpoint.resumed_from_frame, 4u)
      << "generation at frame 6 was damaged; frame-4 generation is next";
  ExpectSameRun(*baseline, *resumed);
}

// Every generation damaged: the run reports nothing usable and starts
// fresh — same final result, resumed flag off.
TEST(ResumeTest, StartsFreshWhenEveryGenerationIsCorrupt) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/37);
  ASSERT_GT(video.size(), 8u);

  EngineOptions engine;
  engine.strategy_seed = 13;
  engine.compute_regret = false;

  const RunOnce run_once = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                       /*workers=*/1, MatrixOptions{},
                                       /*trial_seed=*/7);
  const Result<RunResult> baseline = run_once(engine);
  ASSERT_TRUE(baseline.ok());

  const std::string dir = ScratchDir(kScratch, "all-corrupt");
  EngineOptions ck = engine;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = dir;
  ASSERT_EQ(run_once(ck).status().code(), StatusCode::kAborted);

  CheckpointManager manager(dir);
  for (const uint64_t sequence : manager.ListGenerations()) {
    CorruptFile(manager.GenerationPath(sequence));
  }

  ck.checkpoint.crash_after_frames = 0;
  const Result<RunResult> fresh = run_once(ck);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->checkpoint.resumed);
  ExpectSameRun(*baseline, *fresh);
}

// A snapshot from a differently-configured run must be refused, not
// silently blended in.
TEST(ResumeTest, MismatchedRunIdentityIsRejected) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/41);
  ASSERT_GT(video.size(), 8u);

  EngineOptions ck;
  ck.strategy_seed = 19;
  ck.compute_regret = false;
  ck.checkpoint.every_frames = 2;
  ck.checkpoint.crash_after_frames = 5;
  ck.checkpoint.directory = ScratchDir(kScratch, "identity");

  const RunOnce mes = MakeRunOnce(video, pool, "MES", /*lazy=*/false,
                                  /*workers=*/1, MatrixOptions{},
                                  /*trial_seed=*/7);
  ASSERT_EQ(mes(ck).status().code(), StatusCode::kAborted);

  // Different strategy seed.
  EngineOptions other_seed = ck;
  other_seed.strategy_seed = 20;
  other_seed.checkpoint.crash_after_frames = 0;
  EXPECT_EQ(mes(other_seed).status().code(), StatusCode::kFailedPrecondition);

  // Different strategy altogether.
  EngineOptions no_crash = ck;
  no_crash.checkpoint.crash_after_frames = 0;
  const RunOnce sw = MakeRunOnce(video, pool, "SW-MES", /*lazy=*/false,
                                 /*workers=*/1, MatrixOptions{},
                                 /*trial_seed=*/7);
  EXPECT_EQ(sw(no_crash).status().code(), StatusCode::kFailedPrecondition);

  // The original configuration still resumes fine.
  const Result<RunResult> ok = mes(no_crash);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->checkpoint.resumed);
}

// ---------------------------------------------------------------------------
// End-to-end query resume.

QueryOutput RunQueryWithCrashes(const std::string& sql,
                                const QueryEngineOptions& options,
                                int* invocations = nullptr) {
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const Result<QueryOutput> out = ExecuteQuery(sql, options);
    if (out.ok()) {
      if (invocations != nullptr) *invocations = attempt;
      return *out;
    }
    EXPECT_EQ(out.status().code(), StatusCode::kAborted)
        << out.status().ToString();
  }
  ADD_FAILURE() << "query crash-resume loop never completed";
  return QueryOutput{};
}

QueryEngineOptions SmallQueryOptions() {
  QueryEngineOptions opt;
  opt.scene_scale = 0.02;
  opt.seed = 3;
  return opt;
}

TEST(QueryResumeTest, BasicQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(car) >= 1";
  const QueryEngineOptions opt = SmallQueryOptions();
  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 7;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-basic");
  int invocations = 0;
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck, &invocations);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_GT(invocations, 1);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// TRACKS() queries carry the IoU tracker across frames; its confirmed and
// tentative tracks must survive the crash intact.
TEST(QueryResumeTest, TracksQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(*; REF)) WHERE TRACKS(car) >= 1";
  const QueryEngineOptions opt = SmallQueryOptions();
  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->frames_matched, 0u)
      << "the predicate must actually depend on tracker state";

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 5;
  ck.checkpoint.crash_after_frames = 8;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-tracks");
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// Faulted query: retries, breakers, and per-model runtime stacks active.
TEST(QueryResumeTest, FaultedQueryResumesBitIdentically) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF)) "
      "WHERE COUNT(*) >= 1";
  QueryEngineOptions opt = SmallQueryOptions();
  opt.retry.max_attempts = 2;
  opt.retry.backoff_base_ms = 0.25;
  opt.breaker.failure_threshold = 2;
  opt.breaker.open_frames = 4;
  opt.fault_scripts.resize(2);
  opt.fault_scripts[0].error_rate = 0.3;
  opt.fault_scripts[1].bursts.push_back({3, 9, FaultKind::kError, -1});

  const Result<QueryOutput> baseline = ExecuteQuery(sql, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->fallback_frames + baseline->failed_frames, 0u)
      << "the scripts must actually degrade some frames";

  QueryEngineOptions ck = opt;
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-faulted");
  const QueryOutput resumed = RunQueryWithCrashes(sql, ck);
  ExpectSameQuery(*baseline, resumed);
  EXPECT_TRUE(resumed.checkpoint.resumed);
}

// A query snapshot belongs to one exact query + options; resuming with a
// different seed must be refused.
TEST(QueryResumeTest, MismatchedQueryIdentityIsRejected) {
  const std::string sql =
      "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
      "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF))";
  QueryEngineOptions ck = SmallQueryOptions();
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, "query-identity");
  ASSERT_EQ(ExecuteQuery(sql, ck).status().code(), StatusCode::kAborted);

  QueryEngineOptions other = ck;
  other.seed = 99;
  other.checkpoint.crash_after_frames = 0;
  EXPECT_EQ(ExecuteQuery(sql, other).status().code(),
            StatusCode::kFailedPrecondition);

  ck.checkpoint.crash_after_frames = 0;
  const Result<QueryOutput> ok = ExecuteQuery(sql, ck);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->checkpoint.resumed);
}

// ---------------------------------------------------------------------------
// Snapshot identity: a query resume under any changed configuration field
// is refused naming that field, and hostile or older-build meta sections
// are refused before the run they target changes.

const char kIdentitySql[] =
    "SELECT frameID FROM (PROCESS nusc-night PRODUCE frameID, Detections "
    "USING MES(yolov7-tiny@clear, yolov7-tiny@night; REF))";

/// Leaves a checkpoint of kIdentitySql in a fresh directory `name` and
/// returns options that resume from it.
QueryEngineOptions CrashedIdentityQuery(const std::string& name) {
  QueryEngineOptions ck = SmallQueryOptions();
  ck.checkpoint.every_frames = 4;
  ck.checkpoint.crash_after_frames = 6;
  ck.checkpoint.directory = ScratchDir(kScratch, name);
  EXPECT_EQ(ExecuteQuery(kIdentitySql, ck).status().code(),
            StatusCode::kAborted);
  ck.checkpoint.crash_after_frames = 0;
  return ck;
}

// Every field of the query identity that can change on its own; the video
// length (num_video_frames) follows from the video, seed and scale fields
// written before it.
TEST(IdentityResumeTest, QueryRefusesEveryFieldChange) {
  const QueryEngineOptions ck = CrashedIdentityQuery("query-fields");
  auto expect_refused = [&](const std::string& field, const std::string& sql,
                            const QueryEngineOptions& options) {
    const Status st = ExecuteQuery(sql, options).status();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
        << field << ": " << st.ToString();
    EXPECT_NE(st.message().find("different " + field + ":"),
              std::string::npos)
        << st.ToString();
  };
  auto edited = [](std::string sql, const std::string& from,
                   const std::string& to) {
    sql.replace(sql.find(from), from.size(), to);
    return sql;
  };
  const std::string sql = kIdentitySql;
  expect_refused("strategy", edited(sql, "MES(", "MES-A("), ck);
  expect_refused("video", edited(sql, "nusc-night", "nusc-lowmotion"), ck);
  expect_refused("num_models",
                 edited(sql, "; REF", ", yolov7-tiny@rainy; REF"), ck);
  expect_refused("models",
                 edited(sql, "yolov7-tiny@night", "yolov7-tiny@rainy"), ck);
  expect_refused("stride", edited(sql, "nusc-night", "nusc-night STRIDE 2"),
                 ck);
  expect_refused("budget_ms", sql + " BUDGET 100000", ck);
  expect_refused("limit", sql + " LIMIT 1000", ck);
  expect_refused("where", sql + " WHERE COUNT(*) >= 0", ck);

  const std::vector<
      std::pair<std::string, std::function<void(QueryEngineOptions&)>>>
      changes = {
          {"seed", [](QueryEngineOptions& o) { ++o.seed; }},
          {"scene_scale", [](QueryEngineOptions& o) { o.scene_scale = 0.025; }},
          {"sc.w1",
           [](QueryEngineOptions& o) {
             o.sc.w1 = std::nextafter(o.sc.w1, 1.0);
           }},
          {"sc.w2",
           [](QueryEngineOptions& o) {
             o.sc.w2 = std::nextafter(o.sc.w2, 1.0);
           }},
          {"sc.form",
           [](QueryEngineOptions& o) { o.sc.form = ScoreForm::kLinear; }},
          {"gamma", [](QueryEngineOptions& o) { ++o.gamma; }},
          {"sw_window", [](QueryEngineOptions& o) { ++o.sw_window; }},
          {"breaker.failure_threshold",
           [](QueryEngineOptions& o) { ++o.breaker.failure_threshold; }},
          {"breaker.open_frames",
           [](QueryEngineOptions& o) { ++o.breaker.open_frames; }},
          {"breaker.half_open_probes",
           [](QueryEngineOptions& o) { ++o.breaker.half_open_probes; }},
          {"skip.mode",
           [](QueryEngineOptions& o) { o.skip.mode = SkipMode::kBandit; }},
          {"skip.skip_budget",
           [](QueryEngineOptions& o) { o.skip.skip_budget = 4; }},
      };
  for (const auto& [field, change] : changes) {
    QueryEngineOptions options = ck;
    change(options);
    ASSERT_FALSE(options.skip.enabled()) << field;
    expect_refused(field, sql, options);
  }

  // The refusals wrote nothing: the original configuration still resumes.
  const Result<QueryOutput> resumed = ExecuteQuery(sql, ck);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->checkpoint.resumed);
  ExpectSameQuery(std::move(ExecuteQuery(sql, SmallQueryOptions())).value(),
                  *resumed);
}

using SectionList = std::vector<std::pair<std::string, std::vector<uint8_t>>>;

/// Every section payload of a parsed snapshot, in file order.
SectionList CopySections(const SnapshotReader& snapshot) {
  SectionList sections;
  for (const std::string& name : snapshot.section_names()) {
    ByteReader r = std::move(snapshot.Section(name)).value();
    std::vector<uint8_t> payload(r.remaining());
    for (uint8_t& b : payload) EXPECT_TRUE(r.U8(&b).ok());
    sections.emplace_back(name, std::move(payload));
  }
  return sections;
}

/// A fresh container of `sections` with `name`'s payload replaced by
/// `payload`, plus any `extra` sections. The CRCs are recomputed, so the
/// bytes reach the identity comparer instead of failing container
/// validation.
std::vector<uint8_t> Rewrap(const SectionList& sections,
                            const std::string& name,
                            const std::vector<uint8_t>& payload,
                            const SectionList& extra = {}) {
  SnapshotWriter writer;
  for (const auto& [section, bytes] : sections) {
    const std::vector<uint8_t>& out = section == name ? payload : bytes;
    writer.AddSection(section).Bytes(out.data(), out.size());
  }
  for (const auto& [section, bytes] : extra) {
    writer.AddSection(section).Bytes(bytes.data(), bytes.size());
  }
  return writer.Finish();
}

const std::vector<uint8_t>& SectionPayload(const SectionList& sections,
                                           const std::string& name) {
  for (const auto& [section, bytes] : sections) {
    if (section == name) return bytes;
  }
  ADD_FAILURE() << "no section " << name;
  static const std::vector<uint8_t> kNone;
  return kNone;
}

/// The newest generation of a checkpoint directory: its sections, and a
/// way to replace the file with other bytes.
struct NewestGeneration {
  explicit NewestGeneration(const std::string& directory) {
    const CheckpointManager manager(directory);
    const CheckpointManager::Loaded loaded =
        std::move(manager.LoadLatestGood()).value();
    sections = CopySections(loaded.snapshot);
    path = manager.GenerationPath(loaded.sequence);
  }
  void Overwrite(const std::vector<uint8_t>& bytes) const {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }

  SectionList sections;
  std::string path;
};

EngineOptions IdentityEngineOptions() {
  EngineOptions engine;
  engine.strategy_seed = 42;
  engine.compute_regret = false;
  return engine;
}

/// Single-byte changes applied at every position of a meta payload: each
/// single-bit flip, and the complement.
constexpr uint8_t kByteChanges[] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0xFF};

/// Calls `visit` with every proper truncation of `meta` and with `meta`
/// XOR-ed at one position by one of kByteChanges, for every position;
/// returns how many payloads it visited.
size_t ForEachMetaMutation(
    const std::vector<uint8_t>& meta,
    const std::function<void(const std::vector<uint8_t>&)>& visit) {
  size_t visited = 0;
  for (size_t len = 0; len < meta.size(); ++len) {
    visit(std::vector<uint8_t>(meta.begin(),
                               meta.begin() + static_cast<long>(len)));
    ++visited;
  }
  std::vector<uint8_t> changed = meta;
  for (size_t i = 0; i < meta.size(); ++i) {
    for (const uint8_t mask : kByteChanges) {
      changed[i] = meta[i] ^ mask;
      visit(changed);
      ++visited;
    }
    changed[i] = meta[i];
  }
  return visited;
}

// Every truncation of a real engine.meta section, and every byte of it
// changed nine ways, is refused, and the target run is left exactly as
// created: it then runs from frame 0 to a result identical to the solo
// run's.
TEST(IdentityResumeTest, HostileEngineMetaIsRefusedAndLeavesTargetUntouched) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  const EngineOptions engine = IdentityEngineOptions();
  const RunResult solo = LazyRun(video, pool, "MES", engine).Finish();
  LazyRun origin(video, pool, "MES", engine);
  origin.StepTo(6);
  const SectionList sections = CopySections(origin.Export());
  const std::vector<uint8_t>& meta =
      SectionPayload(sections, kEngineMetaSection);

  LazyRun target(video, pool, "MES", engine);
  size_t refused = 0;
  const size_t visited = ForEachMetaMutation(
      meta, [&](const std::vector<uint8_t>& bad) {
        const Result<SnapshotReader> snapshot =
            SnapshotReader::Parse(Rewrap(sections, kEngineMetaSection, bad));
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        if (!target.run->RestoreFromSnapshot(*snapshot).ok()) ++refused;
      });
  EXPECT_EQ(refused, visited);
  EXPECT_EQ(visited, meta.size() * (1 + std::size(kByteChanges)));
  EXPECT_EQ(target.run->next_frame(), 0u);
  ExpectSameRun(solo, target.Finish());
}

// The same sweep over a real query checkpoint's query.meta: each mutated
// generation is refused, and the untouched generation then resumes to the
// solo query's output.
TEST(IdentityResumeTest, HostileQueryMetaIsRefusedAndTheCheckpointResumes) {
  const QueryEngineOptions ck = CrashedIdentityQuery("query-hostile");
  const NewestGeneration generation(ck.checkpoint.directory);
  const std::vector<uint8_t>& meta =
      SectionPayload(generation.sections, "query.meta");

  size_t refused = 0;
  const size_t visited = ForEachMetaMutation(
      meta, [&](const std::vector<uint8_t>& bad) {
        generation.Overwrite(Rewrap(generation.sections, "query.meta", bad));
        if (!ExecuteQuery(kIdentitySql, ck).ok()) ++refused;
      });
  EXPECT_EQ(refused, visited);

  generation.Overwrite(Rewrap(generation.sections, "query.meta", meta));
  const Result<QueryOutput> resumed = ExecuteQuery(kIdentitySql, ck);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->checkpoint.resumed);
  ExpectSameQuery(
      std::move(ExecuteQuery(kIdentitySql, SmallQueryOptions())).value(),
      *resumed);
}

/// The untagged skip-options fields older builds appended to both meta
/// layouts; the values after the budget were settable then and are the
/// gate's constants now.
void WriteUntaggedSkipOptions(ByteWriter& w, const SkipOptions& o) {
  const TrackerOptions tracker = PropagationTrackerDefaults();
  w.U8(static_cast<uint8_t>(o.mode));
  w.I64(o.skip_budget);
  w.F64(kSkipDifficultyThreshold);
  w.F64(kSkipConfidenceDecay);
  w.F64(kSkipAgreementFloor);
  w.F64(kSkipDriftPenalty);
  w.F64(kSkipUcbExploration);
  w.F64(tracker.iou_threshold);
  w.I64(tracker.max_missed);
  w.I64(tracker.min_hits);
  w.F64(tracker.min_confidence);
}

// Builds that predate the tagged identity wrote engine.meta and query.meta
// as bare values in a fixed order (and engine snapshots with a lazy-memo
// `source` section). Their snapshots describe the same configuration but
// are refused as another build's, before the target run changes.
TEST(IdentityResumeTest, UntaggedMetaFromOlderBuildsIsRefused) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  const EngineOptions engine = IdentityEngineOptions();
  const RunResult solo = LazyRun(video, pool, "MES", engine).Finish();
  LazyRun origin(video, pool, "MES", engine);
  origin.StepTo(6);

  ByteWriter engine_meta;
  engine_meta.Str("MES");
  engine_meta.I64(3);
  engine_meta.U64(video.size());
  engine_meta.U64(engine.strategy_seed);
  engine_meta.F64(engine.budget_ms);
  engine_meta.F64(engine.sc.w1);
  engine_meta.F64(engine.sc.w2);
  engine_meta.U8(static_cast<uint8_t>(engine.sc.form));
  engine_meta.Bool(engine.compute_regret);
  engine_meta.Bool(engine.record_cost_curve);
  engine_meta.I64(engine.breaker.failure_threshold);
  engine_meta.U64(engine.breaker.open_frames);
  engine_meta.I64(engine.breaker.half_open_probes);
  WriteUntaggedSkipOptions(engine_meta, engine.skip);
  const SnapshotReader old_snapshot =
      std::move(SnapshotReader::Parse(Rewrap(
                    CopySections(origin.Export()), kEngineMetaSection,
                    engine_meta.bytes(),
                    {{"source", std::vector<uint8_t>(64, 0)}})))
          .value();
  LazyRun target(video, pool, "MES", engine);
  const Status refused = target.run->RestoreFromSnapshot(old_snapshot);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
  ExpectSameRun(solo, target.Finish());

  const QueryEngineOptions ck = CrashedIdentityQuery("query-untagged");
  const NewestGeneration generation(ck.checkpoint.directory);
  ByteWriter query_meta;
  query_meta.Str("MES");
  query_meta.Str("nusc-night");
  query_meta.I64(2);
  query_meta.U64(MakeVideo(ck.scene_scale, ck.seed).size());
  query_meta.U64(1);  // stride
  query_meta.U64(ck.seed);
  query_meta.F64(ck.scene_scale);
  query_meta.F64(0.0);  // budget_ms
  query_meta.U64(0);    // limit
  query_meta.F64(ck.sc.w1);
  query_meta.F64(ck.sc.w2);
  query_meta.U8(static_cast<uint8_t>(ck.sc.form));
  query_meta.U64(ck.gamma);
  query_meta.U64(ck.sw_window);
  WriteUntaggedSkipOptions(query_meta, ck.skip);
  generation.Overwrite(
      Rewrap(generation.sections, "query.meta", query_meta.bytes()));
  const Status query_refused = ExecuteQuery(kIdentitySql, ck).status();
  EXPECT_EQ(query_refused.code(), StatusCode::kFailedPrecondition)
      << query_refused.ToString();
}

// ---------------------------------------------------------------------------
// Snapshots carry no wall time.

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// An engine snapshot holds run state only, so two runs of one
// configuration export the same bytes at the same frame and write the
// same checkpoint generations.
TEST(ResumeTest, SnapshotsAreByteIdenticalAcrossRuns) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  const EngineOptions engine = IdentityEngineOptions();
  LazyRun a(video, pool, "MES", engine);
  LazyRun b(video, pool, "MES", engine);
  a.StepTo(6);
  b.StepTo(6);
  EXPECT_EQ(std::move(a.run->ExportSnapshot()).value(),
            std::move(b.run->ExportSnapshot()).value());

  std::vector<std::vector<uint8_t>> generations[2];
  for (int i = 0; i < 2; ++i) {
    EngineOptions ck = engine;
    ck.checkpoint.every_frames = 3;
    ck.checkpoint.directory =
        ScratchDir(kScratch, "byte-identical-" + std::to_string(i));
    LazyRun(video, pool, "MES", ck).Finish();
    const CheckpointManager manager(ck.checkpoint.directory);
    for (const uint64_t sequence : manager.ListGenerations()) {
      generations[i].push_back(ReadFile(manager.GenerationPath(sequence)));
    }
  }
  ASSERT_EQ(generations[0].size(), 2u);
  EXPECT_EQ(generations[0], generations[1]);
}

// Older builds also wrote the run's wall-clock strategy seconds into
// engine.cursor. Their snapshots still restore, to the solo result.
TEST(ResumeTest, CursorWithWallSecondsFromOlderBuildsRestores) {
  const DetectorPool pool = MakePool(3);
  const Video video = MakeVideo(/*scene_scale=*/0.02, /*seed=*/17);
  const EngineOptions engine = IdentityEngineOptions();
  const RunResult solo = LazyRun(video, pool, "MES", engine).Finish();
  LazyRun origin(video, pool, "MES", engine);
  origin.StepTo(6);
  const SectionList sections = CopySections(origin.Export());
  EXPECT_EQ(SectionPayload(sections, kEngineCursorSection).size(),
            sizeof(uint64_t));
  ByteWriter older;
  older.U64(6);
  older.F64(0.125);  // wall-clock strategy seconds
  const SnapshotReader snapshot =
      std::move(SnapshotReader::Parse(
                    Rewrap(sections, kEngineCursorSection, older.bytes())))
          .value();
  LazyRun target(video, pool, "MES", engine);
  ASSERT_TRUE(target.run->RestoreFromSnapshot(snapshot).ok());
  EXPECT_EQ(target.run->next_frame(), 6u);
  ExpectSameRun(solo, target.Finish());
}

}  // namespace
}  // namespace vqe

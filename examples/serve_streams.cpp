// Multi-stream serving: six video streams with different bandit
// strategies and priority classes share one scheduler. The scheduler
// admits up to four at once and queues one more; the sixth submission is
// shed with kResourceExhausted instead of stalling. One stream runs
// against a flaky detector pool, and its failures surface in the fleet
// health snapshot without perturbing any other stream — every admitted
// stream's result is bit-identical to running it alone.
//
//   ./build/examples/serve_streams

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "models/model_zoo.h"
#include "serve/scheduler.h"
#include "serve/stream_session.h"

int main() {
  using namespace vqe;

  const int m = 3;
  const DetectorPool pool = std::move(BuildNuscenesPool(m)).value();

  // One flaky pool for the last stream: detector 0 goes dark mid-video.
  std::vector<FaultScript> scripts(static_cast<size_t>(m));
  scripts[0].bursts.push_back(
      {/*begin_frame=*/10, /*end_frame=*/60, FaultKind::kError,
       /*context=*/-1});

  const DatasetSpec& spec = **DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.05;
  sample.seed = 11;
  const Video video = std::move(SampleVideo(spec, sample)).value();

  // Capacity: 4 active slots + a queue of 1. Submitting 6 sheds the last.
  ServeOptions options;
  options.max_sessions = 4;
  options.queue_depth = 1;
  options.quantum_ms = 100.0;
  StreamScheduler scheduler(options);

  struct Spec {
    const char* name;
    PriorityClass priority;
    bool faulty;
  };
  const std::vector<Spec> streams = {
      {"dashcam-a", PriorityClass::kInteractive, false},
      {"dashcam-b", PriorityClass::kStandard, false},
      {"garage-cam", PriorityClass::kStandard, false},
      {"backfill", PriorityClass::kBatch, false},
      {"night-cam", PriorityClass::kStandard, true},
      {"overflow", PriorityClass::kBatch, false},
  };

  for (size_t i = 0; i < streams.size(); ++i) {
    const Spec& s = streams[i];
    std::vector<std::unique_ptr<DetectorPool>> owned;
    const DetectorPool* effective = &pool;
    if (s.faulty) {
      auto faulty = std::make_unique<DetectorPool>(
          std::move(ApplyFaultScripts(pool, scripts)).value());
      effective = faulty.get();
      owned.push_back(std::move(faulty));
    }

    auto source = std::move(LazyFrameEvaluator::Create(
                                video, *effective, /*trial_seed=*/i, {}))
                      .value();
    StreamSessionConfig cfg;
    cfg.name = s.name;
    cfg.priority = s.priority;
    cfg.engine.strategy_seed = 40 + i;
    cfg.engine.compute_regret = false;
    for (const auto& det : effective->detectors) {
      cfg.model_names.push_back(det->name());
    }
    MesOptions mes_opt;
    mes_opt.gamma = 2;
    auto session = std::move(StreamSession::Create(
                                 std::move(cfg), std::move(source),
                                 std::make_unique<MesStrategy>(mes_opt),
                                 std::move(owned)))
                       .value();
    auto id = scheduler.Submit(std::move(session));
    if (id.ok()) {
      std::printf("submitted %-10s (%s)\n", s.name,
                  PriorityClassToString(s.priority));
    } else {
      std::printf("SHED      %-10s : %s\n", s.name,
                  id.status().ToString().c_str());
    }
  }

  const ServeReport report = std::move(scheduler.RunUntilDrained()).value();

  std::printf("\nper-stream results (%zu frames each):\n\n",
              video.size());
  std::printf("%-12s %-12s %8s %10s %10s %8s\n", "stream", "priority",
              "rounds", "S-score", "cost(ms)", "failed");
  for (const StreamReport& s : report.streams) {
    std::printf("%-12s %-12s %8llu %10.2f %10.1f %8llu\n", s.name.c_str(),
                PriorityClassToString(s.priority),
                static_cast<unsigned long long>(s.rounds_active),
                s.result.s_sum, s.result.charged_cost_ms,
                static_cast<unsigned long long>(s.result.failed_frames));
  }

  std::printf("\nserve stats: %llu frames in %.1f ms wall "
              "(simulated frame-clock %.1f ms across streams), "
              "%llu/%llu admitted, %llu shed\n",
              static_cast<unsigned long long>(report.stats.frames),
              report.stats.wall_ms, report.stats.simulated_ms,
              static_cast<unsigned long long>(report.stats.admitted),
              static_cast<unsigned long long>(report.stats.submitted),
              static_cast<unsigned long long>(report.stats.shed_submissions));

  std::printf("\nper-class breakdown (simulated frame clock):\n");
  std::printf("  %-12s %9s %9s %6s %8s %10s %10s\n", "class", "submitted",
              "admitted", "shed", "frames", "p50(ms)", "p99(ms)");
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const auto& cs = report.stats.classes[c];
    if (cs.submitted == 0 && cs.frames == 0) continue;
    std::printf("  %-12s %9llu %9llu %6llu %8llu %10.3f %10.3f\n",
                PriorityClassToString(static_cast<PriorityClass>(c)),
                static_cast<unsigned long long>(cs.submitted),
                static_cast<unsigned long long>(cs.admitted),
                static_cast<unsigned long long>(cs.shed_submissions),
                static_cast<unsigned long long>(cs.frames), cs.sim_p50_ms,
                cs.sim_p99_ms);
  }

  std::printf("\nfleet health (from per-stream availability deltas):\n");
  for (const auto& h : report.stats.fleet_health) {
    std::printf("  %-22s %6llu ok %6llu failed  breaker=%s\n",
                h.model.c_str(),
                static_cast<unsigned long long>(h.successes),
                static_cast<unsigned long long>(h.failures),
                BreakerStateToString(h.state));
  }
  return 0;
}

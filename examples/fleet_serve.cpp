// Sharded fleet serving with live migration and failover: eight
// equal-length streams are placed round-robin on three shards (placement
// puts the longest streams first on the shard with the fewest frames);
// a chaos script migrates one live stream between shards mid-video
// (through the snapshot wire format) and then later kills a shard
// outright. The lost sessions restart on the survivors,
// and every stream still finishes with a result bit-identical to running
// it alone — the fleet may move work around, but never changes what any
// stream computes. Chaos and migrations happen between rounds in a fixed
// order, so everything printed except the ms timings repeats exactly.
//
//   ./build/examples/fleet_serve

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/lazy_frame_evaluator.h"
#include "core/mes.h"
#include "fleet/sharded_server.h"
#include "models/model_zoo.h"
#include "sim/dataset.h"

int main() {
  using namespace vqe;

  const DetectorPool pool = std::move(BuildNuscenesPool(3)).value();
  const DatasetSpec& spec = **DatasetCatalog::Default().Find("nusc-night");
  SampleOptions sample;
  sample.scene_scale = 0.05;
  sample.seed = 11;
  const Video video = std::move(SampleVideo(spec, sample)).value();

  // The factory is the stream's identity: the fleet calls it again for a
  // migration target or a failover restart, so it must rebuild the exact
  // same deterministic session every time.
  auto make_factory = [&video, &pool](std::string name, uint64_t seed) {
    return [&video, &pool, name = std::move(name),
            seed]() -> Result<std::unique_ptr<StreamSession>> {
      VQE_ASSIGN_OR_RETURN(
          auto source, LazyFrameEvaluator::Create(video, pool, seed, {}));
      StreamSessionConfig cfg;
      cfg.name = name;
      cfg.engine.strategy_seed = 40 + seed;
      cfg.engine.compute_regret = false;
      for (const auto& det : pool.detectors) {
        cfg.model_names.push_back(det->name());
      }
      MesOptions mes_opt;
      mes_opt.gamma = 2;
      return StreamSession::Create(std::move(cfg), std::move(source),
                                   std::make_unique<MesStrategy>(mes_opt),
                                   {});
    };
  };

  FleetOptions options;
  options.num_shards = 3;
  options.max_sessions = 8;
  options.max_restarts = 2;
  options.shard.max_sessions = 8;  // any survivor can absorb the fleet
  options.shard.quantum_ms = 50.0;
  options.shard.max_frames_per_round = 4;

  std::vector<FleetStreamSpec> streams;
  std::vector<RunResult> solo;
  for (uint64_t i = 0; i < 8; ++i) {
    const std::string name = "cam-" + std::to_string(i);
    auto source =
        std::move(LazyFrameEvaluator::Create(video, pool, i, {})).value();
    MesOptions mes_opt;
    mes_opt.gamma = 2;
    MesStrategy strategy(mes_opt);
    EngineOptions engine;
    engine.strategy_seed = 40 + i;
    engine.compute_regret = false;
    solo.push_back(
        std::move(RunStrategy(*source, &strategy, engine)).value());
    streams.push_back({name, make_factory(name, i)});
  }

  // Chaos: move cam-0 (the first of the equal-length streams, so placed on
  // shard 0) onto shard 2 at shard 0's round 2, then crash shard 2 at its
  // round 25 — the migrated stream and every other session there fail
  // over to the survivors.
  ChaosScript chaos;
  ChaosEvent migrate;
  migrate.kind = ChaosEvent::Kind::kMigrate;
  migrate.at_round = 2;
  migrate.shard = 0;
  migrate.target_shard = 2;
  migrate.stream = streams.front().name;
  chaos.events.push_back(migrate);
  ChaosEvent kill;
  kill.kind = ChaosEvent::Kind::kKillShard;
  kill.at_round = 25;
  kill.shard = 2;
  chaos.events.push_back(kill);

  ShardedServer server(options);
  const FleetReport report =
      std::move(server.Run(std::move(streams), chaos)).value();

  std::printf("\nper-stream outcomes:\n");
  std::printf("%-8s %6s %9s %11s %10s %10s\n", "stream", "shard",
              "restarts", "migrations", "S-score", "identical");
  for (size_t i = 0; i < report.streams.size(); ++i) {
    const FleetStreamReport& s = report.streams[i];
    const bool same =
        s.report.status.ok() &&
        s.report.result.s_sum == solo[i].s_sum &&
        s.report.result.frames_processed == solo[i].frames_processed &&
        s.report.result.selection_counts == solo[i].selection_counts;
    std::printf("%-8s %6d %9d %11d %10.2f %10s\n", s.name.c_str(), s.shard,
                s.restarts, s.migrations, s.report.result.s_sum,
                same ? "yes" : "NO");
  }

  const FleetStats& st = report.stats;
  std::printf("\nfleet: %llu/%llu streams completed on %d shards "
              "(%d killed, %llu failed over) in %.1f ms\n",
              static_cast<unsigned long long>(st.completed_streams),
              static_cast<unsigned long long>(st.admitted), st.num_shards,
              st.shards_killed,
              static_cast<unsigned long long>(st.failover_streams),
              st.wall_ms);
  std::printf("migrations: %llu attempted, %llu completed, "
              "%llu rejected corrupt, %llu fallback restarts\n",
              static_cast<unsigned long long>(st.migration.attempted),
              static_cast<unsigned long long>(st.migration.completed),
              static_cast<unsigned long long>(st.migration.rejected_corrupt),
              static_cast<unsigned long long>(
                  st.migration.fallback_restarts));
  for (const auto& shard : st.shards) {
    std::printf("  shard %d: %s, %llu frames, %llu rounds\n", shard.shard,
                shard.dead ? "DEAD (stats lost)" : "alive",
                static_cast<unsigned long long>(shard.stats.frames),
                static_cast<unsigned long long>(shard.stats.rounds));
  }
  return 0;
}

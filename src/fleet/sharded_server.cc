#include "fleet/sharded_server.h"

#include <algorithm>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "common/stopwatch.h"

namespace vqe {

Status FleetOptions::Validate() const {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (max_sessions < 1) {
    return Status::InvalidArgument("fleet max_sessions must be >= 1");
  }
  if (max_restarts < 0) {
    return Status::InvalidArgument("max_restarts must be >= 0");
  }
  return shard.Validate();
}

ShardedServer::ShardedServer(FleetOptions options)
    : options_(std::move(options)) {}

namespace {

/// Coordinator-side state of one submitted stream.
struct StreamState {
  FleetStreamSpec spec;
  int shard = -1;
  /// Frames left in the session built at admission: the stream's weight
  /// in its shard's load wherever it is placed.
  uint64_t frames = 0;
  int restarts = 0;
  int migrations = 0;
  bool terminal = false;
  StreamReport report;
};

struct Shard {
  explicit Shard(ServeOptions options) : scheduler(std::move(options)) {}

  StreamScheduler scheduler;
  /// kMigrate / kKillShard events for this shard, sorted by at_round.
  std::vector<ChaosEvent> script;
  size_t next_event = 0;
  /// Rounds this shard actually ran (the chaos clock).
  uint64_t rounds_run = 0;
  bool dead = false;
  /// Placement load: the non-terminal streams placed here and the sum of
  /// their frames.
  int load_streams = 0;
  uint64_t load_frames = 0;
  /// Streams placed here since the last step phase, each with the session
  /// built at admission, or none for a restart (the next step phase
  /// builds it from its factory).
  std::vector<std::pair<size_t, std::unique_ptr<StreamSession>>> placed;
  // Step-phase results, read by the coordinator after the join.
  std::vector<std::pair<size_t, Status>> submit_failures;
  Status round_error = Status::OK();

  bool EventDue() const {
    return next_event < script.size() &&
           script[next_event].at_round <= rounds_run;
  }
  bool HasWork() const {
    return !placed.empty() ||
           scheduler.active_sessions() + scheduler.queued_sessions() > 0;
  }
};

/// Builds a stream's session from its factory.
Result<std::unique_ptr<StreamSession>> BuildSession(
    const FleetStreamSpec& spec) {
  VQE_ASSIGN_OR_RETURN(std::unique_ptr<StreamSession> session,
                       spec.factory());
  // Retired reports and migrations find the stream by session name.
  if (session->name() != spec.name) {
    return Status::InvalidArgument("factory of stream '" + spec.name +
                                   "' built session '" + session->name() +
                                   "'");
  }
  return session;
}

/// One shard's step phase, on its own thread: submit the placed sessions
/// (building restarts first), then run DRR rounds until the shard drains
/// or its next scripted event is due.
void StepShard(Shard& shard, const std::vector<StreamState>& streams) {
  for (auto& [index, session] : shard.placed) {
    Status status = [&]() -> Status {
      if (session == nullptr) {
        VQE_ASSIGN_OR_RETURN(session, BuildSession(streams[index].spec));
      }
      return shard.scheduler.Submit(std::move(session)).status();
    }();
    if (!status.ok()) {
      shard.submit_failures.emplace_back(index, std::move(status));
    }
  }
  shard.placed.clear();
  while (shard.HasWork()) {
    const Result<bool> more = shard.scheduler.RunRound();
    if (!more.ok()) {
      shard.round_error = more.status();  // serving bug: crash the shard
      return;
    }
    ++shard.rounds_run;
    if (shard.EventDue()) return;
  }
}

/// Adds a completed Run's ledger to the `vqe_fleet_*` series: the
/// registry's only writer of them.
void PublishFleetStats(MetricsRegistry& reg, const FleetStats& stats,
                       const std::vector<double>& migration_latency_ms) {
  const MetricDomain wall = MetricDomain::kWall;
  const MigrationStats& mig = stats.migration;
  reg.Publish("vqe_fleet_migrations_attempted_total", wall, mig.attempted,
              "Live-migration extractions asked");
  reg.Publish("vqe_fleet_migrations_completed_total", wall, mig.completed,
              "Sessions implanted on targets");
  reg.Publish("vqe_fleet_migrations_rejected_total", wall,
              mig.rejected_corrupt + mig.rejected_identity,
              "Payloads rejected (corrupt or identity mismatch)");
  reg.Publish("vqe_fleet_migration_fallback_restarts_total", wall,
              mig.fallback_restarts,
              "Factory restarts after failed migrations");
  reg.Publish("vqe_fleet_failover_streams_total", wall,
              stats.failover_streams, "Streams restarted off dead shards");
  reg.Publish("vqe_fleet_shards_killed_total", wall,
              static_cast<uint64_t>(stats.shards_killed),
              "Shards killed (scripted or on a serving error)");
  const MetricsRegistry::Id latency = reg.Histogram(
      "vqe_fleet_migration_latency_ms", wall,
      {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0}, MetricUnit::kMs,
      "Handoff latency: encoded payload -> implant confirmed");
  for (const double ms : migration_latency_ms) reg.Observe(latency, ms);
}

}  // namespace

Result<FleetReport> ShardedServer::Run(std::vector<FleetStreamSpec> specs,
                                       ChaosScript chaos) {
  VQE_RETURN_NOT_OK(options_.Validate());
  VQE_RETURN_NOT_OK(chaos.Validate(options_.num_shards));
  if (ran_) {
    return Status::FailedPrecondition("ShardedServer::Run is callable once");
  }
  ran_ = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name.empty() || specs[i].factory == nullptr) {
      return Status::InvalidArgument("spec " + std::to_string(i) +
                                     " needs a name and a factory");
    }
    for (size_t j = 0; j < i; ++j) {
      if (specs[j].name == specs[i].name) {
        return Status::InvalidArgument("duplicate stream name '" +
                                       specs[i].name + "'");
      }
    }
  }

  Stopwatch wall;
  BreakerRegistry fleet_health(options_.shard.fleet_breaker);

  // Coordinator-side tracing (wall domain; see FleetOptions::obs).
  // Instant-event timestamps ride the real wall clock of the calling
  // thread, which handles every control event serially, so per-track
  // timestamps stay monotone. The counters are published once, from
  // FleetStats, when Run completes.
  const bool obs_on = options_.obs.enabled();
  ObsHandle coord_obs;
  if (obs_on) coord_obs = options_.obs.WithNodeTrack(options_.num_shards);

  // Build shards; split the chaos script. Corruption events stay with the
  // coordinator as per-target-shard FIFOs consumed by migration payloads.
  const size_t num_shards = static_cast<size_t>(options_.num_shards);
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::deque<ChaosEvent>> pending_corruption(num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    ServeOptions shard_options = options_.shard;
    if (obs_on) {
      // Shard i traces on node track i; the coordinator keeps track
      // num_shards for itself.
      shard_options.obs = options_.obs;
      shard_options.obs_node = i;
    }
    auto shard = std::make_unique<Shard>(shard_options);
    shard->scheduler.UseSharedRegistry(&fleet_health);
    VQE_RETURN_NOT_OK(shard->scheduler.BeginServing());
    shards.push_back(std::move(shard));
  }
  {
    std::vector<ChaosEvent> sorted = chaos.events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ChaosEvent& a, const ChaosEvent& b) {
                       return a.at_round < b.at_round;
                     });
    for (const ChaosEvent& event : sorted) {
      if (event.kind == ChaosEvent::Kind::kCorruptNextMigration) {
        pending_corruption[static_cast<size_t>(event.shard)].push_back(event);
      } else {
        shards[static_cast<size_t>(event.shard)]->script.push_back(event);
      }
    }
  }

  FleetReport out;
  out.stats.num_shards = options_.num_shards;
  out.stats.submitted = specs.size();

  // Each placed, non-terminal stream holds one of its shard's
  // per_shard_capacity slots and adds its frames to the shard's load.
  const int per_shard_capacity =
      options_.shard.max_sessions + options_.shard.queue_depth;
  std::vector<StreamState> streams;
  streams.reserve(specs.size());
  std::map<std::string, size_t> by_name;
  size_t remaining = 0;

  // The live shard with a free slot and the fewest placed frames, ties to
  // the lowest index; -1 when every live shard is full.
  auto least_loaded_live = [&]() -> int {
    int best = -1;
    for (int i = 0; i < options_.num_shards; ++i) {
      const Shard& shard = *shards[static_cast<size_t>(i)];
      if (shard.dead || shard.load_streams >= per_shard_capacity) continue;
      if (best < 0 ||
          shard.load_frames < shards[static_cast<size_t>(best)]->load_frames) {
        best = i;
      }
    }
    return best;
  };
  auto load = [&](StreamState& state, int target) {
    state.shard = target;
    Shard& shard = *shards[static_cast<size_t>(target)];
    ++shard.load_streams;
    shard.load_frames += state.frames;
  };
  auto unload = [&](const StreamState& state) {
    Shard& shard = *shards[static_cast<size_t>(state.shard)];
    --shard.load_streams;
    shard.load_frames -= state.frames;
  };
  auto place = [&](size_t index, int target,
                   std::unique_ptr<StreamSession> session) {
    load(streams[index], target);
    shards[static_cast<size_t>(target)]->placed.emplace_back(
        index, std::move(session));
  };

  // A terminal outcome: the stream leaves its shard's load for good.
  auto finish_stream = [&](size_t index, StreamReport report) {
    StreamState& state = streams[index];
    state.terminal = true;
    state.report = std::move(report);
    if (state.shard >= 0) unload(state);
    --remaining;
  };

  // Fleet front door, in submission order and before anything is built:
  // the global cap, then "every shard is full" once the admitted streams
  // fill every shard's slots.
  std::vector<size_t> admitted;
  for (FleetStreamSpec& spec : specs) {
    StreamState state;
    state.spec = std::move(spec);
    state.report.name = state.spec.name;
    by_name[state.spec.name] = streams.size();
    streams.push_back(std::move(state));
    StreamState& added = streams.back();
    if (static_cast<int>(out.stats.admitted) >= options_.max_sessions) {
      ++out.stats.shed;
      added.terminal = true;
      added.report.status = Status::ResourceExhausted(
          "fleet shed '" + added.spec.name + "': " +
          std::to_string(out.stats.admitted) + " streams admitted (fleet "
          "max_sessions=" + std::to_string(options_.max_sessions) + ")");
      continue;
    }
    if (out.stats.admitted >= num_shards * static_cast<size_t>(
                                               per_shard_capacity)) {
      ++out.stats.shed;
      added.terminal = true;
      added.report.status = Status::ResourceExhausted(
          "fleet shed '" + added.spec.name + "': every shard is full");
      continue;
    }
    ++out.stats.admitted;
    ++remaining;
    admitted.push_back(streams.size() - 1);
  }

  // Build every admitted session before placement, which weighs each by
  // its remaining frames: one fresh thread per shard, thread s building
  // the admitted streams at positions s, s + num_shards, ...
  std::vector<std::unique_ptr<StreamSession>> built(admitted.size());
  std::vector<Status> build_errors(admitted.size());
  {
    const size_t stride = std::min(num_shards, admitted.size());
    std::vector<std::thread> builders;
    for (size_t first = 0; first < stride; ++first) {
      builders.emplace_back([&, first] {
        for (size_t k = first; k < admitted.size(); k += stride) {
          Result<std::unique_ptr<StreamSession>> session =
              BuildSession(streams[admitted[k]].spec);
          if (session.ok()) {
            built[k] = std::move(session).value();
          } else {
            build_errors[k] = session.status();
          }
        }
      });
    }
    for (std::thread& builder : builders) builder.join();
  }

  // Longest first, ties in submission order, each onto the least-loaded
  // shard. A factory error is terminal and never placed.
  std::vector<size_t> order;
  for (size_t k = 0; k < admitted.size(); ++k) {
    StreamState& state = streams[admitted[k]];
    if (built[k] == nullptr) {
      StreamReport report;
      report.name = state.spec.name;
      report.status = std::move(build_errors[k]);
      finish_stream(admitted[k], std::move(report));
      continue;
    }
    state.frames = built[k]->num_frames() - built[k]->next_frame();
    order.push_back(k);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return streams[admitted[a]].frames > streams[admitted[b]].frames;
  });
  for (const size_t k : order) {
    place(admitted[k], least_loaded_live(), std::move(built[k]));
  }

  std::vector<double> migration_latency_ms;

  // Restart stream `index` from its factory on the least-loaded live
  // shard. Terminal kUnavailable when the budget or the fleet is exhausted.
  auto restart_stream = [&](size_t index, const Status& why) {
    StreamState& state = streams[index];
    unload(state);
    state.shard = -1;
    const int target = least_loaded_live();
    if (state.restarts >= options_.max_restarts || target < 0) {
      StreamReport report;
      report.name = state.spec.name;
      report.status =
          target < 0 ? Status::Unavailable("no live shard left for '" +
                                           state.spec.name + "': " +
                                           why.message())
                     : Status::Unavailable(
                           "restart budget exhausted for '" +
                           state.spec.name + "': " + why.message());
      finish_stream(index, std::move(report));
      return;
    }
    ++state.restarts;
    place(index, target, nullptr);
  };

  // Crash semantics: the shard stops serving and its live sessions and
  // shard-local stats are lost. Every stream placed on it — live or not
  // yet submitted — fails over to the survivors.
  auto kill_shard = [&](int id) {
    shards[static_cast<size_t>(id)]->dead = true;
    ++out.stats.shards_killed;
    if (obs_on) {
      coord_obs.Instant(MetricDomain::kWall, -1, "shard_dead",
                        wall.ElapsedMillis(), "shard",
                        static_cast<double>(id));
    }
    for (size_t index = 0; index < streams.size(); ++index) {
      if (streams[index].terminal || streams[index].shard != id) continue;
      ++out.stats.failover_streams;
      restart_stream(index, Status::Unavailable(
                                "shard " + std::to_string(id) +
                                " died with the stream on it"));
    }
  };

  // Moves live stream `name` from `source` to `target` through the wire
  // format: extract -> export -> encode -> (queued damage) -> decode ->
  // fresh factory session -> overlay -> implant. A failed implant falls
  // back to a factory restart; a stream that is not live on `source`
  // (finished, elsewhere, or not yet submitted) or a dead target aborts.
  auto migrate = [&](const std::string& name, int source, int target) {
    ++out.stats.migration.attempted;
    Shard& from = *shards[static_cast<size_t>(source)];
    Shard& to = *shards[static_cast<size_t>(target)];
    if (to.dead) {
      ++out.stats.migration.aborted;
      return;
    }
    Result<StreamScheduler::ExtractedSession> extracted =
        from.scheduler.ExtractSession(name);
    if (!extracted.ok()) {
      ++out.stats.migration.aborted;
      return;
    }
    Result<std::vector<uint8_t>> snapshot = extracted->session->ExportState();
    if (!snapshot.ok()) {
      // Export failed (should not happen on a live session): keep the
      // session where it is rather than losing it.
      (void)from.scheduler.ImplantSession(std::move(extracted->session),
                                          extracted->carry);
      ++out.stats.migration.aborted;
      return;
    }
    MigrationPayload payload;
    payload.stream_name = name;
    payload.source_shard = source;
    payload.sequence = out.stats.migration.attempted;
    payload.carry = extracted->carry;
    payload.engine_snapshot = std::move(snapshot).value();
    std::vector<uint8_t> bytes = EncodeMigrationPayload(payload);
    Stopwatch handoff;
    auto& corrupt_queue = pending_corruption[static_cast<size_t>(target)];
    if (!corrupt_queue.empty()) {
      const ChaosEvent damage = corrupt_queue.front();
      corrupt_queue.pop_front();
      if (damage.truncate) {
        bytes.resize(bytes.size() / 2);
      } else if (!bytes.empty()) {
        bytes[damage.flip_byte % bytes.size()] ^=
            static_cast<uint8_t>(1u << (damage.flip_bit % 8));
      }
    }
    const size_t index = by_name.at(name);
    StreamState& state = streams[index];
    const Status status = [&]() -> Status {
      VQE_ASSIGN_OR_RETURN(MigrationPayload arrived,
                           DecodeMigrationPayload(bytes));
      if (arrived.stream_name != name) {
        return Status::DataLoss("migration payload names stream '" +
                                arrived.stream_name + "', expected '" +
                                name + "'");
      }
      VQE_ASSIGN_OR_RETURN(std::unique_ptr<StreamSession> session,
                           state.spec.factory());
      VQE_RETURN_NOT_OK(session->ImplantState(arrived.engine_snapshot));
      return to.scheduler.ImplantSession(std::move(session), arrived.carry)
          .status();
    }();
    if (status.ok()) {
      const double handoff_ms = handoff.ElapsedMillis();
      migration_latency_ms.push_back(handoff_ms);
      ++out.stats.migration.completed;
      if (obs_on) {
        coord_obs.Instant(MetricDomain::kWall, -1, "migration_complete",
                          wall.ElapsedMillis(), "target_shard",
                          static_cast<double>(target));
      }
      unload(state);
      load(state, target);
      ++state.migrations;
      return;
    }
    if (status.code() == StatusCode::kDataLoss) {
      ++out.stats.migration.rejected_corrupt;
    } else if (status.code() == StatusCode::kFailedPrecondition) {
      ++out.stats.migration.rejected_identity;
    }
    // The session is gone (its state rejected or the target full): restart
    // from the factory — checkpointed streams resume, the rest replay
    // deterministically from frame 0.
    ++out.stats.migration.fallback_restarts;
    restart_stream(index, status);
  };

  while (remaining > 0) {
    // Control phase (this thread, shard order): due chaos.
    for (int i = 0; i < options_.num_shards; ++i) {
      Shard& shard = *shards[static_cast<size_t>(i)];
      while (!shard.dead && shard.EventDue()) {
        const ChaosEvent& event = shard.script[shard.next_event++];
        if (event.kind == ChaosEvent::Kind::kKillShard) {
          kill_shard(i);
        } else {
          migrate(event.stream, i, event.target_shard);
        }
      }
    }
    if (remaining == 0) break;

    // Step phase: one thread per live shard with work.
    std::vector<std::thread> threads;
    for (const auto& shard : shards) {
      if (shard->dead || !shard->HasWork()) continue;
      Shard* raw = shard.get();
      threads.emplace_back([raw, &streams] { StepShard(*raw, streams); });
    }
    if (threads.empty()) {
      return Status::Internal("fleet stalled with " +
                              std::to_string(remaining) +
                              " streams unfinished");
    }
    for (std::thread& thread : threads) thread.join();

    // Collect in shard order.
    for (int i = 0; i < options_.num_shards; ++i) {
      Shard& shard = *shards[static_cast<size_t>(i)];
      for (auto& [index, status] : shard.submit_failures) {
        // Factory or admission error: deterministic, retrying is futile.
        StreamReport report;
        report.name = streams[index].spec.name;
        report.status = std::move(status);
        finish_stream(index, std::move(report));
        streams[index].shard = -1;
      }
      shard.submit_failures.clear();
      for (StreamReport& report : shard.scheduler.TakeRetired()) {
        const size_t index = by_name.at(report.name);
        finish_stream(index, std::move(report));
      }
      if (!shard.round_error.ok()) kill_shard(i);
    }
  }

  // Finalize surviving schedulers; a dead shard's stats died with it.
  for (int i = 0; i < options_.num_shards; ++i) {
    Shard& shard = *shards[static_cast<size_t>(i)];
    FleetStats::ShardSummary summary;
    summary.shard = i;
    summary.dead = shard.dead;
    if (!summary.dead) {
      Result<ServeReport> report = shard.scheduler.FinishServing();
      if (report.ok()) summary.stats = std::move(report).value().stats;
      out.stats.peak_degradation_level =
          std::max(out.stats.peak_degradation_level,
                   summary.stats.peak_degradation_level);
      out.stats.degradation_transitions += summary.stats.degradations.size();
    }
    out.stats.shards.push_back(std::move(summary));
  }

  out.streams.reserve(streams.size());
  for (StreamState& state : streams) {
    if (state.report.status.ok()) {
      ++out.stats.completed_streams;
    } else {
      ++out.stats.failed_streams;
    }
    FleetStreamReport fsr;
    fsr.name = state.spec.name;
    fsr.shard = state.shard;
    fsr.restarts = state.restarts;
    fsr.migrations = state.migrations;
    fsr.report = std::move(state.report);
    out.streams.push_back(std::move(fsr));
  }
  if (options_.obs.metrics != nullptr) {
    PublishFleetStats(*options_.obs.metrics, out.stats, migration_latency_ms);
  }
  out.stats.migration.latency_p50_ms =
      SamplePercentileInPlace(migration_latency_ms, 0.5);
  out.stats.migration.latency_p99_ms =
      SamplePercentileInPlace(migration_latency_ms, 0.99);
  out.stats.fleet_health = fleet_health.Snapshot(~0ull >> 1);
  out.stats.wall_ms = wall.ElapsedMillis();
  return out;
}

}  // namespace vqe

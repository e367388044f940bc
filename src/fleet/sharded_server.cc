#include "fleet/sharded_server.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/stopwatch.h"

namespace vqe {
namespace {

// --- Cross-thread plumbing ----------------------------------------------

/// Coordinator -> shard command.
struct ShardCommand {
  enum class Kind : uint8_t {
    kSubmit,   ///< build a fresh session from `factory` and Submit it
    kImplant,  ///< decode `payload`, overlay onto a fresh session, implant
    kExtract,  ///< extract `stream`, serialize, post the payload upward
    kStop,     ///< graceful shutdown: exit the loop (scheduler survives)
  };
  Kind kind = Kind::kStop;
  std::string stream;
  SessionFactory factory;      // kSubmit, kImplant (fresh shell to overlay)
  std::vector<uint8_t> payload;  // kImplant
  StreamScheduler::SessionCarry carry;  // kImplant (from the envelope)
  int target_shard = 0;        // kExtract: where the payload is headed
  uint64_t sequence = 0;       // migration bookkeeping
};

/// Shard -> coordinator event.
struct FleetEvent {
  enum class Kind : uint8_t {
    kStreamDone,     ///< a stream retired (report.status says how)
    kSubmitFailed,   ///< a kSubmit could not be admitted on this shard
    kPayload,        ///< an extracted session, serialized, needs routing
    kImplantResult,  ///< outcome of a kImplant on the target shard
    kExtractFailed,  ///< a kExtract found nothing to move
    kShardDead,      ///< this shard crashed; `lost_streams` were live on it
  };
  Kind kind = Kind::kStreamDone;
  int shard = 0;
  std::string stream;
  Status status = Status::OK();
  StreamReport report;            // kStreamDone
  std::vector<uint8_t> payload;   // kPayload
  int target_shard = 0;           // kPayload
  uint64_t sequence = 0;
  std::vector<std::string> lost_streams;  // kShardDead
};

class EventQueue {
 public:
  void Push(FleetEvent event) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back(std::move(event));
    }
    cv_.notify_one();
  }
  FleetEvent Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !events_.empty(); });
    FleetEvent event = std::move(events_.front());
    events_.pop_front();
    return event;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<FleetEvent> events_;
};

struct Shard {
  int id = 0;
  StreamScheduler scheduler;
  /// kMigrate / kKillShard events for this shard, sorted by at_round.
  std::vector<ChaosEvent> script;
  size_t next_event = 0;
  /// Rounds this shard actually ran (the chaos clock).
  uint64_t rounds_run = 0;
  uint64_t next_sequence = 0;

  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ShardCommand> inbox;
  /// Cleared (under mu) when the shard stops serving — kill or stop — so
  /// Post() can never enqueue into a queue nobody will drain.
  bool accepting = true;

  explicit Shard(ServeOptions options) : scheduler(options) {}
};

/// Enqueues `cmd` unless the shard has stopped accepting; false means the
/// caller must handle the command itself (shard dead or stopped).
bool Post(Shard& shard, ShardCommand cmd) {
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.accepting) return false;
    shard.inbox.push_back(std::move(cmd));
  }
  shard.cv.notify_one();
  return true;
}

// --- Shard thread --------------------------------------------------------

/// Handles one inbox command on the shard thread. Returns false on kStop.
bool HandleCommand(Shard& shard, EventQueue& events, ShardCommand cmd) {
  switch (cmd.kind) {
    case ShardCommand::Kind::kStop:
      return false;
    case ShardCommand::Kind::kSubmit: {
      Result<std::unique_ptr<StreamSession>> session = cmd.factory();
      Status status = session.status();
      if (status.ok()) {
        status = shard.scheduler.Submit(std::move(session).value()).status();
      }
      if (!status.ok()) {
        FleetEvent ev;
        ev.kind = FleetEvent::Kind::kSubmitFailed;
        ev.shard = shard.id;
        ev.stream = cmd.stream;
        ev.status = status;
        events.Push(std::move(ev));
      }
      return true;
    }
    case ShardCommand::Kind::kImplant: {
      FleetEvent ev;
      ev.kind = FleetEvent::Kind::kImplantResult;
      ev.shard = shard.id;
      ev.stream = cmd.stream;
      ev.sequence = cmd.sequence;
      ev.status = [&]() -> Status {
        VQE_ASSIGN_OR_RETURN(MigrationPayload payload,
                             DecodeMigrationPayload(cmd.payload));
        if (payload.stream_name != cmd.stream) {
          return Status::DataLoss("migration payload names stream '" +
                                  payload.stream_name + "', expected '" +
                                  cmd.stream + "'");
        }
        VQE_ASSIGN_OR_RETURN(std::unique_ptr<StreamSession> session,
                             cmd.factory());
        VQE_RETURN_NOT_OK(session->ImplantState(payload.engine_snapshot));
        return shard.scheduler
            .ImplantSession(std::move(session), payload.carry)
            .status();
      }();
      events.Push(std::move(ev));
      return true;
    }
    case ShardCommand::Kind::kExtract: {
      Result<StreamScheduler::ExtractedSession> extracted =
          shard.scheduler.ExtractSession(cmd.stream);
      if (!extracted.ok()) {
        FleetEvent ev;
        ev.kind = FleetEvent::Kind::kExtractFailed;
        ev.shard = shard.id;
        ev.stream = cmd.stream;
        ev.status = extracted.status();
        events.Push(std::move(ev));
        return true;
      }
      StreamScheduler::ExtractedSession session =
          std::move(extracted).value();
      Result<std::vector<uint8_t>> snapshot =
          session.session->ExportState();
      if (!snapshot.ok()) {
        // Export failed (should not happen on a live session): keep the
        // session here rather than losing it, and report the abort.
        (void)shard.scheduler.ImplantSession(std::move(session.session),
                                             session.carry);
        FleetEvent ev;
        ev.kind = FleetEvent::Kind::kExtractFailed;
        ev.shard = shard.id;
        ev.stream = cmd.stream;
        ev.status = snapshot.status();
        events.Push(std::move(ev));
        return true;
      }
      MigrationPayload payload;
      payload.stream_name = cmd.stream;
      payload.source_shard = shard.id;
      payload.sequence = cmd.sequence;
      payload.carry = session.carry;
      payload.engine_snapshot = std::move(snapshot).value();
      FleetEvent ev;
      ev.kind = FleetEvent::Kind::kPayload;
      ev.shard = shard.id;
      ev.stream = cmd.stream;
      ev.sequence = cmd.sequence;
      ev.target_shard = cmd.target_shard;
      ev.payload = EncodeMigrationPayload(payload);
      events.Push(std::move(ev));
      return true;
    }
  }
  return true;
}

/// Crash path: stop accepting, answer every queued command with a failure
/// event (so no stream is silently lost), report the live sessions as
/// lost, and exit WITHOUT FinishServing — a dead shard's stats die with
/// it.
void CrashShard(Shard& shard, EventQueue& events) {
  std::deque<ShardCommand> pending;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.accepting = false;
    pending.swap(shard.inbox);
  }
  for (ShardCommand& cmd : pending) {
    FleetEvent ev;
    ev.shard = shard.id;
    ev.stream = cmd.stream;
    ev.sequence = cmd.sequence;
    ev.status = Status::Unavailable("shard " + std::to_string(shard.id) +
                                    " died before handling the command");
    switch (cmd.kind) {
      case ShardCommand::Kind::kSubmit:
        ev.kind = FleetEvent::Kind::kSubmitFailed;
        break;
      case ShardCommand::Kind::kImplant:
        ev.kind = FleetEvent::Kind::kImplantResult;
        break;
      case ShardCommand::Kind::kExtract:
        ev.kind = FleetEvent::Kind::kExtractFailed;
        break;
      case ShardCommand::Kind::kStop:
        continue;
    }
    events.Push(std::move(ev));
  }
  FleetEvent dead;
  dead.kind = FleetEvent::Kind::kShardDead;
  dead.shard = shard.id;
  dead.lost_streams = shard.scheduler.LiveStreamNames();
  events.Push(std::move(dead));
}

void ShardMain(Shard& shard, EventQueue& events) {
  if (Status begun = shard.scheduler.BeginServing(); !begun.ok()) {
    CrashShard(shard, events);
    return;
  }
  while (true) {
    // 1. Drain the inbox (non-blocking).
    std::deque<ShardCommand> commands;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      commands.swap(shard.inbox);
    }
    for (ShardCommand& cmd : commands) {
      if (!HandleCommand(shard, events, std::move(cmd))) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.accepting = false;
        return;  // kStop: scheduler stays intact for FinishServing
      }
    }

    // 2. Scripted chaos, anchored to this shard's own round clock.
    while (shard.next_event < shard.script.size() &&
           shard.script[shard.next_event].at_round <= shard.rounds_run) {
      const ChaosEvent event = shard.script[shard.next_event++];
      if (event.kind == ChaosEvent::Kind::kKillShard) {
        CrashShard(shard, events);
        return;
      }
      if (event.kind == ChaosEvent::Kind::kMigrate) {
        ShardCommand extract;
        extract.kind = ShardCommand::Kind::kExtract;
        extract.stream = event.stream;
        extract.target_shard = event.target_shard;
        extract.sequence =
            (static_cast<uint64_t>(shard.id) << 32) | shard.next_sequence++;
        HandleCommand(shard, events, std::move(extract));
      }
      // kCorruptNextMigration is coordinator-side; never in shard scripts.
    }

    // 3. One DRR round, or sleep until the coordinator sends work.
    const bool had_work = shard.scheduler.active_sessions() +
                              shard.scheduler.queued_sessions() >
                          0;
    if (had_work) {
      if (!shard.scheduler.RunRound().ok()) {
        CrashShard(shard, events);  // serving bug; fail loudly as a crash
        return;
      }
      ++shard.rounds_run;
      for (StreamReport& report : shard.scheduler.TakeRetired()) {
        FleetEvent ev;
        ev.kind = FleetEvent::Kind::kStreamDone;
        ev.shard = shard.id;
        ev.stream = report.name;
        ev.report = std::move(report);
        events.Push(std::move(ev));
      }
    } else {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] { return !shard.inbox.empty(); });
    }
  }
}

}  // namespace

uint64_t FleetRouteHash(const std::string& name) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : name) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

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
  if (rebalance_threshold < 0) {
    return Status::InvalidArgument("rebalance_threshold must be >= 0");
  }
  VQE_RETURN_NOT_OK(shard.Validate());
  return fleet_breaker.Validate();
}

ShardedServer::ShardedServer(FleetOptions options)
    : options_(std::move(options)) {}

// --- Coordinator ---------------------------------------------------------

namespace {

/// Coordinator-side state of one submitted stream.
struct StreamState {
  FleetStreamSpec spec;
  int shard = -1;
  int restarts = 0;
  int migrations = 0;
  bool terminal = false;
  /// An extraction or implant is in flight; suppress rebalancing and
  /// shard-death failover for the stream (the migration path owns it).
  bool migrating = false;
  StreamReport report;
};

struct InFlightMigration {
  int target_shard = 0;
  Stopwatch handoff;
};

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
  BreakerRegistry fleet_health(options_.fleet_breaker);
  EventQueue events;

  // Coordinator-side observability (wall domain; see FleetOptions::obs).
  // Instant-event timestamps ride the coordinator's real wall clock —
  // events are handled serially on this thread, so per-track timestamps
  // stay monotone.
  const bool obs_on = options_.obs.enabled();
  ObsHandle coord_obs;
  MetricsRegistry::Id obs_mig_attempted = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_mig_completed = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_mig_rejected = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_mig_fallbacks = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_failovers = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_shards_killed = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id obs_mig_latency = MetricsRegistry::kInvalidId;
  if (obs_on) {
    coord_obs = options_.obs.WithNodeTrack(options_.num_shards);
    if (options_.obs.metrics != nullptr) {
      MetricsRegistry& reg = *options_.obs.metrics;
      const MetricDomain w = MetricDomain::kWall;
      obs_mig_attempted =
          reg.Counter("vqe_fleet_migrations_attempted_total", w,
                      MetricUnit::kCount, "Live-migration extractions asked");
      obs_mig_completed =
          reg.Counter("vqe_fleet_migrations_completed_total", w,
                      MetricUnit::kCount, "Sessions implanted on targets");
      obs_mig_rejected =
          reg.Counter("vqe_fleet_migrations_rejected_total", w,
                      MetricUnit::kCount,
                      "Payloads rejected (corrupt or identity mismatch)");
      obs_mig_fallbacks =
          reg.Counter("vqe_fleet_migration_fallback_restarts_total", w,
                      MetricUnit::kCount,
                      "Factory restarts after failed migrations");
      obs_failovers =
          reg.Counter("vqe_fleet_failover_streams_total", w,
                      MetricUnit::kCount, "Streams restarted off dead shards");
      obs_shards_killed =
          reg.Counter("vqe_fleet_shards_killed_total", w, MetricUnit::kCount,
                      "Shard threads that crashed");
      obs_mig_latency = reg.Histogram(
          "vqe_fleet_migration_latency_ms", w,
          {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0}, MetricUnit::kMs,
          "Handoff latency: payload leaves source -> implant confirmed");
    }
  }

  // Build shards; split the chaos script. Corruption events stay with the
  // coordinator as per-target-shard FIFOs consumed by arriving payloads.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::deque<ChaosEvent>> pending_corruption(
      static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    ServeOptions shard_options = options_.shard;
    if (obs_on) {
      // Shard i traces on node track i; the coordinator keeps track
      // num_shards for itself.
      shard_options.obs = options_.obs;
      shard_options.obs_node = i;
    }
    auto shard = std::make_unique<Shard>(shard_options);
    shard->id = i;
    shard->scheduler.UseSharedRegistry(&fleet_health);
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

  // Fleet front door: global cap, hash placement, least-loaded fallback.
  const int per_shard_capacity =
      options_.shard.max_sessions + options_.shard.queue_depth;
  std::vector<int> load(static_cast<size_t>(options_.num_shards), 0);
  std::vector<bool> dead(static_cast<size_t>(options_.num_shards), false);
  std::vector<StreamState> streams;
  streams.reserve(specs.size());
  std::map<std::string, size_t> by_name;
  size_t remaining = 0;

  auto least_loaded_live = [&]() -> int {
    int best = -1;
    for (int i = 0; i < options_.num_shards; ++i) {
      if (dead[static_cast<size_t>(i)]) continue;
      if (load[static_cast<size_t>(i)] >= per_shard_capacity) continue;
      if (best < 0 ||
          load[static_cast<size_t>(i)] < load[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    return best;
  };

  for (FleetStreamSpec& spec : specs) {
    StreamState state;
    state.spec = std::move(spec);
    state.report.name = state.spec.name;
    if (static_cast<int>(out.stats.admitted) >= options_.max_sessions) {
      ++out.stats.shed;
      state.terminal = true;
      state.report.status = Status::ResourceExhausted(
          "fleet shed '" + state.spec.name + "': " +
          std::to_string(out.stats.admitted) + " streams admitted (fleet "
          "max_sessions=" + std::to_string(options_.max_sessions) + ")");
    } else {
      int target = static_cast<int>(
          FleetRouteHash(state.spec.name) %
          static_cast<uint64_t>(options_.num_shards));
      if (load[static_cast<size_t>(target)] >= per_shard_capacity) {
        target = least_loaded_live();
      }
      if (target < 0) {
        ++out.stats.shed;
        state.terminal = true;
        state.report.status = Status::ResourceExhausted(
            "fleet shed '" + state.spec.name + "': every shard is full");
      } else {
        ++out.stats.admitted;
        state.shard = target;
        ++load[static_cast<size_t>(target)];
        ++remaining;
      }
    }
    by_name[state.spec.name] = streams.size();
    streams.push_back(std::move(state));
  }

  // Start shard threads, then feed them their streams.
  for (auto& shard : shards) {
    Shard* raw = shard.get();
    shard->thread = std::thread([raw, &events] { ShardMain(*raw, events); });
  }
  for (StreamState& state : streams) {
    if (state.terminal) continue;
    ShardCommand submit;
    submit.kind = ShardCommand::Kind::kSubmit;
    submit.stream = state.spec.name;
    submit.factory = state.spec.factory;
    if (!Post(*shards[static_cast<size_t>(state.shard)],
              std::move(submit))) {
      // Shard crashed at round 0 before the submit landed; the kShardDead
      // handler below cannot see this stream (it was never live there), so
      // reroute immediately.
      FleetEvent ev;
      ev.kind = FleetEvent::Kind::kSubmitFailed;
      ev.shard = state.shard;
      ev.stream = state.spec.name;
      ev.status = Status::Unavailable("shard died before submission");
      events.Push(std::move(ev));
    }
  }

  std::map<std::string, InFlightMigration> in_flight;
  std::vector<double> migration_latency_ms;

  // Restart `state` from its factory on the least-loaded live shard.
  // Terminal kUnavailable when the budget or the fleet is exhausted.
  auto restart_stream = [&](StreamState& state, const Status& why) {
    state.migrating = false;
    if (state.shard >= 0) {
      --load[static_cast<size_t>(state.shard)];
      state.shard = -1;
    }
    const int target = least_loaded_live();
    if (state.restarts >= options_.max_restarts || target < 0) {
      state.terminal = true;
      state.report.status =
          target < 0 ? Status::Unavailable("no live shard left for '" +
                                           state.spec.name + "': " +
                                           why.message())
                     : Status::Unavailable(
                           "restart budget exhausted for '" +
                           state.spec.name + "': " + why.message());
      --remaining;
      return;
    }
    ++state.restarts;
    state.shard = target;
    ++load[static_cast<size_t>(target)];
    ShardCommand submit;
    submit.kind = ShardCommand::Kind::kSubmit;
    submit.stream = state.spec.name;
    submit.factory = state.spec.factory;
    if (!Post(*shards[static_cast<size_t>(target)], std::move(submit))) {
      FleetEvent ev;
      ev.kind = FleetEvent::Kind::kSubmitFailed;
      ev.shard = target;
      ev.stream = state.spec.name;
      ev.status = Status::Unavailable("shard died before resubmission");
      events.Push(std::move(ev));
    }
  };

  // Skew rebalancing: move one stream from the most to the least loaded
  // shard when the spread reaches the threshold.
  auto maybe_rebalance = [&] {
    if (options_.rebalance_threshold <= 0) return;
    int busiest = -1, idlest = -1;
    for (int i = 0; i < options_.num_shards; ++i) {
      if (dead[static_cast<size_t>(i)]) continue;
      if (busiest < 0 ||
          load[static_cast<size_t>(i)] > load[static_cast<size_t>(busiest)]) {
        busiest = i;
      }
      if (idlest < 0 ||
          load[static_cast<size_t>(i)] < load[static_cast<size_t>(idlest)]) {
        idlest = i;
      }
    }
    if (busiest < 0 || idlest < 0 || busiest == idlest) return;
    if (load[static_cast<size_t>(busiest)] -
            load[static_cast<size_t>(idlest)] <
        options_.rebalance_threshold) {
      return;
    }
    for (StreamState& state : streams) {
      if (state.terminal || state.migrating || state.shard != busiest) {
        continue;
      }
      ShardCommand extract;
      extract.kind = ShardCommand::Kind::kExtract;
      extract.stream = state.spec.name;
      extract.target_shard = idlest;
      extract.sequence = 0;
      if (Post(*shards[static_cast<size_t>(busiest)], std::move(extract))) {
        state.migrating = true;
        ++out.stats.migration.attempted;
        coord_obs.Count(obs_mig_attempted);
      }
      return;  // one stream per pass keeps the loads settling smoothly
    }
  };

  // Hash skew is visible at admission time — rebalance once up front so a
  // lopsided initial placement starts spreading before any stream has to
  // finish (the event loop only wakes on shard events, which an idle
  // fleet member never produces).
  maybe_rebalance();

  // --- Event loop: runs until every admitted stream is terminal. --------
  while (remaining > 0) {
    FleetEvent ev = events.Pop();
    const auto it = by_name.find(ev.stream);
    StreamState* state =
        it == by_name.end() ? nullptr : &streams[it->second];
    switch (ev.kind) {
      case FleetEvent::Kind::kStreamDone: {
        if (state == nullptr || state->terminal) break;
        state->terminal = true;
        state->report = std::move(ev.report);
        if (state->shard >= 0) --load[static_cast<size_t>(state->shard)];
        state->shard = ev.shard;
        --remaining;
        break;
      }
      case FleetEvent::Kind::kSubmitFailed: {
        if (state == nullptr || state->terminal) break;
        if (ev.status.code() == StatusCode::kUnavailable) {
          restart_stream(*state, ev.status);  // shard died under the submit
        } else {
          // Factory or admission error: deterministic, retrying is futile.
          state->terminal = true;
          state->report.status = ev.status;
          if (state->shard >= 0) --load[static_cast<size_t>(state->shard)];
          state->shard = -1;
          --remaining;
        }
        break;
      }
      case FleetEvent::Kind::kPayload: {
        if (state == nullptr || state->terminal) break;
        // Chaos-initiated extractions surface here without a coordinator
        // request; account for them now.
        if (!state->migrating) {
          state->migrating = true;
          ++out.stats.migration.attempted;
          coord_obs.Count(obs_mig_attempted);
        }
        auto& corrupt_queue =
            pending_corruption[static_cast<size_t>(ev.target_shard)];
        if (!corrupt_queue.empty()) {
          const ChaosEvent damage = corrupt_queue.front();
          corrupt_queue.pop_front();
          if (damage.truncate) {
            ev.payload.resize(ev.payload.size() / 2);
          } else if (!ev.payload.empty()) {
            ev.payload[damage.flip_byte % ev.payload.size()] ^=
                static_cast<uint8_t>(1u << (damage.flip_bit % 8));
          }
        }
        InFlightMigration flight;
        flight.target_shard = ev.target_shard;
        in_flight[ev.stream] = flight;
        ShardCommand implant;
        implant.kind = ShardCommand::Kind::kImplant;
        implant.stream = ev.stream;
        implant.factory = state->spec.factory;
        implant.payload = std::move(ev.payload);
        implant.sequence = ev.sequence;
        if (!Post(*shards[static_cast<size_t>(ev.target_shard)],
                  std::move(implant))) {
          in_flight.erase(ev.stream);
          ++out.stats.migration.fallback_restarts;
          coord_obs.Count(obs_mig_fallbacks);
          restart_stream(*state,
                         Status::Unavailable("migration target died"));
        }
        break;
      }
      case FleetEvent::Kind::kImplantResult: {
        if (state == nullptr || state->terminal) break;
        const auto flight = in_flight.find(ev.stream);
        if (ev.status.ok()) {
          if (flight != in_flight.end()) {
            const double handoff_ms = flight->second.handoff.ElapsedMillis();
            migration_latency_ms.push_back(handoff_ms);
            coord_obs.Observe(obs_mig_latency, handoff_ms);
            in_flight.erase(flight);
          }
          ++out.stats.migration.completed;
          if (obs_on) {
            coord_obs.Count(obs_mig_completed);
            coord_obs.Instant(MetricDomain::kWall, -1, "migration_complete",
                              wall.ElapsedMillis(), "target_shard",
                              static_cast<double>(ev.shard));
          }
          if (state->shard >= 0) --load[static_cast<size_t>(state->shard)];
          state->shard = ev.shard;
          ++load[static_cast<size_t>(ev.shard)];
          ++state->migrations;
          state->migrating = false;
        } else {
          if (flight != in_flight.end()) in_flight.erase(flight);
          if (ev.status.code() == StatusCode::kDataLoss) {
            ++out.stats.migration.rejected_corrupt;
            coord_obs.Count(obs_mig_rejected);
          } else if (ev.status.code() == StatusCode::kFailedPrecondition) {
            ++out.stats.migration.rejected_identity;
            coord_obs.Count(obs_mig_rejected);
          }
          // The session is gone (its state rejected or its target dead):
          // restart from the factory — checkpointed streams resume, the
          // rest replay deterministically from frame 0.
          ++out.stats.migration.fallback_restarts;
          coord_obs.Count(obs_mig_fallbacks);
          restart_stream(*state, ev.status);
        }
        break;
      }
      case FleetEvent::Kind::kExtractFailed: {
        if (state != nullptr) state->migrating = false;
        ++out.stats.migration.aborted;
        break;
      }
      case FleetEvent::Kind::kShardDead: {
        const size_t shard_index = static_cast<size_t>(ev.shard);
        if (!dead[shard_index]) {
          dead[shard_index] = true;
          ++out.stats.shards_killed;
          if (obs_on) {
            coord_obs.Count(obs_shards_killed);
            coord_obs.Instant(MetricDomain::kWall, -1, "shard_dead",
                              wall.ElapsedMillis(), "shard",
                              static_cast<double>(ev.shard));
          }
        }
        for (const std::string& name : ev.lost_streams) {
          const auto lost_it = by_name.find(name);
          if (lost_it == by_name.end()) continue;
          StreamState& lost = streams[lost_it->second];
          if (lost.terminal || lost.migrating) continue;
          ++out.stats.failover_streams;
          coord_obs.Count(obs_failovers);
          restart_stream(lost, Status::Unavailable(
                                   "shard " + std::to_string(ev.shard) +
                                   " died with the stream live on it"));
        }
        break;
      }
    }
    maybe_rebalance();
  }

  // Shut down: stop live shards, join everyone, then finalize surviving
  // schedulers from this thread (safe after join).
  for (auto& shard : shards) {
    ShardCommand stop;
    stop.kind = ShardCommand::Kind::kStop;
    Post(*shard, std::move(stop));
  }
  for (auto& shard : shards) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards) {
    FleetStats::ShardSummary summary;
    summary.shard = shard->id;
    summary.dead = dead[static_cast<size_t>(shard->id)];
    if (!summary.dead) {
      Result<ServeReport> report = shard->scheduler.FinishServing();
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
  out.stats.migration.latency_p50_ms =
      SamplePercentileInPlace(migration_latency_ms, 0.5);
  out.stats.migration.latency_p99_ms =
      SamplePercentileInPlace(migration_latency_ms, 0.99);
  out.stats.fleet_health = fleet_health.Snapshot(~0ull >> 1);
  out.stats.wall_ms = wall.ElapsedMillis();
  return out;
}

}  // namespace vqe

#include "serve/scheduler.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace vqe {

Status ServeOptions::Validate() const {
  if (max_sessions < 1) {
    return Status::InvalidArgument("max_sessions must be >= 1");
  }
  if (queue_depth < 0) {
    return Status::InvalidArgument("queue_depth must be >= 0");
  }
  if (quantum_ms <= 0.0) {
    return Status::InvalidArgument("quantum_ms must be > 0");
  }
  if (max_frames_per_round < 1) {
    return Status::InvalidArgument("max_frames_per_round must be >= 1");
  }
  if (parallelism < 0) {
    return Status::InvalidArgument("parallelism must be >= 0");
  }
  VQE_RETURN_NOT_OK(overload.Validate());
  return fleet_breaker.Validate();
}

StreamScheduler::StreamScheduler(ServeOptions options)
    : options_(options),
      own_registry_(options.fleet_breaker),
      registry_(&own_registry_) {
  if (options_.overload.enabled) {
    controller_ = std::make_unique<OverloadController>(options_.overload);
  }
  if (options_.obs.enabled()) {
    node_obs_ = options_.obs.WithNodeTrack(options_.obs_node);
    if (options_.obs.metrics != nullptr) {
      // Per-round and per-event series only: the counters with a
      // ServeStats twin are published by FinishServing.
      MetricsRegistry& reg = *options_.obs.metrics;
      const MetricDomain wall = MetricDomain::kWall;
      obs_ids_.round_ms =
          reg.Counter("vqe_sched_round_ms_total", wall, MetricUnit::kMs,
                      "Wall-clock spent inside DRR rounds");
      obs_ids_.frames =
          reg.Counter("vqe_sched_frames_total", wall, MetricUnit::kCount,
                      "Frames stepped by the scheduler");
      obs_ids_.drr_credit_ms =
          reg.Counter("vqe_sched_drr_credit_ms_total", wall, MetricUnit::kMs,
                      "Simulated-ms deficit credited to active slots");
      obs_ids_.drr_charge_ms =
          reg.Counter("vqe_sched_drr_charge_ms_total", wall, MetricUnit::kMs,
                      "Simulated-ms deficit charged for stepped frames");
      obs_ids_.retired =
          reg.Counter("vqe_sched_retired_total", wall, MetricUnit::kCount,
                      "Sessions retired (drained or failed)");
      obs_ids_.slot_busy_ms =
          reg.Counter("vqe_sched_slot_busy_ms_total", wall, MetricUnit::kMs,
                      "Wall-clock slots spent stepping inside rounds");
      obs_ids_.step_capacity_ms =
          reg.Counter("vqe_sched_step_capacity_ms_total", wall,
                      MetricUnit::kMs,
                      "Wall-clock of each round's parallel step times its "
                      "worker count (1 - busy / capacity = barrier idle)");
    }
  }
}

void StreamScheduler::Activate(std::unique_ptr<StreamSession> session,
                               uint64_t id, uint64_t round,
                               SessionCarry carry) {
  auto slot = std::make_unique<Slot>();
  slot->session = std::move(session);
  slot->stream_id = id;
  slot->admitted_round = round;
  slot->frames = carry.frames;
  slot->rounds_active = carry.rounds_active;
  slot->session->AttachHealthRegistry(registry_);
  if (options_.obs.enabled()) {
    // Per-stream attribution: the engine's spans land on this stream's
    // trace track; metric series stay registry-global.
    slot->session->SetObs(options_.obs.WithStream(static_cast<int64_t>(id)));
  }
  ++stats_.classes[PriorityClassIndex(slot->session->priority())].admitted;
  active_.push_back(std::move(slot));
  stats_.peak_active =
      std::max(stats_.peak_active, static_cast<int>(active_.size()));
}

Result<uint64_t> StreamScheduler::Submit(
    std::unique_ptr<StreamSession> session) {
  VQE_RETURN_NOT_OK(options_.Validate());
  if (session == nullptr) {
    return Status::InvalidArgument("cannot submit a null session");
  }
  if (finished_) {
    return Status::FailedPrecondition(
        "scheduler already finished; submit before FinishServing");
  }
  const int cls = PriorityClassIndex(session->priority());
  ++stats_.classes[cls].submitted;

  // Fleet gate: a stream whose every model the fleet currently reports
  // open would only burn quanta on breaker-masked selections — shed it.
  const auto& models = session->config().model_names;
  if (!models.empty()) {
    bool any_callable = false;
    for (const std::string& model : models) {
      if (registry_->AllowsCall(model, round_)) {
        any_callable = true;
        break;
      }
    }
    if (!any_callable) {
      ++stats_.classes[cls].shed_submissions;
      return Status::ResourceExhausted(
          "session '" + session->name() +
          "' shed: fleet breakers report every model of its pool open");
    }
  }

  // Degradation-ladder level 3: the front door sheds NEW batch work so
  // interactive/standard traffic keeps the slots. Already-admitted batch
  // sessions stay (they drain on residual deficit; see RoundOnce).
  if (controller_ != nullptr && controller_->throttle_batch() &&
      session->priority() == PriorityClass::kBatch) {
    ++stats_.classes[cls].shed_submissions;
    return Status::ResourceExhausted(
        "session '" + session->name() +
        "' shed: overload ladder at shed-batch, batch submissions refused");
  }

  if (static_cast<int>(active_.size()) < options_.max_sessions) {
    const uint64_t id = next_stream_id_++;
    Activate(std::move(session), id, round_, {});
    return id;
  }
  if (static_cast<int>(queue_.size()) < options_.queue_depth) {
    const uint64_t id = next_stream_id_++;
    queue_.push_back(Queued{std::move(session), id, {}});
    stats_.peak_queued =
        std::max(stats_.peak_queued, static_cast<int>(queue_.size()));
    return id;
  }
  ++stats_.classes[cls].shed_submissions;
  return Status::ResourceExhausted(
      "session '" + session->name() + "' shed: " +
      std::to_string(active_.size()) + " active / " +
      std::to_string(queue_.size()) + " queued (max_sessions=" +
      std::to_string(options_.max_sessions) + ", queue_depth=" +
      std::to_string(options_.queue_depth) + ")");
}

Result<uint64_t> StreamScheduler::ImplantSession(
    std::unique_ptr<StreamSession> session, SessionCarry carry) {
  VQE_RETURN_NOT_OK(options_.Validate());
  if (session == nullptr) {
    return Status::InvalidArgument("cannot implant a null session");
  }
  if (finished_) {
    return Status::FailedPrecondition("scheduler already finished");
  }
  // No fleet-breaker gate and no batch-shed gate: the stream was admitted
  // fleet-wide before it started; migration must not re-litigate admission
  // mid-video.
  const int cls = PriorityClassIndex(session->priority());
  ++stats_.classes[cls].submitted;
  if (static_cast<int>(active_.size()) < options_.max_sessions) {
    const uint64_t id = next_stream_id_++;
    Activate(std::move(session), id, round_, carry);
    return id;
  }
  if (static_cast<int>(queue_.size()) < options_.queue_depth) {
    const uint64_t id = next_stream_id_++;
    queue_.push_back(Queued{std::move(session), id, carry});
    stats_.peak_queued =
        std::max(stats_.peak_queued, static_cast<int>(queue_.size()));
    return id;
  }
  ++stats_.classes[cls].shed_submissions;
  return Status::ResourceExhausted(
      "implant of '" + session->name() + "' rejected: shard full");
}

Result<StreamScheduler::ExtractedSession> StreamScheduler::ExtractSession(
    const std::string& name) {
  for (size_t i = 0; i < active_.size(); ++i) {
    Slot& slot = *active_[i];
    if (slot.session->name() != name) continue;
    if (!slot.status.ok() || slot.session->done()) {
      return Status::FailedPrecondition(
          "session '" + name + "' is finished; nothing left to migrate");
    }
    ExtractedSession out;
    out.session = std::move(slot.session);
    out.stream_id = slot.stream_id;
    out.carry.frames = slot.frames;
    out.carry.rounds_active = slot.rounds_active;
    active_.erase(active_.begin() + static_cast<long>(i));
    return out;
  }
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].session->name() != name) continue;
    ExtractedSession out;
    out.session = std::move(queue_[i].session);
    out.stream_id = queue_[i].stream_id;
    out.carry = queue_[i].carry;
    queue_.erase(queue_.begin() + static_cast<long>(i));
    return out;
  }
  return Status::NotFound("no live session named '" + name + "'");
}

void StreamScheduler::StepSlotRound(Slot& slot, uint64_t round) {
  StreamSession& session = *slot.session;
  bool stepped = false;
  int frames_this_round = 0;
  while (slot.status.ok() && !session.done() && slot.deficit_ms > 0.0 &&
         frames_this_round < options_.max_frames_per_round) {
    const double cost_before = session.charged_cost_ms();
    Stopwatch frame_watch;
    const Status status = session.StepFrame(round);
    slot.latency_ms.push_back(frame_watch.ElapsedMillis());
    ++slot.frames;
    ++frames_this_round;
    stepped = true;
    // Deficit is charged in *simulated* ms, so the schedule is a pure
    // function of the submitted work. A frame may overdraw the remaining
    // deficit; the overdraft carries as a negative balance (classic DRR).
    const double cost_delta = session.charged_cost_ms() - cost_before;
    slot.deficit_ms -= cost_delta;
    node_obs_.CountMs(obs_ids_.drr_charge_ms, cost_delta);
    slot.sim_ms.push_back(cost_delta);
    if (!status.ok()) slot.status = status;
  }
  if (stepped) ++slot.rounds_active;
}

void StreamScheduler::Retire(Slot& slot) {
  StreamReport sr;
  sr.stream_id = slot.stream_id;
  sr.name = slot.session->name();
  sr.priority = slot.session->priority();
  sr.frames = slot.frames;
  sr.rounds_active = slot.rounds_active;
  sr.admitted_round = slot.admitted_round;
  sr.status = slot.status;
  if (slot.status.ok()) {
    Result<RunResult> finished = slot.session->Finish();
    if (finished.ok()) {
      sr.result = std::move(finished).value();
    } else {
      sr.status = finished.status();
      sr.result = slot.session->live_result();
    }
  } else {
    // Retired on a step error (crash injection, checkpoint I/O): keep the
    // live accumulators for post-mortem; averages stay unfinalized.
    sr.result = slot.session->live_result();
  }
  if (!sr.status.ok()) {
    // Surface WHY the stream died in the aggregate stats, not only in its
    // own report — fleet-level summaries read stats, not every stream.
    ++stats_.failed_streams;
    stats_.errors.push_back(ServeStats::StreamError{
        sr.stream_id, sr.name, sr.status.code(), sr.status.message()});
  }
  node_obs_.Count(obs_ids_.retired);
  stats_.skipped_frames += sr.result.skip.skipped_frames;
  stats_.simulated_ms += sr.result.breakdown.SimulatedMs();
  stats_.algorithm_wall_ms += sr.result.breakdown.algorithm_ms;
  const int cls = PriorityClassIndex(sr.priority);
  stats_.classes[cls].frames += sr.frames;
  retired_.push_back(std::move(sr));
}

Status StreamScheduler::BeginServing() {
  VQE_RETURN_NOT_OK(options_.Validate());
  if (finished_) {
    return Status::FailedPrecondition("scheduler already finished");
  }
  if (!serving_) {
    serving_ = true;
    wall_ = Stopwatch();
  }
  return Status::OK();
}

void StreamScheduler::RoundOnce() {
  ++round_;
  ++stats_.rounds;
  const bool obs_on = node_obs_.enabled();
  Stopwatch round_watch;

  // Admit from the queue into freed slots, FIFO — deterministic.
  while (!queue_.empty() &&
         static_cast<int>(active_.size()) < options_.max_sessions) {
    Queued q = std::move(queue_.front());
    queue_.erase(queue_.begin());
    Activate(std::move(q.session), q.stream_id, round_, q.carry);
  }
  uint64_t frames_at_round_start = 0;
  if (obs_on) {
    for (const auto& slot : active_) frames_at_round_start += slot->frames;
  }

  // Apply the ladder level decided at the END of the previous round to
  // every active session (newly admitted ones included) before any frame
  // steps — the actuation point is deterministic. With the controller
  // absent SetDegradation is never called: bit-identical to the
  // controller-free path.
  if (controller_ != nullptr) {
    const int boost = controller_->skip_boost();
    const EnsembleId mask = controller_->model_mask();
    for (auto& slot : active_) slot->session->SetDegradation(boost, mask);
    if (controller_->level() > 0) ++stats_.degraded_rounds;
    stats_.peak_degradation_level =
        std::max(stats_.peak_degradation_level, controller_->level());
  }

  // Credit deficits, then step every active session concurrently.
  // Sessions are independent (slot state is worker-private during the
  // round), so any interleaving yields the same per-stream results.
  // Ladder level 3 demotes batch: its slots earn a quarter quantum
  // instead of the full weighted share. The trickle guarantees forward
  // progress even when every active slot is a batch session — with zero
  // credit those slots would wedge, the queue could never drain, and the
  // queue-depth sensor would hold the ladder at level 3 forever.
  const bool demote_batch =
      controller_ != nullptr && controller_->throttle_batch();
  double credited_ms = 0.0;
  for (auto& slot : active_) {
    const bool demoted =
        demote_batch && slot->session->priority() == PriorityClass::kBatch;
    const double share =
        options_.quantum_ms * PriorityWeight(slot->session->priority());
    const double credit = demoted ? share * 0.25 : share;
    slot->deficit_ms += credit;
    credited_ms += credit;
  }
  if (obs_on) node_obs_.CountMs(obs_ids_.drr_credit_ms, credited_ms);

  // Longest slot first: the round ends at its slowest worker, so hand the
  // slots out by last round's wall time, descending (never-measured slots
  // lead). Only which worker runs a slot, and when, changes — sessions
  // are independent and everything merged below walks active_ in slot
  // order, so no result depends on this order.
  dispatch_order_.resize(active_.size());
  std::iota(dispatch_order_.begin(), dispatch_order_.end(), size_t{0});
  std::stable_sort(dispatch_order_.begin(), dispatch_order_.end(),
                   [&](size_t a, size_t b) {
                     return active_[a]->step_ms > active_[b]->step_ms;
                   });
  Stopwatch step_watch;
  ParallelFor(dispatch_order_.size(), options_.parallelism, [&](size_t k) {
    Slot& slot = *active_[dispatch_order_[k]];
    Stopwatch slot_watch;
    StepSlotRound(slot, round_);
    slot.step_ms = slot_watch.ElapsedMillis();
  });
  if (obs_on) {
    const double step_ms = step_watch.ElapsedMillis();
    double busy_ms = 0.0;
    for (const auto& slot : active_) busy_ms += slot->step_ms;
    node_obs_.CountMs(obs_ids_.slot_busy_ms, busy_ms);
    node_obs_.CountMs(
        obs_ids_.step_capacity_ms,
        step_ms * ResolveWorkers(options_.parallelism, active_.size()));
  }

  // Merge this round's per-frame samples in slot order (deterministic —
  // never the workers' wall order): the controller senses the simulated
  // frame costs, the pooled percentiles take both kinds, and every slot
  // starts the next round empty. Then the ladder moves at most one rung
  // for next round.
  for (auto& slot : active_) {
    const PriorityClass priority = slot->session->priority();
    if (controller_ != nullptr) {
      for (const double ms : slot->sim_ms) {
        controller_->RecordFrameCost(priority, ms);
      }
    }
    LatencyHistogram& class_sim = class_sim_ms_[PriorityClassIndex(priority)];
    for (const double ms : slot->sim_ms) class_sim.Add(ms);
    for (const double ms : slot->latency_ms) frame_latency_ms_.Add(ms);
    slot->sim_ms.clear();
    slot->latency_ms.clear();
  }
  if (controller_ != nullptr) {
    const int level_before = controller_->level();
    controller_->EndRound(round_, static_cast<int>(queue_.size()));
    if (obs_on && controller_->level() != level_before) {
      node_obs_.Instant(MetricDomain::kWall, -1, "overload_level",
                        obs_wall_ledger_ms_, "level",
                        static_cast<double>(controller_->level()));
    }
  }

  // Retire drained and failed sessions, freeing slots for the queue.
  uint64_t frames_at_round_end = 0;
  for (size_t i = 0; i < active_.size();) {
    Slot& slot = *active_[i];
    if (obs_on) frames_at_round_end += slot.frames;
    if (!slot.status.ok() || slot.session->done()) {
      Retire(slot);
      active_.erase(active_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  if (obs_on) {
    const double round_ms = round_watch.ElapsedMillis();
    const uint64_t frames_this_round =
        frames_at_round_end - frames_at_round_start;
    node_obs_.CountMs(obs_ids_.round_ms, round_ms);
    node_obs_.Count(obs_ids_.frames, frames_this_round);
    node_obs_.Span(MetricDomain::kWall, -1, "round", obs_wall_ledger_ms_,
                   round_ms, "frames",
                   static_cast<double>(frames_this_round));
    obs_wall_ledger_ms_ += round_ms;
  }
}

Result<bool> StreamScheduler::RunRound() {
  if (!serving_) {
    return Status::FailedPrecondition("RunRound before BeginServing");
  }
  if (finished_) {
    return Status::FailedPrecondition("RunRound after FinishServing");
  }
  if (active_.empty() && queue_.empty()) return false;
  RoundOnce();
  return !active_.empty() || !queue_.empty();
}

std::vector<StreamReport> StreamScheduler::TakeRetired() {
  std::vector<StreamReport> out = std::move(retired_);
  retired_.clear();
  return out;
}

Result<ServeReport> StreamScheduler::FinishServing() {
  if (finished_) {
    return Status::FailedPrecondition("FinishServing is callable once");
  }
  finished_ = true;
  ServeReport report;
  report.streams = TakeRetired();
  std::sort(report.streams.begin(), report.streams.end(),
            [](const StreamReport& a, const StreamReport& b) {
              return a.stream_id < b.stream_id;
            });
  stats_.wall_ms = serving_ ? wall_.ElapsedMillis() : 0.0;
  // Empty sample sets yield 0, the stats' defaults.
  stats_.frame_p50_ms = frame_latency_ms_.Percentile(0.50);
  stats_.frame_p99_ms = frame_latency_ms_.Percentile(0.99);
  stats_.frame_p999_ms = frame_latency_ms_.Percentile(0.999);
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    ServeStats::ClassStats& cs = stats_.classes[c];
    // Each event counts only in its class; the totals are the sums.
    stats_.submitted += cs.submitted;
    stats_.admitted += cs.admitted;
    stats_.shed_submissions += cs.shed_submissions;
    stats_.frames += cs.frames;
    cs.sim_p50_ms = class_sim_ms_[c].Percentile(0.50);
    cs.sim_p99_ms = class_sim_ms_[c].Percentile(0.99);
    cs.sim_p999_ms = class_sim_ms_[c].Percentile(0.999);
    cs.shed_rate = cs.submitted == 0
                       ? 0.0
                       : static_cast<double>(cs.shed_submissions) /
                             static_cast<double>(cs.submitted);
  }
  if (controller_ != nullptr) {
    stats_.degradation_level = controller_->level();
    stats_.degradations = controller_->ledger();
  }
  stats_.fleet_health = registry_->Snapshot(round_);
  if (options_.obs.metrics != nullptr) {
    MetricsRegistry& reg = *options_.obs.metrics;
    const MetricDomain wall = MetricDomain::kWall;
    reg.Publish("vqe_sched_rounds_total", wall, stats_.rounds,
                "DRR rounds run");
    reg.Publish("vqe_sched_admitted_total", wall, stats_.admitted,
                "Sessions activated into slots");
    reg.Publish("vqe_sched_shed_total", wall, stats_.shed_submissions,
                "Submissions rejected with kResourceExhausted");
    reg.Publish("vqe_sched_stream_errors_total", wall, stats_.failed_streams,
                "Sessions retired with an error");
    reg.Publish("vqe_sched_overload_transitions_total", wall,
                stats_.degradations.size(),
                "Degradation-ladder level changes");
  }
  report.stats = stats_;
  return report;
}

Result<ServeReport> StreamScheduler::RunUntilDrained() {
  VQE_RETURN_NOT_OK(BeginServing());
  while (true) {
    VQE_ASSIGN_OR_RETURN(const bool more, RunRound());
    if (!more) break;
  }
  return FinishServing();
}

}  // namespace vqe

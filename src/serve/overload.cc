#include "serve/overload.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vqe {

bool operator==(const DegradationTransition& a,
                const DegradationTransition& b) {
  return a.round == b.round && a.from == b.from && a.to == b.to &&
         a.trigger_class == b.trigger_class &&
         a.queue_triggered == b.queue_triggered &&
         a.observed_p99_ms == b.observed_p99_ms &&
         a.queue_depth == b.queue_depth;
}

double SamplePercentileInPlace(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  if (q <= 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: ceil(q * n), 1-based, clamped into the sample range.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Status OverloadOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (window < 1 || window > (1 << 20)) {
    return Status::InvalidArgument("overload window out of range");
  }
  if (min_samples < 1 || min_samples > window) {
    return Status::InvalidArgument(
        "overload min_samples must be in [1, window]");
  }
  if (queue_trigger < 0) {
    return Status::InvalidArgument("overload queue_trigger negative");
  }
  if (dwell_rounds < 1 || recover_rounds < 1) {
    return Status::InvalidArgument(
        "overload dwell/recover rounds must be >= 1");
  }
  if (skip_boost < 0 || skip_boost > kMaxSkipBoost) {
    return Status::InvalidArgument("overload skip_boost out of range");
  }
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    if (!std::isfinite(slo[c].p99_ms) || slo[c].p99_ms < 0.0) {
      return Status::InvalidArgument("overload SLO p99 must be finite >= 0");
    }
    if (!std::isfinite(slo[c].shed_budget) || slo[c].shed_budget < 0.0 ||
        slo[c].shed_budget > 1.0) {
      return Status::InvalidArgument(
          "overload shed_budget must be in [0, 1]");
    }
  }
  return Status::OK();
}

OverloadController::OverloadController(const OverloadOptions& options)
    : options_(options),
      // "Long ago": the first breach may transition without waiting out an
      // initial dwell.
      rounds_since_transition_(options.dwell_rounds) {
  for (auto& w : windows_) w.samples.reserve(options_.window);
}

void OverloadController::RecordFrameCost(PriorityClass cls, double sim_ms) {
  Window& w = windows_[PriorityClassIndex(cls)];
  if (w.samples.size() < static_cast<size_t>(options_.window)) {
    w.samples.push_back(sim_ms);
    w.next = w.samples.size() % static_cast<size_t>(options_.window);
    w.full = w.samples.size() == static_cast<size_t>(options_.window);
  } else {
    w.samples[w.next] = sim_ms;
    w.next = (w.next + 1) % w.samples.size();
    w.full = true;
  }
  w.touched_this_round = true;
}

double OverloadController::ClassP99(int class_index) const {
  if (class_index < 0 || class_index >= kNumPriorityClasses) return 0.0;
  return SamplePercentile(windows_[class_index].samples, 0.99);
}

void OverloadController::Transition(uint64_t round, int to, int trigger_class,
                                    bool queue_triggered, double observed_p99,
                                    int queue_depth) {
  DegradationTransition t;
  t.round = round;
  t.from = level_;
  t.to = to;
  t.trigger_class = trigger_class;
  t.queue_triggered = queue_triggered;
  t.observed_p99_ms = observed_p99;
  t.queue_depth = queue_depth;
  ledger_.push_back(t);
  level_ = to;
  rounds_since_transition_ = 0;
  healthy_streak_ = 0;
}

void OverloadController::EndRound(uint64_t round, int queue_depth) {
  ++rounds_since_transition_;

  // Stale-window hygiene: a class with no live traffic for recover_rounds
  // rounds is judged on nothing rather than on fossils. This is also how
  // the ladder recovers from its own shedding — a demoted batch class
  // produces no samples, its window drains, and the breach clears.
  for (auto& w : windows_) {
    if (w.touched_this_round) {
      w.idle_rounds = 0;
    } else if (++w.idle_rounds >= options_.recover_rounds) {
      w.Clear();
    }
    w.touched_this_round = false;
  }

  // Breach scan, lowest class index (most latency-sensitive) first so the
  // ledger's trigger_class attribution is deterministic.
  int breach_class = -1;
  double breach_p99 = 0.0;
  for (int c = 0; c < kNumPriorityClasses; ++c) {
    const SloTarget& slo = options_.slo[c];
    if (slo.p99_ms <= 0.0) continue;
    const Window& w = windows_[c];
    if (w.count() < static_cast<size_t>(options_.min_samples)) continue;
    const double p99 = SamplePercentile(w.samples, 0.99);
    if (p99 > slo.p99_ms) {
      breach_class = c;
      breach_p99 = p99;
      break;
    }
  }
  const bool queue_hot =
      options_.queue_trigger > 0 && queue_depth >= options_.queue_trigger;
  const bool overloaded = breach_class >= 0 || queue_hot;

  if (overloaded) {
    healthy_streak_ = 0;
    if (level_ + 1 < kNumDegradationLevels &&
        rounds_since_transition_ >= options_.dwell_rounds) {
      Transition(round, level_ + 1, breach_class,
                 breach_class < 0 && queue_hot, breach_p99, queue_depth);
    }
    return;
  }

  ++healthy_streak_;
  if (level_ > 0 && healthy_streak_ >= options_.recover_rounds &&
      rounds_since_transition_ >= options_.dwell_rounds) {
    Transition(round, level_ - 1, -1, false, 0.0, queue_depth);
  }
}

}  // namespace vqe

#include "temporal/skip_policy.h"

#include <cmath>
#include <string>

#include "temporal/difficulty.h"

namespace vqe {

const char* SkipModeToString(SkipMode mode) {
  switch (mode) {
    case SkipMode::kOff: return "off";
    case SkipMode::kFixedInterval: return "fixed";
    case SkipMode::kDifficultyGated: return "gated";
    case SkipMode::kBandit: return "bandit";
  }
  return "unknown";
}

Status SkipOptions::Validate() const {
  if (mode != SkipMode::kOff && mode != SkipMode::kFixedInterval &&
      mode != SkipMode::kDifficultyGated && mode != SkipMode::kBandit) {
    return Status::InvalidArgument("unknown skip mode");
  }
  if (skip_budget < 0) {
    return Status::InvalidArgument("skip_budget must be >= 0");
  }
  if (skip_budget > kMaxSkipBudget) {
    return Status::InvalidArgument("skip_budget must be <= " +
                                   std::to_string(kMaxSkipBudget));
  }
  return Status::OK();
}

void WriteSkipOptionsIdentity(IdentityWriter& w, const SkipOptions& o) {
  w.U64("skip.mode", static_cast<uint64_t>(o.mode))
      .U64("skip.skip_budget", o.skip_budget);
}

SkipPolicy::SkipPolicy(const SkipOptions& options) : options_(options) {
  const size_t cells =
      static_cast<size_t>(kNumDifficultyBuckets) *
      static_cast<size_t>(num_arms());
  plays_.assign(cells, 0);
  reward_sum_.assign(cells, 0.0);
  bucket_plays_.assign(static_cast<size_t>(kNumDifficultyBuckets), 0);
}

int SkipPolicy::PlanSkips(double difficulty) {
  switch (options_.mode) {
    case SkipMode::kOff:
      return 0;
    case SkipMode::kFixedInterval:
      return options_.skip_budget;
    case SkipMode::kDifficultyGated:
      return difficulty < kSkipDifficultyThreshold
                 ? options_.skip_budget
                 : 0;
    case SkipMode::kBandit:
      break;
  }
  // UCB1 over skip depths 0..budget within this frame's difficulty bucket.
  // An episode may still be open if the previous plan was truncated by the
  // end of the video; re-planning simply abandons it (no reward observed).
  const int bucket = DifficultyBucket(difficulty);
  const size_t base =
      static_cast<size_t>(bucket) * static_cast<size_t>(num_arms());
  const uint64_t t = bucket_plays_[static_cast<size_t>(bucket)];
  int chosen = 0;
  double best = -1e300;
  for (int depth = 0; depth < num_arms(); ++depth) {
    const size_t cell = base + static_cast<size_t>(depth);
    double score;
    if (plays_[cell] == 0) {
      // Untried arms first, shallowest depth first: the run warms up with
      // conservative skips before committing to deep ones.
      score = 1e300 - static_cast<double>(depth);
    } else {
      const double n = static_cast<double>(plays_[cell]);
      const double mean = reward_sum_[cell] / n;
      const double bonus =
          kSkipUcbExploration *
          std::sqrt(2.0 * std::log(static_cast<double>(t) + 1.0) / n);
      score = mean + bonus;
    }
    if (score > best) {
      best = score;
      chosen = depth;
    }
  }
  pending_cell_ = static_cast<int64_t>(base) + chosen;
  pending_depth_ = chosen;
  return chosen;
}

void SkipPolicy::OnEpisodeEnd(int completed, double agreement) {
  if (options_.mode != SkipMode::kBandit) return;
  if (pending_cell_ < 0) return;
  const size_t cell = static_cast<size_t>(pending_cell_);
  // Reward: throughput gain realized (completed / planned), discounted by
  // how well the coasted boxes actually matched reality. An episode whose
  // agreement fell below the floor drifted — it gets a flat penalty so the
  // arm's mean drops below the always-detect arm's 0.
  double reward = 0.0;
  if (agreement < kSkipAgreementFloor) {
    reward = -kSkipDriftPenalty;
  } else if (pending_depth_ > 0) {
    reward = (static_cast<double>(completed) /
              static_cast<double>(pending_depth_)) *
             agreement;
  }
  plays_[cell] += 1;
  reward_sum_[cell] += reward;
  bucket_plays_[cell / static_cast<size_t>(num_arms())] += 1;
  episodes_ += 1;
  pending_cell_ = -1;
  pending_depth_ = 0;
}

uint64_t SkipPolicy::ArmPlays(int bucket, int depth) const {
  return plays_[static_cast<size_t>(bucket) *
                    static_cast<size_t>(num_arms()) +
                static_cast<size_t>(depth)];
}

double SkipPolicy::ArmRewardSum(int bucket, int depth) const {
  return reward_sum_[static_cast<size_t>(bucket) *
                         static_cast<size_t>(num_arms()) +
                     static_cast<size_t>(depth)];
}

Status SkipPolicy::SaveState(ByteWriter& w) const {
  w.U32(static_cast<uint32_t>(kNumDifficultyBuckets));
  w.U32(static_cast<uint32_t>(num_arms()));
  for (uint64_t p : plays_) w.U64(p);
  for (double s : reward_sum_) w.F64(s);
  for (uint64_t p : bucket_plays_) w.U64(p);
  w.U64(episodes_);
  w.I64(pending_cell_);
  w.I64(pending_depth_);
  return Status::OK();
}

Status SkipPolicy::RestoreState(ByteReader& r) {
  uint32_t buckets = 0, arms = 0;
  VQE_RETURN_NOT_OK(r.U32(&buckets));
  VQE_RETURN_NOT_OK(r.U32(&arms));
  if (buckets != static_cast<uint32_t>(kNumDifficultyBuckets) ||
      arms != static_cast<uint32_t>(num_arms())) {
    return Status::DataLoss("skip policy dimensions mismatch");
  }
  std::vector<uint64_t> plays(plays_.size());
  std::vector<double> sums(reward_sum_.size());
  std::vector<uint64_t> bucket_plays(bucket_plays_.size());
  for (uint64_t& p : plays) VQE_RETURN_NOT_OK(r.U64(&p));
  for (double& s : sums) VQE_RETURN_NOT_OK(r.F64(&s));
  for (uint64_t& p : bucket_plays) VQE_RETURN_NOT_OK(r.U64(&p));
  uint64_t episodes = 0;
  int64_t pending_cell = 0, pending_depth = 0;
  VQE_RETURN_NOT_OK(r.U64(&episodes));
  VQE_RETURN_NOT_OK(r.I64(&pending_cell));
  VQE_RETURN_NOT_OK(r.I64(&pending_depth));
  if (pending_cell >= static_cast<int64_t>(plays_.size()) ||
      pending_cell < -1) {
    return Status::DataLoss("skip policy pending cell out of range");
  }
  if (pending_depth < 0 || pending_depth >= num_arms()) {
    return Status::DataLoss("skip policy pending depth out of range");
  }
  plays_ = std::move(plays);
  reward_sum_ = std::move(sums);
  bucket_plays_ = std::move(bucket_plays);
  episodes_ = episodes;
  pending_cell_ = pending_cell;
  pending_depth_ = pending_depth;
  return Status::OK();
}

}  // namespace vqe

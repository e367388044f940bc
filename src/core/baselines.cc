#include "core/baselines.h"

#include <cassert>
#include <limits>

namespace vqe {

void OptStrategy::BeginVideo(const StrategyContext& ctx) {
  assert(ctx.oracle != nullptr && "OPT requires an OracleView");
  oracle_ = ctx.oracle;
  num_models_ = ctx.num_models;
}

EnsembleId OptStrategy::Select(size_t t) {
  const EnsembleId full = FullEnsemble(num_models_);
  const EnsembleId eligible = EligibleMask(num_models_);
  EnsembleId best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (EnsembleId s = 1; s <= full; ++s) {
    if (!IsSubsetOf(s, eligible)) continue;
    const double r = oracle_->TrueScore(t, s);
    if (r > best_score) {
      best_score = r;
      best = s;
    }
  }
  return best == 0 ? eligible : best;
}

void SingleBestStrategy::BeginVideo(const StrategyContext& ctx) {
  assert(ctx.oracle != nullptr && "SGL requires an OracleView");
  // The paper: "always applies a specific single detector (which is the
  // most accurate on average across all frames)". Average the true AP of
  // each singleton over the video; keep every singleton's average so the
  // choice can degrade to the best *eligible* detector when a breaker
  // opens the calibrated one.
  //
  // Frame-major, so a lazy source touches each frame once; every model's
  // sum still folds its frames in ascending order, as a model-major loop
  // would.
  num_models_ = ctx.num_models;
  singleton_ap_.assign(static_cast<size_t>(ctx.num_models), 0.0);
  for (size_t t = 0; t < ctx.oracle->num_frames(); ++t) {
    for (int i = 0; i < ctx.num_models; ++i) {
      singleton_ap_[static_cast<size_t>(i)] +=
          ctx.oracle->TrueAp(t, Singleton(i));
    }
  }
  choice_ = 1;
  double best_ap = -1.0;
  for (int i = 0; i < ctx.num_models; ++i) {
    if (singleton_ap_[static_cast<size_t>(i)] > best_ap) {
      best_ap = singleton_ap_[static_cast<size_t>(i)];
      choice_ = Singleton(i);
    }
  }
}

EnsembleId SingleBestStrategy::Select(size_t /*t*/) {
  const EnsembleId eligible = EligibleMask(num_models_);
  if (IsSubsetOf(choice_, eligible)) return choice_;
  // Calibrated detector is breaker-open: run the best eligible singleton.
  EnsembleId fallback = 0;
  double best_ap = -1.0;
  for (int i = 0; i < num_models_; ++i) {
    if (!ContainsModel(eligible, i)) continue;
    if (singleton_ap_[static_cast<size_t>(i)] > best_ap) {
      best_ap = singleton_ap_[static_cast<size_t>(i)];
      fallback = Singleton(i);
    }
  }
  return fallback == 0 ? choice_ : fallback;
}

Status SingleBestStrategy::SaveState(ByteWriter& writer) const {
  writer.U32(choice_);
  WriteVecF64(writer, singleton_ap_);
  return Status::OK();
}

Status SingleBestStrategy::RestoreState(ByteReader& reader) {
  uint32_t choice = 0;
  std::vector<double> singleton_ap;
  VQE_RETURN_NOT_OK(reader.U32(&choice));
  VQE_RETURN_NOT_OK(ReadVecF64(reader, &singleton_ap));
  if (singleton_ap.size() != singleton_ap_.size()) {
    return Status::DataLoss("SGL singleton-count mismatch");
  }
  if (choice == 0 || choice > FullEnsemble(num_models_)) {
    return Status::DataLoss("SGL choice out of range");
  }
  choice_ = static_cast<EnsembleId>(choice);
  singleton_ap_ = std::move(singleton_ap);
  return Status::OK();
}

void RandomStrategy::BeginVideo(const StrategyContext& ctx) {
  num_models_ = ctx.num_models;
  rng_ = MakeStreamRng(ctx.seed, 0x4A4D);
}

EnsembleId RandomStrategy::Select(size_t /*t*/) {
  const EnsembleId eligible = EligibleMask(num_models_);
  const int k = EnsembleSize(eligible);
  // Uniform over the 2^k − 1 non-empty subsets of the eligible pool: draw
  // a mask over k virtual bits, then expand bit j onto the j-th eligible
  // model (ascending). With every model eligible the expansion is the
  // identity, so this consumes exactly the same RNG stream as the
  // unrestricted `1 + UniformInt(2^m − 1)` did — seeded runs without
  // faults are unchanged.
  const EnsembleId draw =
      static_cast<EnsembleId>(1 + rng_.UniformInt(NumEnsembles(k)));
  if (eligible == FullEnsemble(num_models_)) return draw;
  EnsembleId out = 0;
  int j = 0;
  for (int i = 0; i < num_models_; ++i) {
    if (!ContainsModel(eligible, i)) continue;
    if (ContainsModel(draw, j)) out |= Singleton(i);
    ++j;
  }
  return out;
}

Status RandomStrategy::SaveState(ByteWriter& writer) const {
  uint64_t state[4];
  rng_.GetState(state);
  for (uint64_t word : state) writer.U64(word);
  return Status::OK();
}

Status RandomStrategy::RestoreState(ByteReader& reader) {
  uint64_t state[4];
  for (uint64_t& word : state) VQE_RETURN_NOT_OK(reader.U64(&word));
  if (!rng_.SetState(state)) {
    return Status::DataLoss("RAND rng state is all-zero");
  }
  return Status::OK();
}

ExploreFirstStrategy::ExploreFirstStrategy(size_t frames_per_arm)
    : frames_per_arm_(frames_per_arm == 0 ? 1 : frames_per_arm) {}

void ExploreFirstStrategy::BeginVideo(const StrategyContext& ctx) {
  num_models_ = ctx.num_models;
  const size_t n = NumEnsembles(num_models_) + 1;
  sum_.assign(n, 0.0);
  count_.assign(n, 0);
  committed_ = 0;
  explore_frames_ = frames_per_arm_ * NumEnsembles(num_models_);
}

EnsembleId ExploreFirstStrategy::Select(size_t t) {
  const EnsembleId full = FullEnsemble(num_models_);
  const EnsembleId eligible = EligibleMask(num_models_);
  if (t < explore_frames_) {
    // Round-robin through the arms, δ_EF frames each. An arm touching an
    // open-breaker model degrades to its eligible part for this pull (or
    // the whole eligible pool when nothing of it survives).
    const auto arm = static_cast<EnsembleId>(1 + t / frames_per_arm_);
    if (IsSubsetOf(arm, eligible)) return arm;
    return (arm & eligible) != 0 ? (arm & eligible) : eligible;
  }
  if (committed_ == 0) {
    // Commit to the best estimated arm after exploration.
    double best = -std::numeric_limits<double>::infinity();
    committed_ = 1;
    for (EnsembleId s = 1; s <= full; ++s) {
      if (count_[s] == 0) continue;
      const double mean = sum_[s] / static_cast<double>(count_[s]);
      if (mean > best) {
        best = mean;
        committed_ = s;
      }
    }
  }
  if (IsSubsetOf(committed_, eligible)) return committed_;
  // The committed arm lost a member to an open breaker; EF does not keep
  // learning, so just run what is still healthy of it.
  return (committed_ & eligible) != 0 ? (committed_ & eligible) : eligible;
}

Status ExploreFirstStrategy::SaveState(ByteWriter& writer) const {
  writer.U64(explore_frames_);
  writer.U32(committed_);
  WriteVecF64(writer, sum_);
  WriteVecU64(writer, count_);
  return Status::OK();
}

Status ExploreFirstStrategy::RestoreState(ByteReader& reader) {
  uint64_t explore_frames = 0;
  uint32_t committed = 0;
  std::vector<double> sum;
  std::vector<uint64_t> count;
  VQE_RETURN_NOT_OK(reader.U64(&explore_frames));
  VQE_RETURN_NOT_OK(reader.U32(&committed));
  VQE_RETURN_NOT_OK(ReadVecF64(reader, &sum));
  VQE_RETURN_NOT_OK(ReadVecU64(reader, &count));
  if (explore_frames != explore_frames_) {
    return Status::DataLoss("EF exploration-phase length mismatch");
  }
  if (sum.size() != sum_.size() || count.size() != count_.size()) {
    return Status::DataLoss("EF arm-count mismatch");
  }
  if (committed > FullEnsemble(num_models_)) {
    return Status::DataLoss("EF committed arm out of range");
  }
  committed_ = static_cast<EnsembleId>(committed);
  sum_ = std::move(sum);
  count_ = std::move(count);
  return Status::OK();
}

void ExploreFirstStrategy::Observe(const FrameFeedback& feedback) {
  if (feedback.t >= explore_frames_) return;  // committed: nothing to learn
  // Generic MAB: the pulled arm's reward only; no subset reuse. The arm
  // actually pulled is the realized mask — scores for arms with failed
  // members are NaN by construction.
  const EnsembleId arm = feedback.CreditMask();
  const std::vector<double>& est = *feedback.est_score;
  sum_[arm] += est[arm];
  ++count_[arm];
}

}  // namespace vqe

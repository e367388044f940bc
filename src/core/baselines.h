// The comparison strategies of §5.3: OPT (oracle), BF (brute force — always
// the full ensemble), SGL (best single detector), RAND, and EF
// (explore-first multi-armed bandit).

#ifndef VQE_CORE_BASELINES_H_
#define VQE_CORE_BASELINES_H_

#include "common/rng.h"
#include "core/strategy.h"

namespace vqe {

/// OPT: an oracle that selects argmax_S r_{S|v} (true score) per frame —
/// the best any strategy can do; requires oracle access.
class OptStrategy : public SelectionStrategy {
 public:
  const std::string& name() const override {
    static const std::string kName = "OPT";
    return kName;
  }
  void BeginVideo(const StrategyContext& ctx) override;
  EnsembleId Select(size_t t) override;
  void Observe(const FrameFeedback&) override {}
  bool UsesReferenceModel() const override { return false; }
  /// The per-frame oracle argmax scans every mask: eager wins.
  bool needs_full_lattice() const override { return true; }

 private:
  const OracleView* oracle_ = nullptr;
  int num_models_ = 0;
};

/// BF: always runs the full ensemble M.
class BruteForceStrategy : public SelectionStrategy {
 public:
  const std::string& name() const override {
    static const std::string kName = "BF";
    return kName;
  }
  void BeginVideo(const StrategyContext& ctx) override {
    num_models_ = ctx.num_models;
  }
  EnsembleId Select(size_t) override { return EligibleMask(num_models_); }
  void Observe(const FrameFeedback&) override {}
  bool UsesReferenceModel() const override { return false; }
  /// Selecting M every frame makes its subset lattice the whole candidate
  /// space — laziness saves nothing, so keep the eager batch build.
  bool needs_full_lattice() const override { return true; }

 private:
  int num_models_ = 0;
};

/// SGL: always runs the single detector that is most accurate on average
/// over the whole video (an oracle calibration, per the paper's setup).
class SingleBestStrategy : public SelectionStrategy {
 public:
  const std::string& name() const override {
    static const std::string kName = "SGL";
    return kName;
  }
  void BeginVideo(const StrategyContext& ctx) override;
  EnsembleId Select(size_t t) override;
  void Observe(const FrameFeedback&) override {}
  bool UsesReferenceModel() const override { return false; }
  bool calibrates_on_video() const override { return true; }
  Status SaveState(ByteWriter& writer) const override;
  Status RestoreState(ByteReader& reader) override;

 private:
  int num_models_ = 0;
  EnsembleId choice_ = 1;
  /// Summed true AP per singleton (BeginVideo calibration), for degrading
  /// to the best eligible detector when the choice's breaker is open.
  std::vector<double> singleton_ap_;
};

/// RAND: a uniformly random ensemble per frame.
class RandomStrategy : public SelectionStrategy {
 public:
  const std::string& name() const override {
    static const std::string kName = "RAND";
    return kName;
  }
  void BeginVideo(const StrategyContext& ctx) override;
  EnsembleId Select(size_t t) override;
  void Observe(const FrameFeedback&) override {}
  bool UsesReferenceModel() const override { return false; }
  Status SaveState(ByteWriter& writer) const override;
  Status RestoreState(ByteReader& reader) override;

 private:
  int num_models_ = 0;
  Rng rng_;
};

/// EF: Explore-First MAB (§5.3) — a *generic* multi-armed-bandit baseline
/// that treats each ensemble as an independent arm: it applies each of the
/// 2^m − 1 ensembles to δ_EF frames in turn, then commits to the best
/// estimated arm for the rest of the video. Unlike MES it neither reuses
/// model outputs across arms nor keeps learning after commitment.
class ExploreFirstStrategy : public SelectionStrategy {
 public:
  explicit ExploreFirstStrategy(size_t frames_per_arm = 2);

  const std::string& name() const override {
    static const std::string kName = "EF";
    return kName;
  }
  void BeginVideo(const StrategyContext& ctx) override;
  EnsembleId Select(size_t t) override;
  void Observe(const FrameFeedback& feedback) override;
  Status SaveState(ByteWriter& writer) const override;
  Status RestoreState(ByteReader& reader) override;

 private:
  size_t frames_per_arm_;
  size_t explore_frames_ = 0;  // frames_per_arm_ * (2^m - 1)
  int num_models_ = 0;
  std::vector<double> sum_;
  std::vector<uint64_t> count_;
  EnsembleId committed_ = 0;
};

}  // namespace vqe

#endif  // VQE_CORE_BASELINES_H_

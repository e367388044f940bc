// The selection-strategy interface 𝒢 of the paper (§2.4): per frame, pick
// the ensemble to run, then observe the estimated rewards of the arms that
// were (implicitly) evaluated on that frame.
//
// Information protocol: the engine passes estimated scores only for the
// non-empty subsets of the selected ensemble (everything else is NaN),
// because those are the only ensembles whose outputs exist — per-model
// detections are materialized once and subsets are fusion-only (Alg. 1
// lines 9–10). Oracle baselines (OPT, SGL) additionally receive the full
// matrix through an explicit OracleView, making their privileged access
// visible in the type system.

#ifndef VQE_CORE_STRATEGY_H_
#define VQE_CORE_STRATEGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ensemble_id.h"
#include "core/evaluation_source.h"
#include "core/frame_matrix.h"
#include "core/scoring.h"
#include "snapshot/wire.h"

namespace vqe {

/// Privileged read access to true scores, granted only to oracle baselines.
/// Backed by whichever EvaluationSource the engine runs against; on a lazy
/// source every probe materializes the probed cell, so oracle scans over
/// the whole lattice (OPT) keep the eager matrix backend
/// (needs_full_lattice below).
class OracleView {
 public:
  OracleView(EvaluationSource* source, ScoringFunction sc)
      : source_(source), sc_(sc) {}

  size_t num_frames() const { return source_->num_frames(); }
  int num_models() const { return source_->num_models(); }

  /// True score r_{S|v_t} (Eq. 30 with the true AP).
  double TrueScore(size_t t, EnsembleId s) const {
    const MaskEvaluation e = source_->Eval(t, s);
    const double max_cost = source_->Stats(t).max_cost_ms;
    const double norm_cost = max_cost > 0 ? e.cost_ms / max_cost : 0.0;
    return sc_.Score(e.true_ap, norm_cost);
  }

  /// True AP a_{S|v_t}.
  double TrueAp(size_t t, EnsembleId s) const {
    return source_->Eval(t, s).true_ap;
  }

 private:
  EvaluationSource* source_;
  ScoringFunction sc_;
};

/// Per-video context handed to strategies at the start of a run.
struct StrategyContext {
  int num_models = 0;
  size_t num_frames = 0;
  ScoringFunction sc;
  /// Seed for randomized strategies (varies per trial).
  uint64_t seed = 0;
  /// Non-null only for oracle baselines.
  const OracleView* oracle = nullptr;
};

/// One frame's feedback to the strategy.
struct FrameFeedback {
  size_t t = 0;
  EnsembleId selected = 0;
  /// The arm that actually ran: `selected` minus the members whose
  /// detector call failed on this frame. 0 means "same as selected" (the
  /// pre-runtime engines never set it). Scores are published for subsets
  /// of the realized arm only — outputs of failed members do not exist.
  EnsembleId realized = 0;
  /// Estimated scores r̂_{S|v_t}, indexed by mask; NaN for masks that are
  /// not subsets of the realized arm.
  const std::vector<double>* est_score = nullptr;
  /// Normalized costs ĉ_{S|v_t} of the same masks (observable alongside
  /// the score; budget-aware strategies consume them). NaN outside the
  /// realized arm's subsets. Null when the engine does not provide costs.
  const std::vector<double>* norm_cost = nullptr;

  /// The arm whose subset lattice carries valid observations — what
  /// bandits should credit (Alg. 1 lines 9-10 applied to the arm that
  /// ran, not the arm that was asked for).
  EnsembleId CreditMask() const { return realized == 0 ? selected : realized; }
};

/// A selection strategy. Implementations must be reusable across runs:
/// BeginVideo resets all state.
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;

  virtual const std::string& name() const = 0;

  /// Resets state for a new video/run.
  virtual void BeginVideo(const StrategyContext& ctx) = 0;

  /// Chooses the ensemble to run on frame t (0-based).
  virtual EnsembleId Select(size_t t) = 0;

  /// Reports the estimated rewards observed on frame t.
  virtual void Observe(const FrameFeedback& feedback) = 0;

  /// True when the strategy consumes reference-model AP estimates each
  /// frame (the engine then charges/accounts REF inference on that frame).
  virtual bool UsesReferenceModel() const { return true; }

  /// True when a run of this strategy reads (essentially) the whole
  /// 2^m − 1 mask lattice per frame — OPT's oracle argmax scan, BF's
  /// full-pool subset updates — so an eagerly built FrameMatrix is at
  /// least as fast as lazy materialization. Online strategies that only
  /// touch their selections' subset lattices return false (the default)
  /// and profit from a lazy source (RunExperiment picks its backend from
  /// this hook, the regret setting and the skip gate).
  virtual bool needs_full_lattice() const { return false; }

  /// True when BeginVideo reads the oracle over the whole video before
  /// the first Select (SGL's calibration). RunExperiment creates such runs
  /// after the rest of the line-up and lets each calibration read step
  /// the others through that frame, so a shared lazy source builds every
  /// frame's detector context once.
  virtual bool calibrates_on_video() const { return false; }

  /// Restricts candidate arms to subsets of `eligible` — the engine calls
  /// this each frame with the models whose circuit breakers admit calls,
  /// so a known-bad model disappears from UCB enumeration until its
  /// breaker lets probes through again. 0 (the default, and the value
  /// BeginVideo implementations should restore) means "no restriction".
  virtual void SetEligibleModels(EnsembleId eligible) {
    eligible_models_ = eligible;
  }

  /// Serializes every piece of state a resumed run needs to continue
  /// bit-identically (arm statistics, RNG streams, phase counters). The
  /// default writes nothing — correct for strategies whose BeginVideo
  /// reconstructs all state deterministically (OPT, BF, SGL).
  virtual Status SaveState(ByteWriter& writer) const {
    (void)writer;
    return Status::OK();
  }

  /// Restores state written by SaveState. The resume protocol is:
  /// construct an identically-configured strategy, call BeginVideo (sizes
  /// vectors, wires the oracle), then RestoreState to overlay the saved
  /// statistics. Returns DataLoss on malformed payloads, leaving the
  /// strategy in its fresh BeginVideo state.
  virtual Status RestoreState(ByteReader& reader) {
    (void)reader;
    return Status::OK();
  }

 protected:
  /// The arm universe for this frame: the eligible mask, or the full pool
  /// when unrestricted. Strategies enumerate subsets of this instead of
  /// [1, 2^m − 1].
  EnsembleId EligibleMask(int num_models) const {
    return eligible_models_ == 0 ? FullEnsemble(num_models) : eligible_models_;
  }

 private:
  EnsembleId eligible_models_ = 0;
};

}  // namespace vqe

#endif  // VQE_CORE_STRATEGY_H_

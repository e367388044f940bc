// Ensemble identifiers: an ensemble S ⊆ M is a bitmask over the model pool
// (bit i set = model i participates). The whole candidate space of the
// paper, {S : S ⊆ M, S ≠ ∅}, is the masks 1 .. 2^m − 1.

#ifndef VQE_CORE_ENSEMBLE_ID_H_
#define VQE_CORE_ENSEMBLE_ID_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace vqe {

/// Bitmask ensemble identifier. Mask 0 (the empty ensemble) is never a
/// valid selection.
using EnsembleId = uint32_t;

/// Largest supported pool size (2^20 − 1 ensembles).
inline constexpr int kMaxPoolSize = 20;

/// The ensemble containing all m models.
inline EnsembleId FullEnsemble(int m) {
  return (EnsembleId{1} << m) - 1;
}

/// Number of candidate ensembles for a pool of m models: 2^m − 1.
inline uint32_t NumEnsembles(int m) { return FullEnsemble(m); }

/// Number of models in the ensemble.
inline int EnsembleSize(EnsembleId id) { return std::popcount(id); }

/// True when model `i` participates in `id`.
inline bool ContainsModel(EnsembleId id, int i) {
  return (id >> i) & 1u;
}

/// True when every model of `a` is also in `b`.
inline bool IsSubsetOf(EnsembleId a, EnsembleId b) { return (a & b) == a; }

/// The singleton ensemble {model i}.
inline EnsembleId Singleton(int i) { return EnsembleId{1} << i; }

/// Calls fn(sub) for every non-empty subset of `mask`, `mask` itself
/// first, in the standard descending sub-mask order; allocation-free.
template <typename Fn>
inline void ForEachSubset(EnsembleId mask, Fn&& fn) {
  for (EnsembleId sub = mask; sub != 0; sub = (sub - 1) & mask) {
    fn(sub);
  }
}

/// Indices of the models in the ensemble, ascending.
std::vector<int> EnsembleModels(EnsembleId id);

/// Human-readable name, e.g. "{yolov7-tiny@clear, yolov7@clear}".
std::string EnsembleName(EnsembleId id,
                         const std::vector<std::string>& model_names);

}  // namespace vqe

#endif  // VQE_CORE_ENSEMBLE_ID_H_

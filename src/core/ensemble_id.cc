#include "core/ensemble_id.h"

namespace vqe {

std::vector<int> EnsembleModels(EnsembleId id) {
  std::vector<int> out;
  for (int i = 0; i < kMaxPoolSize; ++i) {
    if (ContainsModel(id, i)) out.push_back(i);
  }
  return out;
}

std::string EnsembleName(EnsembleId id,
                         const std::vector<std::string>& model_names) {
  std::string out = "{";
  bool first = true;
  for (int i : EnsembleModels(id)) {
    if (!first) out += ", ";
    first = false;
    if (i < static_cast<int>(model_names.size())) {
      out += model_names[static_cast<size_t>(i)];
    } else {
      out += "M" + std::to_string(i);
    }
  }
  out += "}";
  return out;
}

}  // namespace vqe

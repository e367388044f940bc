#include "fusion/ensemble_method.h"

namespace vqe {

void EnsembleMethod::FuseByClass(DetectionListSpan per_model,
                                 const PairwiseIouCache* iou,
                                 const FrameSoA* soa, ClassSink* sink) const {
  // Warms to the largest fused list this thread has seen; PartitionByClass
  // copies it into the arena before the sink runs, so a sink that fuses
  // again on this thread cannot clobber what it is being handed.
  thread_local DetectionList fused;
  FuseInto(per_model, iou, soa, &fused);
  PartitionByClass(fused, sink);
}

}  // namespace vqe

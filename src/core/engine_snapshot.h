// Wire helpers and section names of the engine's snapshot: the partial
// RunResult accumulators and the TimeBreakdown. Exposed as free functions
// so tests can round-trip accounting structures directly. EngineRun
// writes and reads the sections itself (ExportSnapshot,
// RestoreFromSnapshot).
//
// Section layout inside a RunStrategy checkpoint or migration payload
// (container format in snapshot/snapshot.h):
//
//   engine.meta    — run identity (snapshot/identity.h): strategy name,
//                    pool size, video length, seed, budget, scoring
//                    weights, measurement flags, breaker and skip knobs,
//                    as named fields. A snapshot whose identity differs
//                    is refused with FailedPrecondition naming the first
//                    differing field; one written before the tagged
//                    layout is refused the same way.
//   engine.cursor  — next frame to process + accumulated algorithm seconds.
//   engine.result  — the RunResult accumulators as they stand mid-loop
//                    (avg_* fields hold running SUMS until the run ends).
//   strategy       — SelectionStrategy::SaveState payload.
//   breakers       — per-model CircuitBreaker state machines.
//   temporal       — skip-enabled runs only: the carried cost normalizer
//                    and the TemporalGate state.
//
// The evaluation source is not part of a snapshot: its cells are pure
// functions of (frame, mask), and a restored run never reads a frame it
// has already stepped past.

#ifndef VQE_CORE_ENGINE_SNAPSHOT_H_
#define VQE_CORE_ENGINE_SNAPSHOT_H_

#include "common/status.h"
#include "core/engine.h"
#include "snapshot/wire.h"

namespace vqe {

// Section names shared by the engine and the resume tests.
inline constexpr char kEngineMetaSection[] = "engine.meta";
inline constexpr char kEngineCursorSection[] = "engine.cursor";
inline constexpr char kEngineResultSection[] = "engine.result";
inline constexpr char kStrategySection[] = "strategy";
inline constexpr char kBreakersSection[] = "breakers";
/// Temporal fast-path state (gate + skip policy + propagation tracker +
/// the carried cost normalizer); present only in skip-enabled runs.
inline constexpr char kTemporalSection[] = "temporal";

void WriteTimeBreakdown(ByteWriter& w, const TimeBreakdown& tb);
Status ReadTimeBreakdown(ByteReader& r, TimeBreakdown* tb);

/// Serializes every RunResult field except the per-invocation
/// CheckpointReport (which describes the process, not the run).
void WriteRunResult(ByteWriter& w, const RunResult& result);
Status ReadRunResult(ByteReader& r, RunResult* result);

}  // namespace vqe

#endif  // VQE_CORE_ENGINE_SNAPSHOT_H_

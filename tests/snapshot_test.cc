// Unit tests for the snapshot subsystem: the wire format, the checksummed
// container, the crash-atomic generation manager, the SaveState/Restore
// round-trips of every stateful component a checkpoint captures, and the
// run-identity comparer that decides whether a snapshot belongs to a run. The
// crash-injection matrix (resumed runs bit-identical to uninterrupted ones)
// lives in resume_test.cc.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/arm_stats.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/engine_snapshot.h"
#include "core/mes.h"
#include "runtime/circuit_breaker.h"
#include "snapshot/checkpoint.h"
#include "snapshot/crc32.h"
#include "snapshot/identity.h"
#include "snapshot/snapshot.h"
#include "snapshot/wire.h"
#include "test_util.h"

namespace vqe {
namespace {

using test::ScratchDir;

constexpr char kScratch[] = "vqe_snapshot_test";

// ------------------------------------------------------------------ Wire --

TEST(WireTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.14159);
  w.Bool(true);
  w.Bool(false);
  w.Str("hello");

  ByteReader r(w.bytes().data(), w.size());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double f64;
  bool b1, b0;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Bool(&b1).ok());
  ASSERT_TRUE(r.Bool(&b0).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 3.14159);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b0);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, DoublePreservesNanPayloadBits) {
  const uint64_t weird_nan = 0x7FF800000000BEEFull;
  ByteWriter w;
  w.F64(std::bit_cast<double>(weird_nan));
  ByteReader r(w.bytes().data(), w.size());
  double out = 0.0;
  ASSERT_TRUE(r.F64(&out).ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(out), weird_nan);
}

TEST(WireTest, TruncatedReadsReturnDataLoss) {
  ByteWriter w;
  w.U32(7);
  ByteReader r(w.bytes().data(), w.size());
  uint64_t u64;
  EXPECT_EQ(r.U64(&u64).code(), StatusCode::kDataLoss);
  // The failed read consumed nothing; a U32 still works.
  uint32_t u32;
  EXPECT_TRUE(r.U32(&u32).ok());
  EXPECT_EQ(u32, 7u);
}

TEST(WireTest, BoolRejectsOutOfRangeByte) {
  const uint8_t byte = 2;
  ByteReader r(&byte, 1);
  bool out;
  EXPECT_EQ(r.Bool(&out).code(), StatusCode::kDataLoss);
}

TEST(WireTest, StringRejectsForgedLength) {
  ByteWriter w;
  w.U32(0xFFFFFFFFu);  // claims 4 GiB of characters
  w.U8('x');
  ByteReader r(w.bytes().data(), w.size());
  std::string s;
  EXPECT_EQ(r.Str(&s).code(), StatusCode::kDataLoss);
}

TEST(WireTest, VectorsRoundTripAndRejectForgedCounts) {
  ByteWriter w;
  WriteVecU64(w, {1, 2, 3});
  WriteVecF64(w, {0.5, -0.25});
  WriteVecU32(w, {7, 8});
  ByteReader r(w.bytes().data(), w.size());
  std::vector<uint64_t> u;
  std::vector<double> f;
  std::vector<uint32_t> u32;
  ASSERT_TRUE(ReadVecU64(r, &u).ok());
  ASSERT_TRUE(ReadVecF64(r, &f).ok());
  ASSERT_TRUE(ReadVecU32(r, &u32).ok());
  EXPECT_EQ(u, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(f, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(u32, (std::vector<uint32_t>{7, 8}));
  EXPECT_TRUE(r.ExpectEnd().ok());

  // A forged element count larger than the remaining payload is rejected
  // before any allocation happens.
  ByteWriter forged;
  forged.U64(uint64_t{1} << 60);
  ByteReader fr(forged.bytes().data(), forged.size());
  std::vector<uint64_t> out;
  EXPECT_EQ(ReadVecU64(fr, &out).code(), StatusCode::kDataLoss);
}

TEST(WireTest, ExpectEndCatchesTrailingBytes) {
  ByteWriter w;
  w.U32(1);
  w.U8(0);
  ByteReader r(w.bytes().data(), w.size());
  uint32_t v;
  ASSERT_TRUE(r.U32(&v).ok());
  EXPECT_EQ(r.ExpectEnd().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------------- CRC --

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t inc = 0;
  inc = Crc32Update(inc, data.data(), 10);
  inc = Crc32Update(inc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc, Crc32(data.data(), data.size()));
}

// ------------------------------------------------------------- Container --

std::vector<uint8_t> MakeTwoSectionSnapshot() {
  SnapshotWriter w;
  ByteWriter& a = w.AddSection("alpha");
  a.U64(123);
  a.Str("payload-a");
  ByteWriter& b = w.AddSection("beta");
  b.F64(2.5);
  return w.Finish();
}

TEST(SnapshotContainerTest, RoundTripsSections) {
  auto parsed = SnapshotReader::Parse(MakeTwoSectionSnapshot());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->section_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_TRUE(parsed->HasSection("alpha"));
  EXPECT_FALSE(parsed->HasSection("gamma"));
  EXPECT_EQ(parsed->Section("gamma").status().code(), StatusCode::kNotFound);

  auto a = parsed->Section("alpha");
  ASSERT_TRUE(a.ok());
  uint64_t v;
  std::string s;
  ASSERT_TRUE(a->U64(&v).ok());
  ASSERT_TRUE(a->Str(&s).ok());
  EXPECT_EQ(v, 123u);
  EXPECT_EQ(s, "payload-a");
  EXPECT_TRUE(a->ExpectEnd().ok());

  auto b = parsed->Section("beta");
  ASSERT_TRUE(b.ok());
  double d;
  ASSERT_TRUE(b->F64(&d).ok());
  EXPECT_EQ(d, 2.5);
}

TEST(SnapshotContainerTest, RejectsEveryPossibleTruncation) {
  const std::vector<uint8_t> good = MakeTwoSectionSnapshot();
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    auto parsed = SnapshotReader::Parse(std::move(cut));
    EXPECT_FALSE(parsed.ok()) << "truncation to " << len << " bytes accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  }
}

TEST(SnapshotContainerTest, RejectsEverySingleBitFlip) {
  const std::vector<uint8_t> good = MakeTwoSectionSnapshot();
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[i] ^= uint8_t(1) << bit;
      auto parsed = SnapshotReader::Parse(std::move(bad));
      EXPECT_FALSE(parsed.ok())
          << "bit flip at byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(SnapshotContainerTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> bytes = MakeTwoSectionSnapshot();
  bytes.push_back(0x00);
  auto parsed = SnapshotReader::Parse(std::move(bytes));
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotContainerTest, RejectsWrongMagic) {
  std::vector<uint8_t> bytes = MakeTwoSectionSnapshot();
  bytes[0] = 'X';
  EXPECT_EQ(SnapshotReader::Parse(std::move(bytes)).status().code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotContainerTest, EmptySnapshotParses) {
  SnapshotWriter w;
  auto parsed = SnapshotReader::Parse(w.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->section_names().empty());
}

// ----------------------------------------------------- CheckpointManager --

TEST(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointManager mgr(ScratchDir(kScratch, "empty"));
  ASSERT_TRUE(mgr.Init().ok());
  EXPECT_EQ(mgr.LoadLatestGood().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(mgr.ListGenerations().empty());
}

TEST(CheckpointManagerTest, WriteLoadRoundTrip) {
  CheckpointManager mgr(ScratchDir(kScratch, "roundtrip"));
  ASSERT_TRUE(mgr.Write(1, MakeTwoSectionSnapshot()).ok());
  auto loaded = mgr.LoadLatestGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_EQ(loaded->rejected, 0);
  EXPECT_TRUE(loaded->snapshot.HasSection("alpha"));
}

TEST(CheckpointManagerTest, PrunesBeyondRetentionWindow) {
  CheckpointManager mgr(ScratchDir(kScratch, "prune"), /*keep_generations=*/2);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(mgr.Write(seq, MakeTwoSectionSnapshot()).ok());
  }
  EXPECT_EQ(mgr.ListGenerations(), (std::vector<uint64_t>{4, 5}));
}

TEST(CheckpointManagerTest, FallsBackPastCorruptNewestGeneration) {
  CheckpointManager mgr(ScratchDir(kScratch, "fallback"));
  ASSERT_TRUE(mgr.Write(1, MakeTwoSectionSnapshot()).ok());
  ASSERT_TRUE(mgr.Write(2, MakeTwoSectionSnapshot()).ok());

  // Flip one byte in the newest generation, as a torn write or bit rot
  // would.
  const std::string path = mgr.GenerationPath(2);
  std::vector<char> bytes;
  {
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.is_open());
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = mgr.LoadLatestGood();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_EQ(loaded->rejected, 1);
}

TEST(CheckpointManagerTest, AllGenerationsCorruptIsNotFound) {
  CheckpointManager mgr(ScratchDir(kScratch, "all_bad"));
  ASSERT_TRUE(mgr.Write(1, MakeTwoSectionSnapshot()).ok());
  {
    std::ofstream os(mgr.GenerationPath(1), std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  auto loaded = mgr.LoadLatestGood();
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Loaded::rejected reports the skips of its own load only: a damaged
// generation is counted again by every load that walks past it.
TEST(CheckpointManagerTest, RejectedCountIsPerLoad) {
  CheckpointManager mgr(ScratchDir(kScratch, "rejected_per_load"));
  ASSERT_TRUE(mgr.Write(1, MakeTwoSectionSnapshot()).ok());
  ASSERT_TRUE(mgr.Write(2, MakeTwoSectionSnapshot()).ok());
  ASSERT_TRUE(mgr.Write(3, MakeTwoSectionSnapshot()).ok());

  auto clean = mgr.LoadLatestGood();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->rejected, 0);

  {
    std::ofstream os(mgr.GenerationPath(3), std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  for (int load = 0; load < 2; ++load) {
    auto damaged = mgr.LoadLatestGood();
    ASSERT_TRUE(damaged.ok());
    EXPECT_EQ(damaged->sequence, 2u);
    EXPECT_EQ(damaged->rejected, 1);
  }
}

TEST(CheckpointPolicyTest, ValidatesKnobs) {
  CheckpointPolicy p;
  EXPECT_TRUE(p.Validate().ok());  // disabled is fine
  p.every_frames = 10;
  EXPECT_FALSE(p.Validate().ok());  // cadence without a directory
  p.directory = "/tmp/x";
  EXPECT_TRUE(p.Validate().ok());
  p.keep_generations = 0;
  EXPECT_FALSE(p.Validate().ok());
}

// ------------------------------------------------------------ Components --

TEST(ArmStatsSnapshotTest, RoundTripsBitExactly) {
  ArmStats a;
  a.Reset(3);
  a.Record(1, 0.25);
  a.Record(1, 0.5);
  a.Record(7, 1.0 / 3.0);

  ByteWriter w;
  a.Save(w);
  ArmStats b;
  b.Reset(3);
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(b.Restore(r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  for (EnsembleId s = 1; s <= NumEnsembles(3); ++s) {
    EXPECT_EQ(b.Count(s), a.Count(s));
    EXPECT_EQ(std::bit_cast<uint64_t>(b.Mean(s)),
              std::bit_cast<uint64_t>(a.Mean(s)));
  }
}

TEST(ArmStatsSnapshotTest, RejectsWrongPoolSize) {
  ArmStats a;
  a.Reset(3);
  ByteWriter w;
  a.Save(w);
  ArmStats b;
  b.Reset(2);  // different arm count
  ByteReader r(w.bytes().data(), w.size());
  EXPECT_EQ(b.Restore(r).code(), StatusCode::kDataLoss);
  EXPECT_EQ(b.size(), NumEnsembles(2) + 1);  // untouched
}

TEST(SlidingWindowSnapshotTest, RestoredWindowEvictsIdentically) {
  // Drive two instances: record, snapshot A into B mid-stream, then feed
  // both the same continuation. Eviction depends on the history contents,
  // so only a full window restore keeps them in lockstep.
  SlidingWindowArmStats a;
  a.Reset(2, /*window=*/3);
  a.RecordFrame({{1, 0.1}, {3, 0.7}});
  a.RecordFrame({{2, 0.2}});
  a.RecordFrame({{3, 1.0 / 7.0}});

  ByteWriter w;
  a.Save(w);
  SlidingWindowArmStats b;
  b.Reset(2, 3);
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(b.Restore(r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(b.FramesInWindow(), a.FramesInWindow());

  for (int step = 0; step < 5; ++step) {
    const double reward = 0.3 + 0.1 * step;
    a.RecordFrame({{1, reward}});
    b.RecordFrame({{1, reward}});
    for (EnsembleId s = 1; s <= NumEnsembles(2); ++s) {
      ASSERT_EQ(b.Count(s), a.Count(s)) << "step " << step;
      ASSERT_EQ(std::bit_cast<uint64_t>(b.Mean(s)),
                std::bit_cast<uint64_t>(a.Mean(s)))
          << "step " << step;
    }
  }
}

TEST(SlidingWindowSnapshotTest, RejectsMalformedHistory) {
  SlidingWindowArmStats a;
  a.Reset(2, 3);
  a.RecordFrame({{1, 0.5}});
  ByteWriter w;
  a.Save(w);

  // Window mismatch.
  {
    SlidingWindowArmStats b;
    b.Reset(2, 4);
    ByteReader r(w.bytes().data(), w.size());
    EXPECT_EQ(b.Restore(r).code(), StatusCode::kDataLoss);
  }
  // Arm id out of range inside the history.
  {
    ByteWriter bad;
    WriteVecU64(bad, {0, 0, 0, 0});
    WriteVecF64(bad, {0, 0, 0, 0});
    bad.U64(3);  // window
    bad.U64(1);  // one history frame
    bad.U64(1);  // one observation
    bad.U32(99);  // arm id out of range for m=2
    bad.F64(0.5);
    SlidingWindowArmStats b;
    b.Reset(2, 3);
    ByteReader r(bad.bytes().data(), bad.size());
    EXPECT_EQ(b.Restore(r).code(), StatusCode::kDataLoss);
  }
}

TEST(CircuitBreakerSnapshotTest, RestoredBreakerReplaysTrajectory) {
  CircuitBreakerOptions opts;
  opts.failure_threshold = 2;
  opts.open_frames = 3;
  opts.half_open_probes = 1;

  CircuitBreaker a(opts);
  a.RecordFailure(0);
  a.RecordFailure(1);  // trips open at frame 1
  ASSERT_EQ(a.StateAt(2), BreakerState::kOpen);

  ByteWriter w;
  ASSERT_TRUE(a.SaveState(w).ok());
  CircuitBreaker b(opts);
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(b.RestoreState(r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());

  // Both replay the same trajectory from here.
  for (size_t t = 2; t < 10; ++t) {
    ASSERT_EQ(b.StateAt(t), a.StateAt(t)) << "frame " << t;
    if (a.StateAt(t) == BreakerState::kHalfOpen) {
      a.RecordSuccess(t);
      b.RecordSuccess(t);
    }
  }
  EXPECT_EQ(b.successes(), a.successes());
  EXPECT_EQ(b.failures(), a.failures());
  EXPECT_EQ(b.opens(), a.opens());
}

TEST(CircuitBreakerSnapshotTest, RejectsCorruptState) {
  CircuitBreaker a;
  ByteWriter w;
  ASSERT_TRUE(a.SaveState(w).ok());
  std::vector<uint8_t> bytes = w.bytes();
  bytes[0] = 9;  // state enum out of range
  CircuitBreaker b;
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(b.RestoreState(r).code(), StatusCode::kDataLoss);

  // Counters the state machine cannot reach under the default options
  // (failure_threshold 3, half_open_probes 1), among them values an int
  // cannot hold. A refused payload leaves the target as it was.
  auto closed_with = [](int64_t streak, int64_t probes) {
    ByteWriter w;
    w.U8(static_cast<uint8_t>(BreakerState::kClosed));
    w.U64(0);  // opened_at
    w.I64(streak);
    w.I64(probes);
    w.U64(5);  // successes
    w.U64(4);  // failures
    w.U64(2);  // opens
    return w;
  };
  const int64_t wraps = int64_t{1} << 31;
  const int64_t int_max = std::numeric_limits<int>::max();
  const struct {
    const char* name;
    int64_t streak, probes;
  } corpus[] = {
      {"negative streak", -1, 0},      {"streak at threshold", 3, 0},
      {"streak wraps an int", wraps, 0}, {"streak at INT_MAX", int_max, 0},
      {"negative probes", 0, -1},      {"probes past half-open", 0, 2},
      {"probes wrap an int", 0, wraps},
  };
  for (const auto& c : corpus) {
    CircuitBreaker target;
    target.RecordFailure(0);
    const ByteWriter bad = closed_with(c.streak, c.probes);
    ByteReader br(bad.bytes().data(), bad.size());
    EXPECT_EQ(target.RestoreState(br).code(), StatusCode::kDataLoss)
        << c.name;
    EXPECT_EQ(target.failures(), 1u) << c.name;
    target.RecordFailure(1);
    target.RecordFailure(2);  // the untouched streak trips at three
    EXPECT_EQ(target.opens(), 1u) << c.name;
  }

  // The reachable extremes restore.
  const ByteWriter edge = closed_with(2, 1);
  CircuitBreaker target;
  ByteReader er(edge.bytes().data(), edge.size());
  ASSERT_TRUE(target.RestoreState(er).ok());
  EXPECT_EQ(target.failures(), 4u);
  target.RecordFailure(0);  // the third consecutive failure trips it
  EXPECT_EQ(target.opens(), 3u);
}

TEST(RunResultSnapshotTest, RoundTripsEveryField) {
  RunResult a;
  a.s_sum = 12.75;
  a.avg_true_ap = 6.5;  // mid-run running sum
  a.avg_norm_cost = 3.25;
  a.frames_processed = 17;
  a.regret = 0.125;
  a.regret_available = true;
  a.charged_cost_ms = 987.5;
  a.breakdown.detector_ms = 700.0;
  a.breakdown.reference_ms = 100.0;
  a.breakdown.ensembling_ms = 50.0;
  a.breakdown.fault_ms = 12.5;
  a.breakdown.algorithm_ms = 1.5;
  a.selection_counts = {0, 5, 3, 9};
  a.cost_curve = {{1, 10.5}, {2, 20.25}};
  a.model_availability.resize(2);
  a.model_availability[0].frames_selected = 9;
  a.model_availability[0].frames_failed = 2;
  a.model_availability[0].breaker_opens = 1;
  a.model_availability[0].fault_ms = 7.5;
  a.model_availability[1].frames_selected = 8;
  a.fallback_frames = 3;
  a.failed_frames = 1;
  a.checkpoint.snapshots_written = 99;  // must NOT travel

  ByteWriter w;
  WriteRunResult(w, a);
  RunResult b;
  ByteReader r(w.bytes().data(), w.size());
  ASSERT_TRUE(ReadRunResult(r, &b).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());

  EXPECT_EQ(b.s_sum, a.s_sum);
  EXPECT_EQ(b.avg_true_ap, a.avg_true_ap);
  EXPECT_EQ(b.avg_norm_cost, a.avg_norm_cost);
  EXPECT_EQ(b.frames_processed, a.frames_processed);
  EXPECT_EQ(b.regret, a.regret);
  EXPECT_EQ(b.regret_available, a.regret_available);
  EXPECT_EQ(b.charged_cost_ms, a.charged_cost_ms);
  EXPECT_EQ(b.breakdown.detector_ms, a.breakdown.detector_ms);
  EXPECT_EQ(b.breakdown.reference_ms, a.breakdown.reference_ms);
  EXPECT_EQ(b.breakdown.ensembling_ms, a.breakdown.ensembling_ms);
  EXPECT_EQ(b.breakdown.fault_ms, a.breakdown.fault_ms);
  EXPECT_EQ(b.breakdown.algorithm_ms, a.breakdown.algorithm_ms);
  EXPECT_EQ(b.selection_counts, a.selection_counts);
  EXPECT_EQ(b.cost_curve, a.cost_curve);
  ASSERT_EQ(b.model_availability.size(), 2u);
  EXPECT_EQ(b.model_availability[0].frames_selected, 9u);
  EXPECT_EQ(b.model_availability[0].frames_failed, 2u);
  EXPECT_EQ(b.model_availability[0].breaker_opens, 1u);
  EXPECT_EQ(b.model_availability[0].fault_ms, 7.5);
  EXPECT_EQ(b.model_availability[1].frames_selected, 8u);
  EXPECT_EQ(b.fallback_frames, 3u);
  EXPECT_EQ(b.failed_frames, 1u);
  EXPECT_EQ(b.checkpoint.snapshots_written, 0u);  // per-invocation only
}

// -------------------------------------------------------------- Identity --

ByteReader ReaderOver(const std::vector<uint8_t>& bytes) {
  return ByteReader(bytes.data(), bytes.size());
}

IdentityWriter SampleIdentity() {
  IdentityWriter w;
  w.Str("strategy", "MES").U64("num_models", 3).F64("budget_ms", 500.0);
  return w;
}

TEST(SnapshotIdentityTest, ComparerNamesTheFirstDifferingField) {
  const IdentityWriter live = SampleIdentity();
  EXPECT_TRUE(ExpectSameIdentity(ReaderOver(live.bytes()), live).ok());

  auto refusal = [&](const IdentityWriter& saved) {
    return ExpectSameIdentity(ReaderOver(saved.bytes()), live);
  };
  IdentityWriter other_value;
  other_value.Str("strategy", "MES").U64("num_models", 3).F64("budget_ms",
                                                              501.0);
  Status st = refusal(other_value);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("different budget_ms:"), std::string::npos)
      << st.ToString();

  IdentityWriter other_string;
  other_string.Str("strategy", "RAND").U64("num_models", 3).F64("budget_ms",
                                                                500.0);
  st = refusal(other_string);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("different strategy:"), std::string::npos)
      << st.ToString();

  IdentityWriter missing;
  missing.Str("strategy", "MES").U64("num_models", 3);
  st = refusal(missing);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("budget_ms"), std::string::npos);

  IdentityWriter extra = SampleIdentity();
  extra.U64("gamma", 2);
  st = refusal(extra);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("gamma"), std::string::npos);

  IdentityWriter renamed;
  renamed.Str("strategy", "MES").U64("pool_size", 3).F64("budget_ms", 500.0);
  st = refusal(renamed);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("num_models"), std::string::npos);

  // Same name, other kind: a u64 where the run writes a double.
  IdentityWriter retyped;
  retyped.Str("strategy", "MES").U64("num_models", 3).U64(
      "budget_ms", std::bit_cast<uint64_t>(500.0));
  EXPECT_EQ(refusal(retyped).code(), StatusCode::kFailedPrecondition);
}

// An identity payload without the tag (the untagged layout older builds
// wrote) is another build's snapshot, not a damaged one.
TEST(SnapshotIdentityTest, UntaggedPayloadIsRefusedAsIncompatible) {
  const IdentityWriter live = SampleIdentity();
  // The string "MES" as its u32 length and bytes.
  ByteWriter untagged;
  untagged.U32(3);
  for (const char c : {'M', 'E', 'S'}) untagged.U8(static_cast<uint8_t>(c));
  untagged.I64(3);
  untagged.F64(500.0);
  const Status st = ExpectSameIdentity(ReaderOver(untagged.bytes()), live);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

TEST(SnapshotIdentityTest, MalformedPayloadIsDataLoss) {
  const IdentityWriter live = SampleIdentity();
  const std::vector<uint8_t>& good = live.bytes();
  // A cut on a field boundary leaves a well-formed payload that lacks
  // fields (FailedPrecondition); a cut inside the tag or a field is
  // DataLoss.
  IdentityWriter one_field, two_fields;
  one_field.Str("strategy", "MES");
  two_fields.Str("strategy", "MES").U64("num_models", 3);
  const std::vector<size_t> boundaries = {IdentityWriter().bytes().size(),
                                          one_field.bytes().size(),
                                          two_fields.bytes().size()};
  for (size_t len = 0; len < good.size(); ++len) {
    const std::vector<uint8_t> cut(good.begin(),
                                   good.begin() + static_cast<long>(len));
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), len) !=
        boundaries.end();
    EXPECT_EQ(ExpectSameIdentity(ReaderOver(cut), live).code(),
              on_boundary ? StatusCode::kFailedPrecondition
                          : StatusCode::kDataLoss)
        << "len=" << len;
  }
  std::vector<uint8_t> bad_kind = good;
  bad_kind[sizeof(kIdentityTag)] = 'x';
  EXPECT_EQ(ExpectSameIdentity(ReaderOver(bad_kind), live).code(),
            StatusCode::kDataLoss);
  std::vector<uint8_t> forged_length = good;
  forged_length[sizeof(kIdentityTag) + 1] = 0xFF;  // name length
  EXPECT_EQ(ExpectSameIdentity(ReaderOver(forged_length), live).code(),
            StatusCode::kDataLoss);
}

// Every field of the engine identity, changed alone, is refused by a real
// restore with FailedPrecondition naming that field.
TEST(SnapshotIdentityTest, EngineRefusesEveryFieldChange) {
  const std::vector<double> arm_ap = {0.0, 0.4, 0.5, 0.7};
  const FrameMatrix matrix =
      test::SyntheticMatrix(2, 20, arm_ap, {10.0, 20.0});
  EngineOptions base;
  base.strategy_seed = 42;
  base.budget_ms = 5000.0;

  MatrixEvaluationSource source(matrix);
  MesStrategy mes;
  auto run = std::move(EngineRun::Create(source, &mes, base)).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(run->StepFrame().ok());
  const SnapshotReader snap =
      std::move(SnapshotReader::Parse(std::move(run->ExportSnapshot()).value()))
          .value();

  auto expect_refused = [&](const std::string& field, const FrameMatrix& m,
                            SelectionStrategy* strategy,
                            const EngineOptions& options) {
    SCOPED_TRACE(field);
    MatrixEvaluationSource target_source(m);
    auto target =
        std::move(EngineRun::Create(target_source, strategy, options)).value();
    const Status st = target->RestoreFromSnapshot(snap);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.message().find("different " + field + ":"),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(target->next_frame(), 0u);
  };

  {
    MesStrategy same;
    MatrixEvaluationSource target_source(matrix);
    auto target =
        std::move(EngineRun::Create(target_source, &same, base)).value();
    ASSERT_TRUE(target->RestoreFromSnapshot(snap).ok());
    EXPECT_EQ(target->next_frame(), 5u);
  }
  RandomStrategy rand;
  expect_refused("strategy", matrix, &rand, base);
  MesStrategy mes3;
  expect_refused("num_models",
                 test::SyntheticMatrix(3, 20, std::vector<double>(8, 0.5),
                                       {10.0, 20.0, 30.0}),
                 &mes3, base);
  MesStrategy mes_long;
  expect_refused("num_frames",
                 test::SyntheticMatrix(2, 21, arm_ap, {10.0, 20.0}),
                 &mes_long, base);

  const std::vector<std::pair<std::string, std::function<void(EngineOptions&)>>>
      changes = {
          {"strategy_seed", [](EngineOptions& o) { ++o.strategy_seed; }},
          {"budget_ms", [](EngineOptions& o) { o.budget_ms += 1.0; }},
          // w1 + w2 must stay 1; one ulp on either weight keeps it valid.
          {"sc.w1",
           [](EngineOptions& o) { o.sc.w1 = std::nextafter(o.sc.w1, 1.0); }},
          {"sc.w2",
           [](EngineOptions& o) { o.sc.w2 = std::nextafter(o.sc.w2, 1.0); }},
          {"sc.form", [](EngineOptions& o) { o.sc.form = ScoreForm::kLinear; }},
          {"compute_regret",
           [](EngineOptions& o) { o.compute_regret = !o.compute_regret; }},
          {"record_cost_curve",
           [](EngineOptions& o) {
             o.record_cost_curve = !o.record_cost_curve;
           }},
          {"breaker.failure_threshold",
           [](EngineOptions& o) { ++o.breaker.failure_threshold; }},
          {"breaker.open_frames",
           [](EngineOptions& o) { ++o.breaker.open_frames; }},
          {"breaker.half_open_probes",
           [](EngineOptions& o) { ++o.breaker.half_open_probes; }},
          // Skip settings count even while the gate is off (mode off or a
          // zero budget), so every one can change without enabling it.
          {"skip.mode",
           [](EngineOptions& o) { o.skip.mode = SkipMode::kBandit; }},
          {"skip.skip_budget",
           [](EngineOptions& o) { o.skip.skip_budget = 4; }},
      };
  for (const auto& [field, change] : changes) {
    EngineOptions options = base;
    change(options);
    ASSERT_FALSE(options.skip.enabled()) << field;
    MesStrategy target_mes;
    expect_refused(field, matrix, &target_mes, options);
  }
}

// ------------------------------------------------------------------- RNG --

TEST(RngSnapshotTest, RestoredStreamContinuesExactly) {
  Rng a = MakeStreamRng(123, 4, 5);
  for (int i = 0; i < 17; ++i) a.Next();

  uint64_t state[4];
  a.GetState(state);
  Rng b;  // different stream entirely until restored
  ASSERT_TRUE(b.SetState(state));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(b.Next(), a.Next()) << "draw " << i;
  }
}

TEST(RngSnapshotTest, RejectsAllZeroState) {
  Rng a = MakeStreamRng(1, 2);
  const uint64_t before = Rng(a).Next();
  const uint64_t zeros[4] = {0, 0, 0, 0};
  EXPECT_FALSE(a.SetState(zeros));
  EXPECT_EQ(Rng(a).Next(), before);  // state untouched
}

}  // namespace
}  // namespace vqe

// FrameArena: bump allocation, alignment, Mark/Rewind LIFO reclamation,
// block growth/reuse, and the arena stable sort's equivalence with
// std::stable_sort.

#include "common/arena.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace vqe {
namespace {

TEST(FrameArenaTest, AllocateReturnsAlignedNonNull) {
  FrameArena arena;
  void* p8 = arena.Allocate(1, 8);
  void* p64 = arena.Allocate(3, 64);
  ASSERT_NE(p8, nullptr);
  ASSERT_NE(p64, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p64) % 64, 0u);
}

TEST(FrameArenaTest, AllocationsDoNotOverlap) {
  FrameArena arena;
  char* a = arena.AllocateArray<char>(100);
  char* b = arena.AllocateArray<char>(100);
  for (int i = 0; i < 100; ++i) a[i] = 'a';
  for (int i = 0; i < 100; ++i) b[i] = 'b';
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 'a');
}

TEST(FrameArenaTest, RewindReclaimsAndReusesMemory) {
  FrameArena arena;
  const FrameArena::Marker mark = arena.Mark();
  void* first = arena.Allocate(64, 8);
  arena.Rewind(mark);
  void* second = arena.Allocate(64, 8);
  EXPECT_EQ(first, second);  // bump pointer returned to the mark
}

TEST(FrameArenaTest, ArenaScopeRewindsOnDestruction) {
  FrameArena arena;
  const size_t before = arena.live_bytes();
  {
    ArenaScope scope(arena);
    arena.Allocate(1024, 8);
    EXPECT_GT(arena.live_bytes(), before);
  }
  EXPECT_EQ(arena.live_bytes(), before);
}

TEST(FrameArenaTest, NestedScopesUnwindInLifoOrder) {
  FrameArena arena;
  ArenaScope outer(arena);
  int* x = arena.AllocateArray<int>(10);
  x[0] = 7;
  {
    ArenaScope inner(arena);
    int* y = arena.AllocateArray<int>(10);
    y[0] = 9;
  }
  int* z = arena.AllocateArray<int>(10);
  EXPECT_EQ(x[0], 7);  // outer allocation untouched by inner scope unwind
  z[0] = 3;
  EXPECT_EQ(x[0], 7);
}

TEST(FrameArenaTest, GrowsBeyondOneBlockAndCountsStats) {
  FrameArena arena(/*min_block_bytes=*/1024);
  const FrameArena::Marker mark = arena.Mark();
  for (int i = 0; i < 64; ++i) arena.Allocate(512, 8);  // 32 KiB total
  EXPECT_GT(arena.stats().block_allocs, 1u);
  EXPECT_GE(arena.live_bytes(), size_t{32 * 512});

  // A rewound arena serves the same demand without new blocks.
  const uint64_t blocks_before = arena.stats().block_allocs;
  arena.Rewind(mark);
  for (int i = 0; i < 64; ++i) arena.Allocate(512, 8);
  EXPECT_EQ(arena.stats().block_allocs, blocks_before);
}

TEST(FrameArenaTest, OversizedRequestGetsDedicatedBlock) {
  FrameArena arena(/*min_block_bytes=*/256);
  char* big = arena.AllocateArray<char>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  EXPECT_EQ(big[0], 1);
  EXPECT_EQ(big[(1 << 20) - 1], 2);
}

TEST(FrameArenaTest, ThreadLocalReturnsSameArenaPerThread) {
  FrameArena* a = &FrameArena::ThreadLocal();
  FrameArena* b = &FrameArena::ThreadLocal();
  EXPECT_EQ(a, b);
}

TEST(ArenaStableSortTest, MatchesStdStableSortOnRandomData) {
  std::mt19937 rng(1234);
  FrameArena arena;
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng() % 200;
    // Few distinct keys force ties, which is where stability matters.
    std::vector<std::pair<int, int>> data(n);
    for (size_t i = 0; i < n; ++i) {
      data[i] = {static_cast<int>(rng() % 7), static_cast<int>(i)};
    }
    std::vector<std::pair<int, int>> expected = data;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ArenaScope scope(arena);
    ArenaStableSort(data.data(), data.size(), arena,
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
    EXPECT_EQ(data, expected) << "trial " << trial << " n=" << n;
  }
}

TEST(ArenaStableSortTest, HandlesEmptyAndSingleton) {
  FrameArena arena;
  std::vector<int> empty;
  ArenaStableSort(empty.data(), empty.size(), arena, std::less<int>());
  std::vector<int> one{42};
  ArenaStableSort(one.data(), one.size(), arena, std::less<int>());
  EXPECT_EQ(one[0], 42);
}

}  // namespace
}  // namespace vqe

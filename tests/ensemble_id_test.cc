// Tests for the ensemble bitmask algebra.

#include <gtest/gtest.h>

#include <set>

#include "core/ensemble_id.h"

namespace vqe {
namespace {

TEST(EnsembleIdTest, FullEnsembleAndCount) {
  EXPECT_EQ(FullEnsemble(1), 1u);
  EXPECT_EQ(FullEnsemble(3), 7u);
  EXPECT_EQ(FullEnsemble(5), 31u);
  EXPECT_EQ(NumEnsembles(5), 31u);
  EXPECT_EQ(NumEnsembles(2), 3u);
}

TEST(EnsembleIdTest, SizeAndMembership) {
  const EnsembleId s = 0b10110;
  EXPECT_EQ(EnsembleSize(s), 3);
  EXPECT_FALSE(ContainsModel(s, 0));
  EXPECT_TRUE(ContainsModel(s, 1));
  EXPECT_TRUE(ContainsModel(s, 2));
  EXPECT_FALSE(ContainsModel(s, 3));
  EXPECT_TRUE(ContainsModel(s, 4));
}

TEST(EnsembleIdTest, Singleton) {
  EXPECT_EQ(Singleton(0), 1u);
  EXPECT_EQ(Singleton(4), 16u);
  EXPECT_EQ(EnsembleSize(Singleton(7)), 1);
}

TEST(EnsembleIdTest, SubsetRelation) {
  EXPECT_TRUE(IsSubsetOf(0b101, 0b111));
  EXPECT_TRUE(IsSubsetOf(0b101, 0b101));
  EXPECT_FALSE(IsSubsetOf(0b101, 0b011));
  EXPECT_TRUE(IsSubsetOf(0, 0b011));  // empty set is a subset of anything
}

TEST(EnsembleIdTest, ForEachSubsetEnumeratesAllNonEmpty) {
  std::vector<EnsembleId> subs;
  ForEachSubset(0b1011, [&](EnsembleId s) { subs.push_back(s); });
  // 2^3 - 1 = 7 non-empty subsets.
  EXPECT_EQ(subs.size(), 7u);
  std::set<EnsembleId> expected{0b0001, 0b0010, 0b0011, 0b1000,
                                0b1001, 0b1010, 0b1011};
  std::set<EnsembleId> got(subs.begin(), subs.end());
  EXPECT_EQ(got, expected);
  // The mask itself is included first.
  EXPECT_EQ(subs.front(), 0b1011u);
  for (EnsembleId mask : {1u, 5u, 7u, 21u, 31u}) {
    ForEachSubset(mask, [&](EnsembleId s) {
      EXPECT_NE(s, 0u);
      EXPECT_TRUE(IsSubsetOf(s, mask));
    });
  }
}

TEST(EnsembleIdTest, SubsetCountIsPowerOfTwoMinusOne) {
  for (EnsembleId mask = 1; mask <= 31; ++mask) {
    size_t count = 0;
    ForEachSubset(mask, [&](EnsembleId) { ++count; });
    EXPECT_EQ(count, (size_t{1} << EnsembleSize(mask)) - 1);
  }
}

TEST(EnsembleIdTest, EnsembleModels) {
  const auto models = EnsembleModels(0b10101);
  ASSERT_EQ(models.size(), 3u);
  EXPECT_EQ(models[0], 0);
  EXPECT_EQ(models[1], 2);
  EXPECT_EQ(models[2], 4);
}

TEST(EnsembleIdTest, EnsembleName) {
  const std::vector<std::string> names{"a", "b", "c"};
  EXPECT_EQ(EnsembleName(0b101, names), "{a, c}");
  EXPECT_EQ(EnsembleName(0b1000, names), "{M3}");  // beyond provided names
  EXPECT_EQ(EnsembleName(0, names), "{}");
}

}  // namespace
}  // namespace vqe

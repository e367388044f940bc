// Unit and property tests for bounding-box geometry and overlap measures.

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "detection/bbox.h"

namespace vqe {
namespace {

TEST(BBoxTest, Constructors) {
  const BBox a = BBox::FromXYWH(10, 20, 30, 40);
  EXPECT_DOUBLE_EQ(a.x1, 10);
  EXPECT_DOUBLE_EQ(a.y2, 60);
  EXPECT_DOUBLE_EQ(a.width(), 30);
  EXPECT_DOUBLE_EQ(a.height(), 40);

  const BBox b = BBox::FromCenter(50, 50, 20, 10);
  EXPECT_DOUBLE_EQ(b.x1, 40);
  EXPECT_DOUBLE_EQ(b.x2, 60);
  EXPECT_DOUBLE_EQ(b.cx(), 50);
  EXPECT_DOUBLE_EQ(b.cy(), 50);
}

TEST(BBoxTest, AreaAndValidity) {
  EXPECT_DOUBLE_EQ((BBox{0, 0, 2, 3}).Area(), 6.0);
  EXPECT_DOUBLE_EQ((BBox{0, 0, 0, 3}).Area(), 0.0);
  EXPECT_TRUE((BBox{0, 0, 1, 1}).IsValid());
  EXPECT_FALSE((BBox{1, 0, 0, 1}).IsValid());
  EXPECT_TRUE((BBox{0, 0, 0, 0}).IsEmpty());
}

TEST(BBoxTest, ClippedToImage) {
  const BBox b{-10, -10, 50, 200};
  const BBox c = b.ClippedTo(100, 100);
  EXPECT_DOUBLE_EQ(c.x1, 0);
  EXPECT_DOUBLE_EQ(c.y1, 0);
  EXPECT_DOUBLE_EQ(c.x2, 50);
  EXPECT_DOUBLE_EQ(c.y2, 100);
}

TEST(BBoxTest, ClipFullyOutsideYieldsEmpty) {
  const BBox b{-50, -50, -10, -10};
  const BBox c = b.ClippedTo(100, 100);
  EXPECT_TRUE(c.IsEmpty());
  EXPECT_TRUE(c.IsValid());
}

TEST(IoUTest, IdenticalBoxes) {
  const BBox b{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(IoU(b, b), 1.0);
}

TEST(IoUTest, DisjointBoxes) {
  EXPECT_DOUBLE_EQ(IoU(BBox{0, 0, 1, 1}, BBox{2, 2, 3, 3}), 0.0);
}

TEST(IoUTest, TouchingBoxesHaveZeroIoU) {
  EXPECT_DOUBLE_EQ(IoU(BBox{0, 0, 1, 1}, BBox{1, 0, 2, 1}), 0.0);
}

TEST(IoUTest, KnownOverlap) {
  // 10x10 boxes offset by 5 in x: intersection 50, union 150.
  EXPECT_NEAR(IoU(BBox{0, 0, 10, 10}, BBox{5, 0, 15, 10}), 1.0 / 3.0, 1e-12);
}

TEST(IoUTest, NestedBoxes) {
  // 4x4 inside 10x10: 16 / 100.
  EXPECT_NEAR(IoU(BBox{0, 0, 10, 10}, BBox{3, 3, 7, 7}), 0.16, 1e-12);
  EXPECT_DOUBLE_EQ(IoMin(BBox{0, 0, 10, 10}, BBox{3, 3, 7, 7}), 1.0);
}

TEST(IoUTest, DegenerateBoxes) {
  const BBox point{5, 5, 5, 5};
  const BBox normal{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(IoU(point, normal), 0.0);
  EXPECT_DOUBLE_EQ(IoU(point, point), 0.0);
  EXPECT_DOUBLE_EQ(IoMin(point, normal), 0.0);
}

TEST(GIoUTest, IdenticalBoxesGiveOne) {
  const BBox b{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(GIoU(b, b), 1.0);
}

TEST(GIoUTest, DisjointBoxesAreNegative) {
  EXPECT_LT(GIoU(BBox{0, 0, 1, 1}, BBox{10, 10, 11, 11}), 0.0);
}

TEST(GIoUTest, FartherDisjointBoxesAreMoreNegative) {
  const BBox a{0, 0, 1, 1};
  EXPECT_GT(GIoU(a, BBox{2, 0, 3, 1}), GIoU(a, BBox{20, 0, 21, 1}));
}

// Property sweep over random box pairs.
class IoUPropertyTest : public ::testing::TestWithParam<uint64_t> {};

std::pair<BBox, BBox> RandomPair(uint64_t seed) {
  Rng rng(seed);
  auto make = [&] {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    return BBox{x, y, x + rng.Uniform(0.1, 50), y + rng.Uniform(0.1, 50)};
  };
  return {make(), make()};
}

TEST_P(IoUPropertyTest, SymmetricAndBounded) {
  const auto [a, b] = RandomPair(GetParam());
  const double iou = IoU(a, b);
  EXPECT_DOUBLE_EQ(iou, IoU(b, a));
  EXPECT_GE(iou, 0.0);
  EXPECT_LE(iou, 1.0);
}

TEST_P(IoUPropertyTest, IoMinDominatesIoU) {
  const auto [a, b] = RandomPair(GetParam());
  EXPECT_GE(IoMin(a, b) + 1e-12, IoU(a, b));
}

TEST_P(IoUPropertyTest, GIoUBoundedByIoU) {
  const auto [a, b] = RandomPair(GetParam());
  const double giou = GIoU(a, b);
  EXPECT_LE(giou, IoU(a, b) + 1e-12);
  EXPECT_GE(giou, -1.0);
  EXPECT_LE(giou, 1.0);
}

TEST_P(IoUPropertyTest, IntersectionBoundedByEitherArea) {
  const auto [a, b] = RandomPair(GetParam());
  const double inter = IntersectionArea(a, b);
  EXPECT_LE(inter, a.Area() + 1e-9);
  EXPECT_LE(inter, b.Area() + 1e-9);
  EXPECT_GE(inter, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, IoUPropertyTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace vqe

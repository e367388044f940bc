// Axis-aligned bounding boxes in image coordinates and the IoU family of
// overlap measures used by matching and box fusion.

#ifndef VQE_DETECTION_BBOX_H_
#define VQE_DETECTION_BBOX_H_

#include <algorithm>
#include <cmath>

namespace vqe {

/// Axis-aligned bounding box, (x1, y1) top-left to (x2, y2) bottom-right,
/// in pixels. A box is valid when x1 <= x2 and y1 <= y2.
struct BBox {
  double x1 = 0.0;
  double y1 = 0.0;
  double x2 = 0.0;
  double y2 = 0.0;

  static BBox FromXYWH(double x, double y, double w, double h) {
    return BBox{x, y, x + w, y + h};
  }

  static BBox FromCenter(double cx, double cy, double w, double h) {
    return BBox{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
  }

  double width() const { return x2 - x1; }
  double height() const { return y2 - y1; }
  double cx() const { return (x1 + x2) / 2; }
  double cy() const { return (y1 + y2) / 2; }

  /// Area; 0 for degenerate boxes.
  double Area() const {
    return std::max(0.0, width()) * std::max(0.0, height());
  }

  bool IsValid() const { return x2 >= x1 && y2 >= y1; }

  /// True for a zero-area box.
  bool IsEmpty() const { return Area() <= 0.0; }

  /// Clips this box to the [0,w]×[0,h] image rectangle.
  BBox ClippedTo(double w, double h) const {
    BBox b;
    b.x1 = std::clamp(x1, 0.0, w);
    b.y1 = std::clamp(y1, 0.0, h);
    b.x2 = std::clamp(x2, 0.0, w);
    b.y2 = std::clamp(y2, 0.0, h);
    if (b.x2 < b.x1) b.x2 = b.x1;
    if (b.y2 < b.y1) b.y2 = b.y1;
    return b;
  }

  bool operator==(const BBox& o) const {
    return x1 == o.x1 && y1 == o.y1 && x2 == o.x2 && y2 == o.y2;
  }
};

/// Intersection area of two boxes (0 when disjoint).
inline double IntersectionArea(const BBox& a, const BBox& b) {
  const double iw = std::min(a.x2, b.x2) - std::max(a.x1, b.x1);
  const double ih = std::min(a.y2, b.y2) - std::max(a.y1, b.y1);
  if (iw <= 0.0 || ih <= 0.0) return 0.0;
  return iw * ih;
}

/// Intersection-over-Union in [0, 1]. Degenerate pairs yield 0.
inline double IoU(const BBox& a, const BBox& b) {
  const double inter = IntersectionArea(a, b);
  if (inter <= 0.0) return 0.0;
  const double uni = a.Area() + b.Area() - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

/// IoU with the operands' areas supplied by the caller. Bit-identical to
/// IoU(a, b) whenever area_a == a.Area() and area_b == b.Area(): the
/// intersection and union fold the same expressions in the same order, so
/// hot loops that compare one box against many can hoist the Area() calls
/// out of the pair sweep without perturbing a single result.
inline double IoUWithAreas(const BBox& a, double area_a, const BBox& b,
                           double area_b) {
  const double inter = IntersectionArea(a, b);
  if (inter <= 0.0) return 0.0;
  const double uni = area_a + area_b - inter;
  return uni <= 0.0 ? 0.0 : inter / uni;
}

/// Intersection-over-smaller-area ("overlap coefficient"), used by some
/// fusion variants to merge nested boxes aggressively.
inline double IoMin(const BBox& a, const BBox& b) {
  const double inter = IntersectionArea(a, b);
  if (inter <= 0.0) return 0.0;
  const double smaller = std::min(a.Area(), b.Area());
  return smaller <= 0.0 ? 0.0 : inter / smaller;
}

/// Generalized IoU (Rezatofighi et al.): IoU − (hull − union) / hull,
/// in (−1, 1]. Unlike IoU it is informative for disjoint boxes.
inline double GIoU(const BBox& a, const BBox& b) {
  const double inter = IntersectionArea(a, b);
  const double uni = a.Area() + b.Area() - inter;
  const BBox hull{std::min(a.x1, b.x1), std::min(a.y1, b.y1),
                  std::max(a.x2, b.x2), std::max(a.y2, b.y2)};
  const double hull_area = hull.Area();
  if (hull_area <= 0.0) return 0.0;
  const double iou = uni <= 0.0 ? 0.0 : inter / uni;
  return iou - (hull_area - uni) / hull_area;
}

}  // namespace vqe

#endif  // VQE_DETECTION_BBOX_H_

// Small numeric helpers shared across modules: summary statistics,
// least-squares line fitting (used by LRBP), and clamping.

#ifndef VQE_COMMON_MATH_UTIL_H_
#define VQE_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/status.h"

namespace vqe {

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double SampleStdDev(const std::vector<double>& xs);

/// Minimum; +inf for an empty vector.
double Min(const std::vector<double>& xs);

/// Maximum; -inf for an empty vector.
double Max(const std::vector<double>& xs);

/// Summary of a sample: mean, sample stddev, min, max, count.
struct SampleSummary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t count = 0;
};

/// Computes all summary statistics in one pass over xs.
SampleSummary Summarize(const std::vector<double>& xs);

/// A fitted line y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination of the fit, in [0, 1].
  double r_squared = 0.0;

  double Predict(double x) const { return slope * x + intercept; }
};

/// Ordinary least squares fit of y on x.
///
/// Requires xs.size() == ys.size() and at least two distinct x values;
/// returns InvalidArgument otherwise.
Result<LinearFit> FitLine(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace vqe

#endif  // VQE_COMMON_MATH_UTIL_H_

// Unit tests for src/common: Status/Result, RNG, math utilities, strings,
// table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace vqe {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad weight");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad weight");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad weight");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : kAllStatusCodes) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

// Every enum value round-trips through a factory-built Status: the code is
// preserved, the name is unique, and ToString embeds that exact name. Fails
// when a new StatusCode is added without extending kAllStatusCodes, a
// factory, or StatusCodeToString.
TEST(StatusTest, EveryCodeRoundTripsThroughStatus) {
  auto make = [](StatusCode code) -> Status {
    switch (code) {
      case StatusCode::kOk:
        return Status::OK();
      case StatusCode::kInvalidArgument:
        return Status::InvalidArgument("m");
      case StatusCode::kOutOfRange:
        return Status::OutOfRange("m");
      case StatusCode::kNotFound:
        return Status::NotFound("m");
      case StatusCode::kAlreadyExists:
        return Status::AlreadyExists("m");
      case StatusCode::kFailedPrecondition:
        return Status::FailedPrecondition("m");
      case StatusCode::kParseError:
        return Status::ParseError("m");
      case StatusCode::kResourceExhausted:
        return Status::ResourceExhausted("m");
      case StatusCode::kInternal:
        return Status::Internal("m");
      case StatusCode::kDeadlineExceeded:
        return Status::DeadlineExceeded("m");
      case StatusCode::kUnavailable:
        return Status::Unavailable("m");
      case StatusCode::kDataLoss:
        return Status::DataLoss("m");
      case StatusCode::kAborted:
        return Status::Aborted("m");
    }
    return Status::Internal("unhandled code");
  };
  std::set<std::string> names;
  for (StatusCode code : kAllStatusCodes) {
    const Status s = make(code);
    EXPECT_EQ(s.code(), code);
    const std::string name = StatusCodeToString(code);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    if (code == StatusCode::kOk) {
      EXPECT_EQ(s.ToString(), "OK");
    } else {
      EXPECT_EQ(s.ToString(), name + ": m");
    }
  }
  EXPECT_EQ(names.size(), std::size(kAllStatusCodes));
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  VQE_ASSIGN_OR_RETURN(int h, Half(x));
  VQE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(5).status().code(), StatusCode::kInvalidArgument);
}

Status CheckPositive(double x) {
  if (x <= 0) return Status::OutOfRange("non-positive");
  return Status::OK();
}

Status CheckAll(double a, double b) {
  VQE_RETURN_NOT_OK(CheckPositive(a));
  VQE_RETURN_NOT_OK(CheckPositive(b));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(CheckAll(1, 2).ok());
  EXPECT_FALSE(CheckAll(-1, 2).ok());
  EXPECT_FALSE(CheckAll(1, -2).ok());
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntOfOneIsZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(77);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, PoissonMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(4.5);
  EXPECT_NEAR(sum / n, 4.5, 0.1);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonLargeLambdaUsesNormalApprox) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) {
    const int v = rng.Poisson(100.0);
    EXPECT_GE(v, 0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, StreamDerivationIsKeyed) {
  Rng a = MakeStreamRng(1, 2, 3);
  Rng b = MakeStreamRng(1, 2, 3);
  Rng c = MakeStreamRng(1, 2, 4);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, StreamKeysAreOrderSensitive) {
  Rng a = MakeStreamRng(1, 2, 3);
  Rng b = MakeStreamRng(1, 3, 2);
  EXPECT_NE(a.Next(), b.Next());
}

// ------------------------------------------------------------- math_util --

TEST(MathTest, MeanAndStd) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(SampleStdDev(xs), 2.138, 1e-3);
}

TEST(MathTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  EXPECT_TRUE(std::isinf(Min({})));
  EXPECT_TRUE(std::isinf(Max({})));
}

TEST(MathTest, Summarize) {
  const SampleSummary s = Summarize({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_EQ(s.count, 4u);
}

TEST(MathTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0, 1), 0.5);
}

TEST(MathTest, FitLineExactOnLinearData) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const auto fit = FitLine(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 3.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 7.0, 1e-10);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->Predict(100), 307.0, 1e-9);
}

TEST(MathTest, FitLineNoisy) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + 5.0 + rng.Gaussian(0, 1.0));
  }
  const auto fit = FitLine(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 2.0, 0.01);
  EXPECT_GT(fit->r_squared, 0.99);
}

TEST(MathTest, FitLineErrors) {
  EXPECT_FALSE(FitLine({1}, {1}).ok());
  EXPECT_FALSE(FitLine({1, 2}, {1}).ok());
  EXPECT_FALSE(FitLine({2, 2, 2}, {1, 2, 3}).ok());  // vertical line
}

TEST(MathTest, FitLineConstantYHasUnitR2) {
  const auto fit = FitLine({1, 2, 3}, {5, 5, 5});
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->slope, 0.0);
  EXPECT_DOUBLE_EQ(fit->r_squared, 1.0);
}

// --------------------------------------------------------------- strings --

TEST(StringsTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitNoDelimiter) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD-123"), "mixed-123");
  EXPECT_EQ(ToUpper("MiXeD-123"), "MIXED-123");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("bdd-rainy", "bdd"));
  EXPECT_FALSE(StartsWith("bd", "bdd"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

// --------------------------------------------------------- table printer --

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"b", "20"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |   1.5 |"), std::string::npos);  // right align
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("| x |"), std::string::npos);
}

// --------------------------------------------------------------- timing --

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3 * 0.99);
}

TEST(StopwatchTest, AccumulatorSums) {
  TimeAccumulator acc;
  acc.Add(0.5);
  acc.Add(0.25);
  EXPECT_DOUBLE_EQ(acc.total_seconds(), 0.75);
  acc.Reset();
  EXPECT_DOUBLE_EQ(acc.total_seconds(), 0.0);
}

TEST(StopwatchTest, ScopedTimerAddsOnDestruction) {
  TimeAccumulator acc;
  {
    ScopedTimer timer(&acc);
    volatile double sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  EXPECT_GT(acc.total_seconds(), 0.0);
}

}  // namespace
}  // namespace vqe

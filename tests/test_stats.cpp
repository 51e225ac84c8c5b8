// Unit tests for the statistics toolkit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hpp"

namespace cr {
namespace {

TEST(Accumulator, Empty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownValues) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SingleValueVarianceZero) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator whole, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    whole.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Quantiles, NearestRank) {
  Quantiles q;
  for (double x : {5.0, 1.0, 3.0, 2.0, 4.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.21), 2.0);
}

TEST(Quantiles, AddAfterQuery) {
  Quantiles q;
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  q.add(1.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.median(), 2.0);
  EXPECT_DOUBLE_EQ(q.max(), 3.0);
}

TEST(Quantiles, EmptySampleReturnsZeroForEveryQ) {
  const Quantiles q;
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.median(), 0.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(q.max(), 0.0);
}

TEST(Quantiles, SingleSampleIsEveryQuantile) {
  Quantiles q;
  q.add(7.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.01), 7.5);
  EXPECT_DOUBLE_EQ(q.median(), 7.5);
  EXPECT_DOUBLE_EQ(q.quantile(0.99), 7.5);
  EXPECT_DOUBLE_EQ(q.max(), 7.5);
}

TEST(Quantiles, P99OnTinySamplesIsNotTheMax) {
  // Nearest rank: over 100 samples, p99 is the 99th order statistic — the
  // naive ceil(0.99·100) = ceil(99.00000000000001) = 100 off-by-one (IEEE
  // representation of 0.99) used to return the maximum instead.
  Quantiles q;
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(q.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.01), 1.0);
}

TEST(Quantiles, TinySampleTailBehaviour) {
  // n=2: p99 lands on the 2nd order statistic, p50 on the 1st.
  Quantiles two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(two.quantile(0.99), 20.0);
  // n=3: ranks ceil(3q) = 2 (median), 3 (p99).
  Quantiles three;
  for (double x : {30.0, 10.0, 20.0}) three.add(x);
  EXPECT_DOUBLE_EQ(three.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(three.quantile(0.99), 30.0);
  // Exact rank boundaries stay exact: q = 1/3 is the 1st order statistic.
  EXPECT_DOUBLE_EQ(three.quantile(1.0 / 3.0), 10.0);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-10);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-10);
  EXPECT_NEAR(fit.r2, 1.0, 1e-10);
}

TEST(LinearFit, NoisyLineStillClose) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back(i);
    ys.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LinearFit, DegenerateXs) {
  const LinearFit fit = fit_linear({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

}  // namespace
}  // namespace cr

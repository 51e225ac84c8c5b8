// Distributional correctness of the RNG beyond first/second moments:
// exact pmf checks for small binomials, regime-boundary consistency, and
// the statistical equivalence of the cohort trick (Binomial(m, p) vs m
// independent Bernoulli draws) that the fast engines rely on.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.hpp"

namespace cr {
namespace {

double binom_pmf(int n, int k, double p) {
  double logc = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0);
  return std::exp(logc + k * std::log(p) + (n - k) * std::log1p(-p));
}

TEST(Distributions, SmallBinomialMatchesExactPmf) {
  // n = 8, p = 0.3: compare empirical frequencies against the exact pmf.
  Rng rng(101);
  const int n = 8;
  const double p = 0.3;
  const int trials = 200000;
  std::array<int, 9> counts{};
  for (int i = 0; i < trials; ++i) ++counts[rng.binomial(n, p)];
  for (int k = 0; k <= n; ++k) {
    const double expect = binom_pmf(n, k, p);
    const double got = static_cast<double>(counts[k]) / trials;
    EXPECT_NEAR(got, expect, 0.004) << "k=" << k;
  }
}

TEST(Distributions, BinomialRegimeBoundaryConsistent) {
  // The n = 64 (coin-by-coin) and n = 65 (inversion) regimes should produce
  // nearly identical distributions for the same mean.
  Rng r1(103), r2(104);
  const int trials = 60000;
  double s1 = 0, s2 = 0, q1 = 0, q2 = 0;
  for (int i = 0; i < trials; ++i) {
    const double a = static_cast<double>(r1.binomial(64, 0.125));
    const double b = static_cast<double>(r2.binomial(65, 8.0 / 65.0));
    s1 += a;
    s2 += b;
    q1 += a * a;
    q2 += b * b;
  }
  EXPECT_NEAR(s1 / trials, s2 / trials, 0.1);
  EXPECT_NEAR(q1 / trials - (s1 / trials) * (s1 / trials),
              q2 / trials - (s2 / trials) * (s2 / trials), 0.4);
}

TEST(Distributions, CohortTrickEquivalence) {
  // The fast engines replace m independent Bernoulli(p) sends with one
  // Binomial(m, p) draw. Verify P[sum == 1] (the success-relevant event)
  // agrees between the two samplings.
  Rng rng(105);
  const int m = 40;
  const double p = 1.0 / 40.0;
  const int trials = 120000;
  int one_binom = 0, one_bern = 0;
  for (int i = 0; i < trials; ++i) {
    if (rng.binomial(m, p) == 1) ++one_binom;
    int s = 0;
    for (int j = 0; j < m; ++j) s += rng.bernoulli(p) ? 1 : 0;
    if (s == 1) ++one_bern;
  }
  EXPECT_NEAR(static_cast<double>(one_binom) / trials,
              static_cast<double>(one_bern) / trials, 0.006);
}

TEST(Distributions, NormalTailFractions) {
  Rng rng(109);
  const int trials = 120000;
  int beyond1 = 0, beyond2 = 0;
  for (int i = 0; i < trials; ++i) {
    const double x = std::fabs(rng.normal01());
    if (x > 1.0) ++beyond1;
    if (x > 2.0) ++beyond2;
  }
  EXPECT_NEAR(static_cast<double>(beyond1) / trials, 0.3173, 0.01);
  EXPECT_NEAR(static_cast<double>(beyond2) / trials, 0.0455, 0.005);
}

}  // namespace
}  // namespace cr

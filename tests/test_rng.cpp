// Unit tests for the RNG substrate: determinism, ranges, and distribution
// moments (loose statistical tolerances with fixed seeds — deterministic).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/stream_tags.hpp"

namespace cr {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, AdjacentSeedsAreDecorrelated) {
  // splitmix64 seeding should make streams from seeds k and k+1 independent;
  // check the leading bits disagree about half the time.
  Rng a(1000), b(1001);
  int agree = 0;
  const int kTrials = 4096;
  for (int i = 0; i < kTrials; ++i)
    if ((a.next_u64() >> 63) == (b.next_u64() >> 63)) ++agree;
  EXPECT_NEAR(static_cast<double>(agree) / kTrials, 0.5, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(7);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  Rng f1b = a.fork(1);
  EXPECT_EQ(f1.next_u64(), f1b.next_u64()) << "fork must be deterministic";
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01Mean) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(11);
  for (std::uint64_t n : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_u64(n), n);
  }
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformU64RoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(10)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliMean) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BinomialDegenerateCases) {
  Rng rng(31);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

struct BinomialCase {
  std::uint64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(37 + n);
  const int trials = 20000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < trials; ++i) {
    const auto x = static_cast<double>(rng.binomial(n, p));
    EXPECT_LE(x, static_cast<double>(n));
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / trials;
  const double var = sumsq / trials - mean * mean;
  const double expect_mean = static_cast<double>(n) * p;
  const double expect_var = expect_mean * (1.0 - p);
  EXPECT_NEAR(mean, expect_mean, 0.05 * expect_mean + 0.1);
  EXPECT_NEAR(var, expect_var, 0.15 * expect_var + 0.3);
}

INSTANTIATE_TEST_SUITE_P(SmallLargeRegimes, BinomialMoments,
                         ::testing::Values(BinomialCase{10, 0.5},        // coin-by-coin
                                           BinomialCase{64, 0.25},       // boundary
                                           BinomialCase{1000, 0.01},     // inversion
                                           BinomialCase{5000, 0.002},    // inversion, tiny p
                                           BinomialCase{100000, 0.01},   // normal approx
                                           BinomialCase{1 << 20, 0.001},  // normal approx
                                           BinomialCase{500, 0.9}));     // symmetry branch

TEST(Rng, Normal01Moments) {
  Rng rng(47);
  const int n = 100000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal01();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, SeedAccessor) {
  Rng rng(999);
  EXPECT_EQ(rng.seed(), 999u);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

// ---------------------------------------------------------------------------
// CounterRng — the counter-based substrate the CJZ core runs on.

TEST(CounterRng, AtMatchesStreamSequence) {
  // stream(hi) is a sequential cursor over at(hi, 0), at(hi, 1), ... — the
  // core counter-substrate contract: draw order carries no state.
  const CounterRng rng(0xC0FFEEu);
  for (const std::uint64_t hi : {0ull, 1ull, 77ull, 1ull << 40}) {
    auto stream = rng.stream(hi);
    for (std::uint64_t i = 0; i < 64; ++i)
      ASSERT_EQ(stream(), rng.at(hi, i)) << "hi=" << hi << " index=" << i;
    EXPECT_EQ(stream.index(), 64u);
  }
}

TEST(CounterRng, AtIsOrderIndependent) {
  // Reading positions backwards (or any order) gives the same words as
  // reading forwards; at() is a pure function of (key, hi, index).
  const CounterRng rng(42);
  std::vector<std::uint64_t> forward;
  for (std::uint64_t i = 0; i < 100; ++i) forward.push_back(rng.at(9, i));
  for (std::uint64_t i = 100; i-- > 0;) EXPECT_EQ(rng.at(9, i), forward[i]);
}

TEST(CounterRng, DeterministicAcrossInstances) {
  const CounterRng a(123), b(123);
  EXPECT_EQ(a.key(), b.key());
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(a.at(5, i), b.at(5, i));
}

TEST(CounterRng, ForkMatchesRngForkSeed) {
  // Both substrates share rng_detail::fork_seed, so a (seed, tag) pair names
  // the same logical stream on either — including chained forks, so one tag
  // registry serves both substrates.
  for (const std::uint64_t seed : {1ull, 999ull, 0x9e3779b97f4a7c15ull}) {
    for (const std::uint64_t tag : streams::kAllTags) {
      EXPECT_EQ(Rng(seed).fork(tag).seed(), CounterRng(seed).fork(tag).key());
      EXPECT_EQ(Rng(seed).fork(tag).fork(streams::kArrival).seed(),
                CounterRng(seed).fork(tag).fork(streams::kArrival).key());
    }
  }
}

TEST(CounterRng, StreamTagsAreUnique) {
  // Two streams sharing a tag under one seed would be identical — silently
  // correlated draws. The shared header centralises the tags; this test is
  // the tripwire a new tag must pass (add it to streams::kAllTags).
  std::set<std::uint64_t> tags(streams::kAllTags.begin(), streams::kAllTags.end());
  EXPECT_EQ(tags.size(), streams::kAllTags.size());
  // And the forked keys they induce are pairwise distinct too.
  std::set<std::uint64_t> keys;
  for (const std::uint64_t tag : streams::kAllTags)
    keys.insert(CounterRng(7).fork(tag).key());
  EXPECT_EQ(keys.size(), streams::kAllTags.size());
}

TEST(CounterRng, DistinctHiCountersDecorrelated) {
  // Adjacent hi counters (slots, in the CJZ core) must behave as
  // independent streams: leading bits agree about half the time.
  const CounterRng rng(2026);
  int agree = 0;
  const int kTrials = 4096;
  for (int i = 0; i < kTrials; ++i)
    if ((rng.at(static_cast<std::uint64_t>(i), 0) >> 63) ==
        (rng.at(static_cast<std::uint64_t>(i) + 1, 0) >> 63))
      ++agree;
  EXPECT_NEAR(static_cast<double>(agree) / kTrials, 0.5, 0.05);
}

TEST(CounterRng, StreamUniform01Mean) {
  auto stream = CounterRng(11).stream(3);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = stream.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(CounterRng, StreamBinomialMean) {
  // The distribution methods delegate to the same rng_detail templates Rng
  // uses; one moment check over fresh per-hi streams confirms the plumbing.
  const CounterRng rng(17);
  double sum = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto stream = rng.stream(static_cast<std::uint64_t>(i));
    sum += static_cast<double>(stream.binomial(1000, 0.3));
  }
  EXPECT_NEAR(sum / n, 300.0, 3.0);
}

// ---------------------------------------------------------------------------
// Batched draws — every block API must be bit-identical to the scalar loop
// it replaces. The CJZ core's backoff stages and the binomial's coin branch
// rest on these.

TEST(CounterRngBatch, FillMatchesAt) {
  // CounterRng::fill over any (start, n) window — even/odd starts and block
  // boundaries — equals the at() values position by position.
  const CounterRng rng(0xFEEDu);
  const std::uint64_t hi = 31;
  for (const std::uint64_t start : {0ull, 1ull, 2ull, 7ull, 127ull}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{5}, std::size_t{64},
                                std::size_t{65}}) {
      std::vector<std::uint64_t> out(n + 1, 0xDEADull);
      rng.fill(hi, start, out.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], rng.at(hi, start + i)) << "start=" << start << " n=" << n
                                                 << " i=" << i;
      EXPECT_EQ(out[n], 0xDEADull) << "fill wrote past n";
    }
  }
}

TEST(CounterRngBatch, StreamFillMatchesScalarCursor) {
  // Stream::fill from any cursor parity, then a scalar draw: the whole
  // interleaving must replay the pure at() sequence (spare re-derivation
  // after an odd landing index included).
  const CounterRng rng(505);
  for (const std::uint64_t warmup : {0ull, 1ull, 2ull, 3ull}) {
    auto stream = rng.stream(9);
    std::uint64_t index = 0;
    for (std::uint64_t i = 0; i < warmup; ++i, ++index) ASSERT_EQ(stream(), rng.at(9, index));
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{8}}) {
      std::vector<std::uint64_t> out(n, 0);
      stream.fill(out.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], rng.at(9, index + i)) << "warmup=" << warmup << " n=" << n;
      index += n;
      ASSERT_EQ(stream(), rng.at(9, index)) << "scalar draw after fill diverged";
      ++index;
    }
    EXPECT_EQ(stream.index(), index);
  }
}

TEST(CounterRngBatch, StreamBinomialMatchesTemplateEverywhere) {
  // Stream::binomial's batched coin branch and flip handling must agree
  // with rng_detail::binomial on BOTH the value and the number of words
  // consumed, in every branch: degenerate (n=0, p<=0, p>=1), coin-by-coin
  // (n<=64), flipped coin-by-coin (p>0.5), BINV inversion (n>64, small
  // mean), flipped BINV, and the clamped-normal branch (large mean).
  struct Case {
    std::uint64_t n;
    double p;
  };
  const Case cases[] = {{0, 0.5},    {10, 0.0},   {10, -1.0},  {10, 1.0},  {10, 2.0},
                        {1, 0.5},    {64, 0.25},  {64, 0.75},  {500, 0.01}, {500, 0.99},
                        {10000, 0.001}, {10000, 0.999}, {100000, 0.4}, {100000, 0.6}};
  const CounterRng rng(0xB10Bu);
  std::uint64_t hi = 0;
  for (const Case& c : cases) {
    ++hi;
    auto batched = rng.stream(hi);
    auto scalar = rng.stream(hi);
    const std::uint64_t got = batched.binomial(c.n, c.p);
    const std::uint64_t want = rng_detail::binomial(scalar, c.n, c.p);
    EXPECT_EQ(got, want) << "n=" << c.n << " p=" << c.p;
    EXPECT_EQ(batched.index(), scalar.index())
        << "word consumption diverged at n=" << c.n << " p=" << c.p;
  }
}

}  // namespace
}  // namespace cr

// Deterministic random-number substrate.
//
// All randomness in the library flows through this header so that every run
// is reproducible from a single 64-bit seed. Two substrates share one set of
// distribution algorithms (rng_detail below) and one stream-tag registry
// (common/stream_tags.hpp):
//
//   * cr::Rng — sequential xoshiro256** (public-domain algorithm by Blackman
//     & Vigna) seeded via splitmix64: state advances draw by draw, so the
//     i-th value depends on the i-1 before it. Adversary components and the
//     generic and fast_batch engines draw from it.
//   * cr::CounterRng — counter-based (Philox-style 2x64 block cipher). Any
//     (seed, stream-tag, hi-counter, draw-index) value is a pure function of
//     those four numbers, computable independently and out of order — which
//     is what lets the CJZ core give every slot its own stream without
//     carrying generator state from one slot to the next.
//
// Both substrates derive sub-streams with the same fork(tag) seed
// arithmetic, so a (seed, tag) pair names the same logical stream on either.
//
// Beyond uniform bits the substrate provides the exact distributions the
// simulators need:
//   * bernoulli(p)        — one biased coin
//   * binomial(n, p)      — number of senders in a synchronized cohort
//   * uniform_u64(n)      — uniform slot choice within a backoff stage
//
// binomial() is exact for small n (coin-by-coin) and small mean (inversion),
// and uses a clamped normal approximation only when n·p is large, where the
// relative error is negligible for simulation purposes (documented below).
//
// Batched draws: both substrates expose block APIs that produce the same
// values as repeated scalar draws — Rng::fill walks the sequential state in
// one call, and CounterRng::fill / Stream::fill evaluate Philox blocks two
// at a time so the ten-round latency chains overlap. Every
// batched call is bit-identical to the equivalent scalar loop (asserted in
// tests/test_rng.cpp); the plan path (engine/plan_path.hpp) leans on this
// equivalence to fill adversary coins in blocks.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace cr {

/// splitmix64 step; used for seeding and hashing.
std::uint64_t splitmix64(std::uint64_t& state);

namespace rng_detail {

/// Shared fork arithmetic: the seed of the stream `tag` derived from `seed`.
/// Both substrates use this, so forked streams line up across them.
inline std::uint64_t fork_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t sm = seed ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return splitmix64(sm);
}

// The distribution algorithms, templated over any UniformRandomBitGenerator
// G producing full 64-bit words. Rng's methods delegate here (bit-identical
// to the pre-template implementations), and CounterRng::Stream reuses them,
// so both substrates sample every distribution with the same arithmetic.

inline constexpr double kInversionMeanCutoff = 32.0;

template <typename G>
double uniform01(G& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

template <typename G>
std::uint64_t uniform_u64(G& g, std::uint64_t n) {
  CR_DCHECK(n > 0);
  // Lemire-style rejection for unbiased bounded integers.
  std::uint64_t x = g();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = g();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

template <typename G>
bool bernoulli(G& g, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(g) < p;
}

template <typename G>
double normal01(G& g) {
  // Box–Muller; draws fresh uniforms each call (no cached spare, keeps the
  // generator state a pure function of the number of calls made).
  double u1 = uniform01(g);
  while (u1 <= 0.0) u1 = uniform01(g);
  const double u2 = uniform01(g);
  const double two_pi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

template <typename G>
std::uint64_t binomial(G& g, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Exploit symmetry so the mean used below is at most n/2.
  if (p > 0.5) return n - binomial(g, n, 1.0 - p);

  const double mean = static_cast<double>(n) * p;

  if (n <= 64) {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < n; ++i) hits += bernoulli(g, p) ? 1 : 0;
    return hits;
  }

  if (mean <= kInversionMeanCutoff) {
    // BINV: sequential CDF inversion. Expected work O(mean).
    const double q = 1.0 - p;
    const double s = p / q;
    double f = std::pow(q, static_cast<double>(n));  // P[X = 0]
    if (f <= 0.0) {
      // Underflow can only happen when mean is huge, excluded by the cutoff,
      // or n astronomically large with tiny p; fall through to normal approx.
    } else {
      double u = uniform01(g);
      std::uint64_t k = 0;
      double a = static_cast<double>(n);
      while (u > f) {
        u -= f;
        ++k;
        if (k > n) return n;  // numerical tail guard
        f *= s * (a - static_cast<double>(k) + 1.0) / static_cast<double>(k);
        if (f <= 0.0) break;  // deep tail: probabilities vanish
      }
      return k;
    }
  }

  // Normal approximation with continuity correction, clamped to [0, n].
  const double sd = std::sqrt(mean * (1.0 - p));
  const double x = std::floor(mean + sd * normal01(g) + 0.5);
  if (x < 0.0) return 0;
  if (x > static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(x);
}

}  // namespace rng_detail

/// Deterministic sequential PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the full 256-bit state from a 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Derive an independent stream (hash-combines the tag into the seed).
  Rng fork(std::uint64_t tag) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Fill out[0..n) with the next n words — bit-identical to n sequential
  /// next_u64() calls. One call amortises the cross-TU call cost over the
  /// whole block (the plan path fills adversary-coin buffers this way).
  void fill(std::uint64_t* out, std::size_t n);

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01();

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Biased coin. p <= 0 -> always false; p >= 1 -> always true.
  bool bernoulli(double p);

  /// Number of successes among n independent p-coins.
  ///
  /// Exact for n <= 64 (bit tricks) and for mean <= kInversionMeanCutoff
  /// (CDF inversion). Otherwise a clamped normal approximation; with
  /// n·p ≥ 32 the normal approximation's total-variation error is < 1%,
  /// far below the Monte-Carlo noise floor of any experiment here.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Standard normal variate (Box–Muller, stateless variant).
  double normal01();

  /// The original seed this Rng (or its ancestor chain) was built from.
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
};

/// Counter-based PRNG (Philox2x64-10-style block cipher).
///
/// A CounterRng is a pure value: a 64-bit key derived from (seed, fork
/// chain) with the same arithmetic Rng::fork uses. The random word at
/// counter position (hi, index) is
///
///     at(hi, index) = word[index & 1] of Philox(key, block = index >> 1, hi)
///
/// — no state advances, so any draw is computable without generating its
/// predecessors. stream(hi) binds the hi counter (the CJZ core uses the slot
/// number) and hands back a sequential cursor over index = 0, 1, ... that
/// offers the same distribution methods as Rng; its draw sequence equals
/// {at(hi, 0), at(hi, 1), ...} by construction (asserted in
/// tests/test_rng.cpp).
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : key_(seed) {}

  /// Derive an independent stream — same seed arithmetic as Rng::fork, so
  /// (seed, tag) names the same logical stream on both substrates.
  CounterRng fork(std::uint64_t tag) const {
    return CounterRng(rng_detail::fork_seed(key_, tag));
  }

  /// The 128-bit Philox output block at (block, hi): two 64-bit words.
  /// Philox2x64-10 (Salmon et al., "Parallel random numbers: as easy as
  /// 1, 2, 3"): ten rounds of multiply-hi/lo mixing with a Weyl key
  /// schedule. Inline so the batched fills below can pipeline several
  /// independent blocks through the multiplier at once.
  struct Block {
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
  };
  Block block(std::uint64_t blk, std::uint64_t hi) const {
    constexpr std::uint64_t kMult = 0xD2B74407B1CE6E93ULL;
    constexpr std::uint64_t kWeyl = 0x9E3779B97F4A7C15ULL;
    std::uint64_t x0 = blk;
    std::uint64_t x1 = hi;
    std::uint64_t k = key_;
    for (int round = 0; round < 10; ++round) {
      const __uint128_t prod = static_cast<__uint128_t>(kMult) * x0;
      const auto prod_hi = static_cast<std::uint64_t>(prod >> 64);
      const auto prod_lo = static_cast<std::uint64_t>(prod);
      x0 = prod_hi ^ k ^ x1;
      x1 = prod_lo;
      k += kWeyl;
    }
    return {x0, x1};
  }

  /// The index-th 64-bit word of the (key, hi) stream — order-independent.
  std::uint64_t at(std::uint64_t hi, std::uint64_t index) const {
    const Block b = block(index >> 1, hi);
    return (index & 1) ? b.w1 : b.w0;
  }

  /// Fill out[0..n) with the stream words at indices start .. start+n-1:
  /// bit-identical to calling at(hi, start + i) for each i, but blocks are
  /// evaluated two at a time so their latency chains overlap.
  void fill(std::uint64_t hi, std::uint64_t start, std::uint64_t* out, std::size_t n) const {
    std::size_t i = 0;
    std::uint64_t index = start;
    if ((index & 1) != 0 && i < n) {
      out[i++] = at(hi, index);
      ++index;
    }
    while (n - i >= 4) {
      const std::uint64_t blk = index >> 1;
      const Block b0 = block(blk, hi);
      const Block b1 = block(blk + 1, hi);
      out[i] = b0.w0;
      out[i + 1] = b0.w1;
      out[i + 2] = b1.w0;
      out[i + 3] = b1.w1;
      i += 4;
      index += 4;
    }
    for (; i < n; ++i, ++index) out[i] = at(hi, index);
  }

  /// Sequential cursor over one (key, hi) stream. Satisfies
  /// UniformRandomBitGenerator; the distribution methods delegate to the
  /// same rng_detail templates Rng uses, so e.g. stream.binomial(n, p)
  /// consumes the stream exactly like Rng::binomial consumes xoshiro.
  class Stream {
   public:
    using result_type = std::uint64_t;

    Stream() = default;
    Stream(const CounterRng& owner, std::uint64_t hi) : key_(owner.key_), hi_(hi) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

    result_type operator()() {
      // One Philox block yields two words; cache the second so sequential
      // draws cost one block evaluation per two words. fill() can land the
      // cursor on an odd index without keeping the block, so the spare is
      // re-derived on demand.
      if ((index_ & 1) == 0) {
        const Block b = CounterRng(key_).block(index_ >> 1, hi_);
        spare_ = b.w1;
        spare_valid_ = true;
        ++index_;
        return b.w0;
      }
      if (!spare_valid_) spare_ = CounterRng(key_).block(index_ >> 1, hi_).w1;
      spare_valid_ = false;
      ++index_;
      return spare_;
    }

    /// Fill out[0..n) with the next n words — bit-identical to n sequential
    /// operator() calls, with paired block evaluation (see CounterRng::fill).
    void fill(std::uint64_t* out, std::size_t n) {
      std::size_t i = 0;
      while (i < n && (index_ & 1) != 0) out[i++] = (*this)();
      if (i < n) {
        CounterRng(key_).fill(hi_, index_, out + i, n - i);
        index_ += n - i;
        // An odd landing index means the last block's second word is still
        // unread; re-derive it lazily if the next scalar draw needs it.
        spare_valid_ = false;
      }
    }

    double uniform01() { return rng_detail::uniform01(*this); }
    std::uint64_t uniform_u64(std::uint64_t n) { return rng_detail::uniform_u64(*this, n); }
    bool bernoulli(double p) { return rng_detail::bernoulli(*this, p); }
    std::uint64_t binomial(std::uint64_t n, double p) {
      // Same distribution arithmetic as rng_detail::binomial, but the
      // coin-by-coin branch (n <= 64) pulls its words through fill() so the
      // Philox chains pair up. Consumed-word counts and results are
      // bit-identical to the scalar template in every branch.
      if (n == 0 || p <= 0.0) return 0;
      if (p >= 1.0) return n;
      const bool flip = p > 0.5;
      const double q = flip ? 1.0 - p : p;
      if (n <= 64) {
        std::uint64_t words[64];
        fill(words, n);
        std::uint64_t hits = 0;
        for (std::uint64_t i = 0; i < n; ++i)
          hits += (static_cast<double>(words[i] >> 11) * 0x1.0p-53 < q) ? 1 : 0;
        return flip ? n - hits : hits;
      }
      const std::uint64_t k = rng_detail::binomial(*this, n, q);
      return flip ? n - k : k;
    }
    double normal01() { return rng_detail::normal01(*this); }

    /// Number of 64-bit words consumed so far (== the next draw index).
    std::uint64_t index() const { return index_; }

   private:
    std::uint64_t key_ = 0;
    std::uint64_t hi_ = 0;
    std::uint64_t index_ = 0;
    std::uint64_t spare_ = 0;
    bool spare_valid_ = false;
  };

  Stream stream(std::uint64_t hi) const { return Stream(*this, hi); }

  /// The key (derived seed) identifying this stream family.
  std::uint64_t key() const { return key_; }

 private:
  std::uint64_t key_;
};

}  // namespace cr

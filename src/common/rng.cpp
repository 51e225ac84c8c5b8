#include "common/rng.hpp"

namespace cr {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  seed_ = seed;
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 cannot emit
  // four consecutive zeros, but keep the guard for belt and braces.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t tag) const { return Rng(rng_detail::fork_seed(seed_, tag)); }

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

// The distribution methods delegate to the rng_detail templates (shared with
// CounterRng::Stream); the sequences are bit-identical to the pre-template
// implementations because the templates are those implementations, moved.

double Rng::uniform01() { return rng_detail::uniform01(*this); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) { return rng_detail::uniform_u64(*this, n); }

bool Rng::bernoulli(double p) { return rng_detail::bernoulli(*this, p); }

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return rng_detail::binomial(*this, n, p);
}

double Rng::normal01() { return rng_detail::normal01(*this); }

}  // namespace cr

/// \file
/// Central registry of RNG stream-fork tags.
///
/// Every independent randomness stream in the library is derived from the run
/// seed by forking with a tag. The tags used to live as hex literals at each
/// fork site; they are gathered here because BOTH substrates consume them:
/// the sequential `Rng` (fork(tag) hashes the tag into a new xoshiro seed)
/// and the counter-based `CounterRng` (the tag selects the Philox key the
/// same way), so a (seed, tag) pair names the same logical stream no matter
/// which substrate draws from it.
///
/// Tags must be pairwise distinct — two streams sharing a tag under one seed
/// would be identical, silently correlating draws that the engines assume
/// independent. tests/test_rng.cpp asserts uniqueness over kAllTags, so a
/// new tag MUST be added to that array.
#pragma once

#include <array>
#include <cstdint>

namespace cr::streams {

/// Engine → adversary decisions (all engines hand this stream, unconsumed,
/// to Adversary::on_slot; ComposedAdversary forks the component streams off
/// it on the first slot).
inline constexpr std::uint64_t kAdversary = 0xADu;
/// ComposedAdversary → arrival process (forked from the adversary stream).
inline constexpr std::uint64_t kArrival = 0xA0u;
/// ComposedAdversary → jammer (forked from the adversary stream).
inline constexpr std::uint64_t kJammer = 0x1Au;
/// Generic engine → per-node protocol draws (one shared stream).
inline constexpr std::uint64_t kGenericNodes = 0x0Du;
/// fast_cjz / cr stream (the CJZ core) → main protocol stream (cohort
/// binomials, winner selection).
inline constexpr std::uint64_t kCjzMain = 0xF0u;
/// CJZ core → backoff-stage offsets, one stream per (node id, phase, stage)
/// as the hi counter, so no other draw or event order can shift them.
inline constexpr std::uint64_t kCjzStage = 0xF5u;
/// fast_batch → main protocol stream (cohort binomials).
inline constexpr std::uint64_t kBatchMain = 0xB0u;
/// Cohort engines → send attribution under RecordingTier::kNodeStats. A
/// dedicated stream so the recording tier never perturbs the trajectory.
inline constexpr std::uint64_t kAttribution = 0xA7u;
/// Plan-path sweeps → analytic quiescent-tail jam draws (the one
/// Binomial(remaining, p) replacing per-slot i.i.d. coins once a seed has
/// drained and its plan rules out further arrivals).
inline constexpr std::uint64_t kPlanTail = 0x7Au;
/// `cr stream --synth` → synthetic arrival-feed generator (gaps, batch
/// sizes, jam coins of the generated trace; independent of every engine
/// stream so the same seed can drive both the feed and the simulation).
inline constexpr std::uint64_t kStreamSynth = 0x5Eu;

/// Every tag above, for the uniqueness test. Keep in sync.
inline constexpr std::array<std::uint64_t, 10> kAllTags = {
    kAdversary, kArrival,     kJammer,   kGenericNodes, kCjzMain,
    kCjzStage,  kBatchMain, kAttribution, kPlanTail,   kStreamSynth,
};

}  // namespace cr::streams

// The CJZ engine's law, not its draws. A change that redraws the engine's
// randomness (a new stream key, a new RNG) changes every output, so goldens
// cannot tell it from a change of the protocol. These tests compare mean
// successes and sends over hundreds of seeds with means pinned from the
// engine as it drew before backoff-stage draws were keyed by (node, phase,
// stage), on the same seeds, and fail when a mean moves by more than three
// standard errors of the difference. Both draw the same adversary, so only
// the protocol's randomness separates them.
//
// The outputs are heavy-tailed, so the bands are wide; the overload row still
// fails by far on a protocol change such as backoff offsets drawn from the
// first half of each window (mean successes fall from about 1550 to 170).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr {
namespace {

struct Mean {
  double mean = 0.0;
  double se = 0.0;  ///< standard error of the mean
};

Mean mean_of(const std::vector<SimResult>& runs, std::uint64_t SimResult::*field) {
  double sum = 0.0;
  for (const SimResult& r : runs) sum += static_cast<double>(r.*field);
  const double n = static_cast<double>(runs.size());
  const double mean = sum / n;
  double ss = 0.0;
  for (const SimResult& r : runs) ss += std::pow(static_cast<double>(r.*field) - mean, 2);
  return {mean, std::sqrt(ss / (n - 1) / n)};
}

void expect_within_three_se(const std::string& what, Mean got, Mean pinned) {
  const double band = 3.0 * std::hypot(got.se, pinned.se);
  EXPECT_LE(std::fabs(got.mean - pinned.mean), band)
      << what << ": mean " << got.mean << " (se " << got.se << ") against pinned "
      << pinned.mean << " (se " << pinned.se << ")";
}

constexpr int kThreads = 4;

const Engine& fast_cjz() { return *EngineRegistry::instance().at("fast_cjz"); }

// perfbench `overload`'s shape at 2^14: worst-case arrivals at twice
// capacity under 40% jamming.
TEST(CjzLaw, OverloadKeepsItsMeanSuccessesAndSends) {
  ScenarioParams params;
  params.horizon = slot_t{1} << 14;
  params.jam = 0.4;
  params.arrival_margin = 0.5;
  const auto runs = replicate_scenario(fast_cjz(), "worst_case", params, 192, 70000, kThreads);
  expect_within_three_se("successes", mean_of(runs, &SimResult::successes), {1548.30, 45.63});
  expect_within_three_se("sends", mean_of(runs, &SimResult::total_sends), {186287.4, 2589.8});
}

// The quick evidence cell of scenario-iid-jam-rate: a Bernoulli(0.1) stream
// under 25% i.i.d. jamming over 4096 slots.
TEST(CjzLaw, JammedBernoulliStreamKeepsItsMeanSuccessesAndSends) {
  ScenarioParams params;
  params.horizon = 4096;
  params.jam = 0.25;
  const auto runs =
      replicate_scenario(fast_cjz(), "bernoulli_stream", params, 1024, 71000, kThreads);
  expect_within_three_se("successes", mean_of(runs, &SimResult::successes), {408.952, 0.601});
  expect_within_three_se("sends", mean_of(runs, &SimResult::total_sends), {782.52, 16.18});
}

}  // namespace
}  // namespace cr

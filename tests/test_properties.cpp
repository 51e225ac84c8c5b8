// Property suites (parameterized): invariants that must hold across the
// whole (n × jamming × g-regime) grid, with fixed seeds.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <tuple>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/throughput_check.hpp"
#include "protocols/batch.hpp"
#include "stat_assert.hpp"

namespace cr {
namespace {

// ---------------------------------------------------------------------------
// CJZ batch property: every message eventually gets through, under any
// jamming level below saturation, and the run respects basic accounting.
// ---------------------------------------------------------------------------

using BatchParam = std::tuple<std::uint64_t /*n*/, double /*jam*/>;

class CjzBatchProperty : public ::testing::TestWithParam<BatchParam> {};

TEST_P(CjzBatchProperty, DrainsAndAccountsCorrectly) {
  const auto [n, jam] = GetParam();
  FunctionSet fs = functions_constant_g(4.0);
  ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
  SimConfig cfg;
  cfg.horizon = 2'000'000;
  cfg.seed = 1000 + n;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_fast_cjz(fs, adv, cfg);

  EXPECT_EQ(res.successes, n) << "all messages delivered";
  EXPECT_EQ(res.live_at_end, 0u);
  EXPECT_GE(res.total_sends, res.successes);
  EXPECT_LE(res.active_slots, res.slots);
  EXPECT_EQ(res.arrivals, n);
  // No success in a jammed slot; winners are unique senders.
  ASSERT_EQ(res.slot_outcomes.size(), res.slots);
  for (const SlotOutcome& out : res.slot_outcomes) {
    if (out.jammed) { ASSERT_FALSE(out.success()) << "slot " << out.slot; }
    if (out.success()) { ASSERT_EQ(out.senders, 1u) << "slot " << out.slot; }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CjzBatchProperty,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 4, 16, 64, 200),
                       ::testing::Values(0.0, 0.15, 0.3)));

// ---------------------------------------------------------------------------
// Throughput-bound property across all three g regimes of the paper: under a
// smooth adversary the (f,g) ratio stays bounded by a small constant.
// ---------------------------------------------------------------------------

struct RegimeCase {
  const char* name;  ///< g_regimes() name
  double gamma;      ///< const's value / exp_sqrt_log's scale
};

// Without this, gtest prints the struct's raw bytes — including the `name`
// pointer, which ASLR moves on every build — and CTest's discovered test name
// ends in that value ("/0  # GetParam() = 16-byte object <...>"). Printing the
// name makes CTest's pretty name the stable ".../const", ".../log", ...
void PrintTo(const RegimeCase& c, std::ostream* os) { *os << c.name; }

class ThroughputRegime : public ::testing::TestWithParam<RegimeCase> {};

TEST_P(ThroughputRegime, SmoothAdversaryRatioBounded) {
  Scenario sc = ScenarioRegistry::instance().build(
      "smooth", {.horizon = 1 << 15, .seed = 77, .arrival_margin = 8.0, .jam_margin = 8.0,
                 .g_regime = GetParam().name, .gamma = GetParam().gamma});
  ThroughputChecker checker(sc.fs);
  const SimResult res = run_fast_cjz(sc.fs, *sc.adversary, sc.config, &checker);
  EXPECT_GT(res.arrivals, 10u);
  EXPECT_TRUE(stat::in_range(checker.max_ratio(), 0.0, 8.0)) << GetParam().name;
  // The system keeps up: most arrivals depart.
  const double served =
      static_cast<double>(res.successes) / static_cast<double>(res.arrivals);
  EXPECT_TRUE(stat::in_range(served, 0.85, 1.0))
      << GetParam().name << ": >=85% of arrivals must depart";
}

INSTANTIATE_TEST_SUITE_P(Regimes, ThroughputRegime,
                         ::testing::Values(RegimeCase{"const", 4.0}, RegimeCase{"log", 4.0},
                                           RegimeCase{"exp_sqrt_log", 1.0}));

// ---------------------------------------------------------------------------
// h_data batch property (the paper's Remark after Claim 3.5.1): a constant
// fraction of n messages goes through within O(n) slots, even under constant
// jamming — but completing ALL of them takes longer (see test_claims.cpp).
// ---------------------------------------------------------------------------

using RobustParam = std::tuple<std::uint64_t /*n*/, double /*jam*/>;

class BatchFractionProperty : public ::testing::TestWithParam<RobustParam> {};

TEST_P(BatchFractionProperty, ConstantFractionWithinLinearTime) {
  const auto [n, jam] = GetParam();
  ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
  SimConfig cfg;
  cfg.horizon = 8 * n;
  cfg.seed = 2000 + n;
  cfg.recording = RecordingConfig::success_times();
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_GE(res.successes, n / 5)
      << "h_data-batch should deliver >=20% of n within 8n slots (jam=" << jam << ")";
}

INSTANTIATE_TEST_SUITE_P(Grid, BatchFractionProperty,
                         ::testing::Combine(::testing::Values<std::uint64_t>(256, 1024, 4096),
                                            ::testing::Values(0.0, 0.25)));

// ---------------------------------------------------------------------------
// Monotone jamming property: more jamming can only slow the batch down
// (statistically, averaged over seeds).
// ---------------------------------------------------------------------------

TEST(JammingMonotonicity, MeanCompletionGrowsWithJamRate) {
  const std::uint64_t n = 96;
  auto run_at = [&](double jam, std::uint64_t seed) {
    FunctionSet fs = functions_constant_g(4.0);
    ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
    SimConfig cfg;
    cfg.horizon = 2'000'000;
    cfg.seed = seed;
    cfg.stop_when_empty = true;
    return run_fast_cjz(fs, adv, cfg);
  };
  const int reps = 12;
  const auto none = collect(replicate(reps, 3000, [&](std::uint64_t s) { return run_at(0.0, s); }),
                            [](const SimResult& r) { return double(r.last_success); });
  const auto heavy = collect(replicate(reps, 3000, [&](std::uint64_t s) { return run_at(0.35, s); }),
                             [](const SimResult& r) { return double(r.last_success); });
  EXPECT_TRUE(stat::mean_at_most(none, heavy, 1.0))
      << "35% jamming must not finish the batch faster than no jamming";
}

// ---------------------------------------------------------------------------
// Reactive (adaptive) jamming: the algorithm still drains the batch when the
// adversary targets post-success slots.
// ---------------------------------------------------------------------------

TEST(AdaptiveJamming, ReactiveJammerDoesNotStallBatch) {
  const std::uint64_t n = 128;
  FunctionSet fs = functions_constant_g(4.0);
  ComposedAdversary adv(batch_arrival(n, 1), reactive_jammer(fs.g, 2.0, 2));
  SimConfig cfg;
  cfg.horizon = 2'000'000;
  cfg.seed = 4000;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes, n);
}

}  // namespace
}  // namespace cr

// End-to-end integration tests: whole-system runs through both engines,
// checking the invariants that define the model and the algorithm's
// headline behaviour on small instances.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "metrics/throughput_check.hpp"
#include "protocols/batch.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {
namespace {

ComposedAdversary make_adv(std::unique_ptr<ArrivalProcess> a, std::unique_ptr<Jammer> j) {
  return ComposedAdversary(std::move(a), std::move(j));
}

TEST(Integration, CjzGenericDrainsBatchWithoutJamming) {
  const std::uint64_t n = 64;
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(batch_arrival(n, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 200'000;
  cfg.seed = 7;
  cfg.stop_when_empty = true;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, n);
  EXPECT_EQ(res.live_at_end, 0u);
  EXPECT_LT(res.slots, cfg.horizon) << "batch should drain well before the guard horizon";
}

TEST(Integration, CjzFastDrainsBatchWithoutJamming) {
  const std::uint64_t n = 256;
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(n, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 1'000'000;
  cfg.seed = 7;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes, n);
  EXPECT_EQ(res.live_at_end, 0u);
}

TEST(Integration, CjzFastSurvivesQuarterJamming) {
  const std::uint64_t n = 256;
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(n, 1), iid_jammer(0.25));
  SimConfig cfg;
  cfg.horizon = 2'000'000;
  cfg.seed = 11;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes, n);
  EXPECT_EQ(res.live_at_end, 0u);
}

TEST(Integration, SingleNodeSucceedsQuickly) {
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(batch_arrival(1, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 10'000;
  cfg.seed = 3;
  cfg.stop_when_empty = true;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 1u);
  // A lone node's Phase-1 backoff sends within every stage; first success
  // should come within a few stages.
  EXPECT_LT(res.first_success, 2'000u);
}

TEST(Integration, DynamicArrivalsAreServed) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(bernoulli_arrivals(0.02, 1, 50'000), no_jam());
  SimConfig cfg;
  cfg.horizon = 120'000;
  cfg.seed = 19;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_GT(res.arrivals, 500u);
  // Nearly everything injected in the first 50k slots should be out by 120k.
  EXPECT_GE(res.successes + 5, res.arrivals);
}

TEST(Integration, ThroughputBoundHoldsOnSmoothScenario) {
  Scenario sc = ScenarioRegistry::instance().build(
      "smooth", {.horizon = 1 << 16, .seed = 5, .arrival_margin = 8.0, .jam_margin = 8.0});
  ThroughputChecker checker(sc.fs);
  const SimResult res = run_fast_cjz(sc.fs, *sc.adversary, sc.config, &checker);
  EXPECT_GT(res.arrivals, 0u);
  // The bound holds with generous constant headroom: ratio stays O(1).
  EXPECT_LT(checker.max_ratio(), 8.0);
}

TEST(Integration, FastBatchDrainsHdataBatch) {
  auto adv = make_adv(batch_arrival(512, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 2'000'000;
  cfg.seed = 23;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_EQ(res.successes, 512u);
}

TEST(Integration, JammedSlotsNeverSucceed) {
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(batch_arrival(16, 1), iid_jammer(0.5));
  SimConfig cfg;
  cfg.horizon = 20'000;
  cfg.seed = 29;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_generic(factory, adv, cfg);
  ASSERT_EQ(res.slot_outcomes.size(), res.slots);
  for (const SlotOutcome& out : res.slot_outcomes) {
    if (out.jammed) { EXPECT_FALSE(out.success()) << "slot " << out.slot; }
    if (out.success()) { EXPECT_EQ(out.senders, 1u); }
  }
}

TEST(Integration, DeterministicPerSeed) {
  FunctionSet fs = functions_constant_g(4.0);
  SimConfig cfg;
  cfg.horizon = 50'000;
  cfg.seed = 42;
  cfg.stop_when_empty = true;
  auto adv1 = make_adv(batch_arrival(100, 1), iid_jammer(0.1));
  auto adv2 = make_adv(batch_arrival(100, 1), iid_jammer(0.1));
  const SimResult r1 = run_fast_cjz(fs, adv1, cfg);
  const SimResult r2 = run_fast_cjz(fs, adv2, cfg);
  EXPECT_EQ(r1.slots, r2.slots);
  EXPECT_EQ(r1.successes, r2.successes);
  EXPECT_EQ(r1.total_sends, r2.total_sends);
  EXPECT_EQ(r1.jammed_slots, r2.jammed_slots);
}

}  // namespace
}  // namespace cr

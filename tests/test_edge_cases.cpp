// Edge cases and failure injection: degenerate horizons, total jamming,
// last-slot injections, flag combinations, and end-to-end runs against the
// scripted proof adversaries.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "adversary/proof_adversaries.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/batch.hpp"
#include "protocols/baselines.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {
namespace {

ComposedAdversary make_adv(std::unique_ptr<ArrivalProcess> a, std::unique_ptr<Jammer> j) {
  return ComposedAdversary(std::move(a), std::move(j));
}

TEST(EdgeCases, TotalJammingBlocksEverything) {
  // Failure injection: every slot jammed. Nobody ever succeeds; everything
  // stays queued; the trace shows zero successes.
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(10, 1), iid_jammer(1.0));
  SimConfig cfg;
  cfg.horizon = 5000;
  cfg.seed = 3;
  FastCjzSimulator sim(fs, adv, cfg);
  const SimResult res = sim.run();
  EXPECT_EQ(res.successes, 0u);
  EXPECT_EQ(res.live_at_end, 10u);
  EXPECT_EQ(res.jammed_slots, 5000u);
  EXPECT_EQ(res.active_slots, 5000u);
}

TEST(EdgeCases, RecoveryAfterTotalJammingWindow) {
  // Jamming stops at slot 2000; the batch must then drain normally.
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(16, 1), prefix_jammer(2000));
  SimConfig cfg;
  cfg.horizon = 100'000;
  cfg.seed = 5;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes, 16u);
  EXPECT_GT(res.first_success, 2000u);
}

TEST(EdgeCases, ArrivalInLastSlot) {
  // A node injected at the horizon's last slot: it acts in that slot (it
  // may even succeed — a lone stage-0 backoff sends immediately).
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(scheduled_arrivals({{100, 1}}), no_jam());
  SimConfig cfg;
  cfg.horizon = 100;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.arrivals, 1u);
  EXPECT_EQ(res.active_slots, 1u);
  EXPECT_EQ(res.successes, 1u) << "lone node transmits at its arrival slot";
}

TEST(EdgeCases, HorizonOne) {
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(batch_arrival(1, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 1;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.slots, 1u);
  EXPECT_EQ(res.successes, 1u);
}

TEST(EdgeCases, StopAfterFirstSuccessAllEngines) {
  FunctionSet fs = functions_constant_g(4.0);
  SimConfig cfg;
  cfg.horizon = 1'000'000;
  cfg.seed = 9;
  cfg.stop_after_first_success = true;
  {
    auto adv = make_adv(batch_arrival(64, 1), no_jam());
    const SimResult res = run_fast_cjz(fs, adv, cfg);
    EXPECT_EQ(res.successes, 1u);
    EXPECT_EQ(res.slots, res.first_success);
  }
  {
    auto adv = make_adv(batch_arrival(64, 1), no_jam());
    const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
    EXPECT_EQ(res.successes, 1u);
    EXPECT_EQ(res.slots, res.first_success);
  }
  {
    CjzFactory factory(fs);
    auto adv = make_adv(batch_arrival(64, 1), no_jam());
    const SimResult res = run_generic(factory, adv, cfg);
    EXPECT_EQ(res.successes, 1u);
    EXPECT_EQ(res.slots, res.first_success);
  }
}

TEST(EdgeCases, InjectionPastTheLiveCapAbortsBeforeAllocating) {
  // Every engine refuses an injection that would take the live population
  // past SimConfig::max_live_nodes before it allocates a single node: the
  // check names the injection, so a huge one cannot exhaust memory first.
  FunctionSet fs = functions_constant_g(4.0);
  SimConfig cfg;
  cfg.horizon = 16;
  cfg.max_live_nodes = 8;
  const char* const kRefused = "action.inject <= config_.max_live_nodes";
  EXPECT_DEATH(
      {
        auto adv = make_adv(batch_arrival(9, 1), no_jam());
        run_fast_cjz(fs, adv, cfg);
      },
      kRefused);
  EXPECT_DEATH(
      {
        auto adv = make_adv(batch_arrival(9, 1), no_jam());
        run_fast_batch(profiles::h_data(), adv, cfg);
      },
      kRefused);
  EXPECT_DEATH(
      {
        CjzFactory factory(fs);
        auto adv = make_adv(batch_arrival(9, 1), no_jam());
        run_generic(factory, adv, cfg);
      },
      kRefused);
  // At the cap itself the run goes on.
  auto adv = make_adv(batch_arrival(8, 1), no_jam());
  EXPECT_EQ(run_fast_cjz(fs, adv, cfg).arrivals, 8u);
}

TEST(EdgeCases, EmptyRunProducesEmptyResult) {
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(no_arrivals(), no_jam());
  SimConfig cfg;
  cfg.horizon = 1000;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.arrivals, 0u);
  EXPECT_EQ(res.active_slots, 0u);
  EXPECT_TRUE(res.success_times.empty());
  EXPECT_TRUE(res.node_stats.empty());
}

TEST(ProofIntegration, Theorem13AdversaryDelaysButCannotStopBackoff) {
  // The Theorem 1.3 construction jams a prefix plus random slots against a
  // single node; the node must still get through within t (the adversary's
  // budget is t/(2g)+1, far below t).
  const slot_t t = 1 << 14;
  const FunctionSet fs = functions_constant_g(4.0);
  int solved = 0;
  for (int r = 0; r < 10; ++r) {
    auto factory = backoff_protocol_factory(fs);
    auto adv = theorem13_adversary(t, fs.g, 100 + static_cast<std::uint64_t>(r));
    SimConfig cfg;
    cfg.horizon = t;
    cfg.seed = 200 + static_cast<std::uint64_t>(r);
    cfg.stop_after_first_success = true;
    const SimResult res = run_generic(*factory, *adv, cfg);
    if (res.first_success != 0) {
      ++solved;
      EXPECT_GT(res.first_success, t / 16) << "prefix jam must delay the first success";
    }
  }
  EXPECT_GE(solved, 9) << "the jamming budget cannot prevent success within t";
}

TEST(ProofIntegration, Theorem42AdversaryAgainstCjz) {
  // CJZ (which embeds the adaptive backoff) against the Theorem 4.2
  // adversary: prefix jam + last-slot flood. It should succeed soon after
  // the prefix and keep the pre-flood population served.
  const slot_t t = 1 << 14;
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = theorem42_adversary(t, fs);
  SimConfig cfg;
  cfg.horizon = t;
  cfg.seed = 7;
  const SimResult res = run_fast_cjz(fs, *adv, cfg);
  EXPECT_GT(res.successes, 0u);
  // Both initial nodes served long before the end (flood arrives at slot t).
  EXPECT_GE(res.successes, 2u);
  EXPECT_LT(res.first_success, t / 2);
}

TEST(ProofIntegration, Lemma41AdversarySuppressesProfileProtocols) {
  // Lemma 4.1's mass-injection pattern is designed to prevent any success
  // against senders with high cumulative sending probability. The constant
  // ALOHA profile (x_i = p for all i) is the canonical victim: batch
  // injections keep every slot's contention enormous.
  const slot_t t = 4096;
  ProfileProtocolFactory aloha(profiles::aloha(0.5));
  auto adv = lemma41_adversary(t, 0.5, fn::log2p(1.0), 17);
  SimConfig cfg;
  cfg.horizon = t;
  cfg.seed = 23;
  const SimResult res = run_generic(aloha, *adv, cfg);
  EXPECT_EQ(res.successes, 0u) << "contention never drops below Θ(log t)";
}

TEST(EdgeCases, FastBatchCohortCompaction) {
  // Long run with many drained cohorts: the periodic compaction must not
  // drop live nodes (conservation still holds).
  auto adv = make_adv(bernoulli_arrivals(0.01, 1, 20'000), no_jam());
  SimConfig cfg;
  cfg.horizon = 60'000;
  cfg.seed = 31;
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_EQ(res.successes + res.live_at_end, res.arrivals);
}

TEST(EdgeCases, ReseedReproducesStream) {
  Rng rng(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.next_u64());
  rng.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next_u64(), first[i]);
}

TEST(EdgeCases, GrowthFnCopyIsIndependent) {
  GrowthFn a = fn::constant(4.0);
  GrowthFn b = a;
  EXPECT_DOUBLE_EQ(b(10.0), 4.0);
  a = fn::constant(8.0);
  EXPECT_DOUBLE_EQ(b(10.0), 4.0) << "copies must not alias";
}

class JamRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(JamRateSweep, ConservationHoldsAtEveryJamRate) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(bernoulli_arrivals(0.01, 1, 30'000), iid_jammer(GetParam()));
  SimConfig cfg;
  cfg.horizon = 50'000;
  cfg.seed = 41;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes + res.live_at_end, res.arrivals);
  EXPECT_LE(res.successes, res.total_sends);
}

INSTANTIATE_TEST_SUITE_P(Rates, JamRateSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.95));

}  // namespace
}  // namespace cr

// Unit tests for the generic (reference) engine: bookkeeping invariants,
// observer plumbing, early-exit and per-node stats.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/batch.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {
namespace {

ComposedAdversary make_adv(std::unique_ptr<ArrivalProcess> a, std::unique_ptr<Jammer> j) {
  return ComposedAdversary(std::move(a), std::move(j));
}

TEST(GenericSim, SingleAlohaNodeWinsFirstSlot) {
  // aloha(1.0): the lone node transmits every slot; with nobody else it
  // succeeds immediately at its arrival slot.
  ProfileProtocolFactory factory(profiles::aloha(1.0));
  auto adv = make_adv(batch_arrival(1, 4), no_jam());
  SimConfig cfg;
  cfg.horizon = 10;
  cfg.recording = RecordingConfig::success_times();
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 1u);
  EXPECT_EQ(res.first_success, 4u);
  EXPECT_EQ(res.active_slots, 1u) << "slots before arrival and after departure are inactive";
}

TEST(GenericSim, TwoGreedyNodesNeverSucceed) {
  // Two aloha(1.0) nodes collide forever — and, without collision detection,
  // nothing can tell them apart from silence.
  ProfileProtocolFactory factory(profiles::aloha(1.0));
  auto adv = make_adv(batch_arrival(2, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 500;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 0u);
  EXPECT_EQ(res.live_at_end, 2u);
  EXPECT_EQ(res.total_sends, 1000u);
  EXPECT_EQ(res.active_slots, 500u);
}

TEST(GenericSim, SuccessesEqualDepartures) {
  ProfileProtocolFactory factory(profiles::h_data());
  auto adv = make_adv(batch_arrival(40, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 100'000;
  cfg.seed = 13;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes + res.live_at_end, 40u);
  std::uint64_t departed = 0;
  for (const auto& ns : res.node_stats) departed += ns.departed() ? 1 : 0;
  EXPECT_EQ(departed, res.successes);
}

TEST(GenericSim, NodeStatsSendsSumToTotal) {
  ProfileProtocolFactory factory(profiles::h_data());
  auto adv = make_adv(batch_arrival(20, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 50'000;
  cfg.seed = 17;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_generic(factory, adv, cfg);
  std::uint64_t sum = 0;
  for (const auto& ns : res.node_stats) sum += ns.sends;
  EXPECT_EQ(sum, res.total_sends);
}

TEST(GenericSim, ActiveSlotAccountingWithGap) {
  // One node at slot 10 succeeding immediately; slots 1..9 inactive.
  ProfileProtocolFactory factory(profiles::aloha(1.0));
  auto adv = make_adv(scheduled_arrivals({{10, 1}, {20, 1}}), no_jam());
  SimConfig cfg;
  cfg.horizon = 25;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 2u);
  EXPECT_EQ(res.active_slots, 2u);
}

TEST(GenericSim, StopWhenEmptyWaitsForFirstArrival) {
  ProfileProtocolFactory factory(profiles::aloha(1.0));
  auto adv = make_adv(scheduled_arrivals({{50, 1}}), no_jam());
  SimConfig cfg;
  cfg.horizon = 1000;
  cfg.stop_when_empty = true;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.successes, 1u);
  EXPECT_EQ(res.slots, 50u) << "must not stop before the first arrival";
}

TEST(GenericSim, JammedSlotCountMatchesTrace) {
  CjzFactory factory(functions_constant_g(4.0));
  auto adv = make_adv(batch_arrival(8, 1), periodic_jammer(4, 1));
  SimConfig cfg;
  cfg.horizon = 4000;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_generic(factory, adv, cfg);
  std::uint64_t jammed = 0;
  for (const SlotOutcome& out : res.slot_outcomes) jammed += out.jammed ? 1 : 0;
  EXPECT_EQ(res.jammed_slots, jammed);
  EXPECT_EQ(res.jammed_slots, 1000u);
}

class ProbeObserver final : public SlotObserver {
 public:
  std::uint64_t calls = 0;
  std::uint64_t injected_total = 0;
  std::uint64_t max_live = 0;
  slot_t last_slot = 0;

  void on_slot(const SlotOutcome& out, std::uint64_t injected, std::uint64_t live) override {
    ++calls;
    injected_total += injected;
    max_live = std::max(max_live, live);
    EXPECT_EQ(out.slot, last_slot + 1);
    last_slot = out.slot;
  }
};

TEST(GenericSim, ObserverSeesEverySlot) {
  ProfileProtocolFactory factory(profiles::h_data());
  auto adv = make_adv(batch_arrival(10, 5), no_jam());
  SimConfig cfg;
  cfg.horizon = 2000;
  ProbeObserver probe;
  GenericSimulator sim(factory, adv, cfg);
  sim.set_observer(&probe);
  const SimResult res = sim.run();
  EXPECT_EQ(probe.calls, res.slots);
  EXPECT_EQ(probe.injected_total, 10u);
  EXPECT_EQ(probe.max_live, 10u);
}

TEST(GenericSim, DeterministicPerSeedAcrossInstances) {
  for (int trial = 0; trial < 2; ++trial) {
    CjzFactory f1(functions_constant_g(4.0));
    CjzFactory f2(functions_constant_g(4.0));
    auto a1 = make_adv(batch_arrival(30, 1), iid_jammer(0.2));
    auto a2 = make_adv(batch_arrival(30, 1), iid_jammer(0.2));
    SimConfig cfg;
    cfg.horizon = 20'000;
    cfg.seed = 1234;
    cfg.stop_when_empty = true;
    const SimResult r1 = run_generic(f1, a1, cfg);
    const SimResult r2 = run_generic(f2, a2, cfg);
    EXPECT_EQ(r1.slots, r2.slots);
    EXPECT_EQ(r1.total_sends, r2.total_sends);
    EXPECT_EQ(r1.successes, r2.successes);
  }
}

TEST(GenericSim, SeedsChangeOutcome) {
  CjzFactory f1(functions_constant_g(4.0));
  CjzFactory f2(functions_constant_g(4.0));
  auto a1 = make_adv(batch_arrival(30, 1), no_jam());
  auto a2 = make_adv(batch_arrival(30, 1), no_jam());
  SimConfig c1, c2;
  c1.horizon = c2.horizon = 50'000;
  c1.stop_when_empty = c2.stop_when_empty = true;
  c1.seed = 1;
  c2.seed = 2;
  const SimResult r1 = run_generic(f1, a1, c1);
  const SimResult r2 = run_generic(f2, a2, c2);
  EXPECT_NE(r1.total_sends, r2.total_sends);
}

TEST(GenericSim, SuccessTimesSortedAndComplete) {
  ProfileProtocolFactory factory(profiles::h_data());
  auto adv = make_adv(batch_arrival(30, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 100'000;
  cfg.seed = 3;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::success_times();
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_EQ(res.success_times.size(), res.successes);
  EXPECT_TRUE(std::is_sorted(res.success_times.begin(), res.success_times.end()));
  if (!res.success_times.empty()) {
    EXPECT_EQ(res.success_times.front(), res.first_success);
    EXPECT_EQ(res.success_times.back(), res.last_success);
  }
}

}  // namespace
}  // namespace cr

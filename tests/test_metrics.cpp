// Unit tests for metrics: latency/energy reports, success windows, and the
// online (f,g)-throughput checker fed with synthetic slot outcomes.
#include <gtest/gtest.h>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "channel/channel.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "metrics/throughput_check.hpp"
#include "metrics/windowed.hpp"

namespace cr {
namespace {

SimResult synthetic_result() {
  SimResult res;
  res.node_stats = {
      {0, 1, 10, 3},   // latency 10
      {1, 1, 5, 1},    // latency 5
      {2, 2, 21, 7},   // latency 20
      {3, 4, 0, 2},    // stranded
  };
  res.success_times = {5, 10, 21};
  res.successes = 3;
  return res;
}

TEST(Metrics, LatencyReport) {
  const LatencyReport rep = latency_report(synthetic_result());
  EXPECT_EQ(rep.departed, 3u);
  EXPECT_EQ(rep.stranded, 1u);
  EXPECT_NEAR(rep.mean, (10.0 + 5.0 + 20.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rep.p50, 10.0);
  EXPECT_DOUBLE_EQ(rep.max, 20.0);
}

TEST(Metrics, EnergyReport) {
  const EnergyReport rep = energy_report(synthetic_result());
  EXPECT_EQ(rep.departed, 3u);
  EXPECT_NEAR(rep.mean, (3.0 + 1.0 + 7.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rep.max, 7.0);
}

TEST(Metrics, EmptyReports) {
  SimResult res;
  EXPECT_EQ(latency_report(res).departed, 0u);
  EXPECT_EQ(energy_report(res).departed, 0u);
}

TEST(Metrics, SuccessesInWindow) {
  const SimResult res = synthetic_result();
  EXPECT_EQ(successes_in_window(res, 1, 100), 3u);
  EXPECT_EQ(successes_in_window(res, 5, 10), 2u);
  EXPECT_EQ(successes_in_window(res, 6, 9), 0u);
  EXPECT_EQ(successes_in_window(res, 21, 21), 1u);
}

TEST(Metrics, MaxLatencyForArrivals) {
  const SimResult res = synthetic_result();
  EXPECT_EQ(max_latency_for_arrivals(res, 1, 1), 10u);
  EXPECT_EQ(max_latency_for_arrivals(res, 1, 2), 20u);
  EXPECT_EQ(max_latency_for_arrivals(res, 3, 9), 0u) << "node 3 never departed";
}

TEST(ThroughputChecker, CountersTrackOutcomes) {
  ThroughputChecker checker(functions_constant_g(4.0));
  // slot 1: 2 arrivals, active, no jam.
  checker.on_slot(resolve_slot(1, 2, false, kNoNode), 2, 2);
  // slot 2: jammed, active.
  checker.on_slot(resolve_slot(2, 1, true, kNoNode), 0, 2);
  // slot 3: success, active.
  checker.on_slot(resolve_slot(3, 1, false, 7), 0, 2);
  // slot 4: idle.
  checker.on_slot(resolve_slot(4, 0, false, kNoNode), 0, 0);
  EXPECT_EQ(checker.arrivals(), 2u);
  EXPECT_EQ(checker.jammed(), 1u);
  EXPECT_EQ(checker.active(), 3u);
  EXPECT_EQ(checker.slots(), 4u);
}

TEST(ThroughputChecker, BoundArithmetic) {
  FunctionSet fs = functions_constant_g(4.0);
  ThroughputChecker checker(fs);
  checker.on_slot(resolve_slot(1, 0, true, kNoNode), 3, 3);
  // n=3, d=1, t=1: bound = 3·f(1) + 1·g(1).
  const double expect = 3.0 * fs.f(1.0) + 4.0;
  EXPECT_NEAR(checker.bound(), expect, 1e-12);
  EXPECT_NEAR(checker.final_ratio(), 1.0 / expect, 1e-12);
}

TEST(ThroughputChecker, MaxRatioTracksWorstSlot) {
  FunctionSet fs = functions_constant_g(4.0);
  ThroughputChecker checker(fs);
  // 1 arrival then long active streak with no arrivals/jams: ratio grows.
  checker.on_slot(resolve_slot(1, 0, false, kNoNode), 1, 1);
  for (slot_t s = 2; s <= 100; ++s)
    checker.on_slot(resolve_slot(s, 0, false, kNoNode), 0, 1);
  EXPECT_GT(checker.max_ratio(), checker.final_ratio() * 0.99);
  EXPECT_GE(checker.max_ratio_slot(), 1u);
  // a_t = 100, bound = f(100) ≈ log2(102)/4 ≈ 1.67 -> ratio ~ 60.
  EXPECT_GT(checker.max_ratio(), 10.0);
}

TEST(ThroughputChecker, SeriesSampling) {
  ThroughputChecker checker(functions_constant_g(4.0), 10);
  for (slot_t s = 1; s <= 100; ++s)
    checker.on_slot(resolve_slot(s, 0, false, kNoNode), s == 1 ? 1 : 0, 1);
  ASSERT_EQ(checker.series().size(), 10u);
  EXPECT_EQ(checker.series().front().t, 10u);
  EXPECT_EQ(checker.series().back().t, 100u);
  EXPECT_EQ(checker.series().back().a_t, 100u);
}

TEST(WindowedMetrics, FoldsSlotsIntoWindows) {
  WindowedMetrics windows(4);
  // 10 synthetic slots: 3 arrivals at slot 1, successes at 3 and 7, jam at 5.
  for (slot_t s = 1; s <= 10; ++s) {
    const bool jam = s == 5;
    const bool success = s == 3 || s == 7;
    const std::uint64_t senders = success ? 1 : 2;
    windows.on_slot(resolve_slot(s, senders, jam, success ? 1 : kNoNode), s == 1 ? 3 : 0,
                    3 - (s >= 3 ? 1 : 0) - (s >= 7 ? 1 : 0));
  }
  windows.on_run_end(SimResult{});
  ASSERT_EQ(windows.series().size(), 3u) << "two full windows + flushed partial";
  const WindowStats& w0 = windows.series()[0];
  EXPECT_EQ(w0.start, 1u);
  EXPECT_EQ(w0.end, 4u);
  EXPECT_EQ(w0.arrivals, 3u);
  EXPECT_EQ(w0.successes, 1u);
  EXPECT_EQ(w0.jammed, 0u);
  EXPECT_EQ(w0.sends, 2u + 2u + 1u + 2u);
  EXPECT_EQ(w0.live_max, 3u);
  EXPECT_EQ(w0.live_end, 2u);
  EXPECT_DOUBLE_EQ(w0.throughput(), 0.25);
  const WindowStats& w1 = windows.series()[1];
  EXPECT_EQ(w1.jammed, 1u);
  EXPECT_EQ(w1.successes, 1u);
  const WindowStats& w2 = windows.series()[2];
  EXPECT_EQ(w2.start, 9u);
  EXPECT_EQ(w2.end, 10u);
  EXPECT_EQ(w2.width(), 2u);
  EXPECT_EQ(windows.peak_backlog(), 3u);
}

TEST(WindowedMetrics, LiveEndIsTheBacklogWhenTheWindowCloses) {
  // Engines pass the population during a slot, the slot's winner included;
  // a window closing on a success must not count the winner as backlog.
  WindowedMetrics windows(2);
  windows.on_slot(resolve_slot(1, 2, false, kNoNode), 2, 2);  // collision
  windows.on_slot(resolve_slot(2, 1, false, 0), 0, 2);        // node 0 departs
  windows.on_slot(resolve_slot(3, 1, false, 1), 0, 1);        // node 1 departs
  windows.on_slot(resolve_slot(4, 0, false, kNoNode), 0, 0);
  ASSERT_EQ(windows.series().size(), 2u);
  EXPECT_EQ(windows.series()[0].live_end, 1u);
  EXPECT_EQ(windows.series()[0].live_max, 2u);
  EXPECT_EQ(windows.series()[1].live_end, 0u);
}

TEST(WindowedMetrics, AgreesWithEngineCountersOnARealRun) {
  FunctionSet fs = functions_constant_g(4.0);
  ComposedAdversary adv(batch_arrival(32, 1), iid_jammer(0.2));
  SimConfig cfg;
  cfg.horizon = 10'000;
  cfg.seed = 5;
  WindowedMetrics windows(128);
  const SimResult res = run_fast_cjz(fs, adv, cfg, &windows);
  std::uint64_t successes = 0, jammed = 0, sends = 0, arrivals = 0;
  slot_t covered = 0;
  for (const WindowStats& w : windows.series()) {
    successes += w.successes;
    jammed += w.jammed;
    sends += w.sends;
    arrivals += w.arrivals;
    covered += w.width();
  }
  EXPECT_EQ(covered, res.slots) << "windows tile the run exactly";
  EXPECT_EQ(windows.series().back().live_end, res.live_at_end);
  EXPECT_EQ(successes, res.successes);
  EXPECT_EQ(jammed, res.jammed_slots);
  EXPECT_EQ(sends, res.total_sends);
  EXPECT_EQ(arrivals, res.arrivals);
}

TEST(ObserverChain, FansOutToAllObserversAndSkipsNull) {
  class Counter final : public SlotObserver {
   public:
    int slots = 0, ends = 0;
    void on_slot(const SlotOutcome&, std::uint64_t, std::uint64_t) override { ++slots; }
    void on_run_end(const SimResult&) override { ++ends; }
  };
  Counter a, b;
  ObserverChain chain{&a, nullptr, &b};
  FunctionSet fs = functions_constant_g(4.0);
  ComposedAdversary adv(batch_arrival(4, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 500;
  run_fast_cjz(fs, adv, cfg, &chain);
  EXPECT_EQ(a.slots, 500);
  EXPECT_EQ(b.slots, 500);
  EXPECT_EQ(a.ends, 1);
  EXPECT_EQ(b.ends, 1);
}

}  // namespace
}  // namespace cr

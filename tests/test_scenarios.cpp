// The g regime table, the scenario registry's presets, and the
// deterministic parallel replication path.
//
// The shape tests pin the documented adversary/config shapes of the three
// g regimes and the named presets; the determinism tests assert that
// parallel replicate() output is ELEMENT-WISE IDENTICAL to the serial path
// for threads ∈ {1, 2, 8} — the contract that makes --threads a pure
// speed knob on every bench.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"

namespace cr {
namespace {

// ---------------------------------------------------------------- g regimes

TEST(GRegimes, ConstantG) {
  const FunctionSet fs = functions_constant_g(4.0);
  for (const double x : {1.0, 100.0, 1e6}) EXPECT_DOUBLE_EQ(fs.g(x), 4.0);
  // f = cf·log2(x+2)/max(1, log2 g)² grows logarithmically.
  EXPECT_GT(fs.f(1 << 20), fs.f(1 << 10));
}

TEST(GRegimes, LogG) {
  const FunctionSet fs = functions_log_g();
  EXPECT_DOUBLE_EQ(fs.g(14.0), 4.0);  // log2(14+2)
  EXPECT_DOUBLE_EQ(fs.g(1022.0), 10.0);
}

TEST(GRegimes, ExpSqrtLogG) {
  const FunctionSet fs = functions_exp_sqrt_log_g(1.0);
  const double x = 1022.0;  // log2(x+2) = 10
  EXPECT_NEAR(fs.g(x), std::pow(2.0, std::sqrt(10.0)), 1e-9);
}

TEST(GRegimes, ForRegimeDispatchesByName) {
  EXPECT_DOUBLE_EQ(functions_for_regime("const", 7.0).g(100.0), 7.0);
  EXPECT_DOUBLE_EQ(functions_for_regime("log").g(14.0), functions_log_g().g(14.0));
  EXPECT_DOUBLE_EQ(functions_for_regime("exp_sqrt_log", 1.0).g(1022.0),
                   functions_exp_sqrt_log_g(1.0).g(1022.0));
}

TEST(GRegimes, TableNamesEachRegimeAndWhetherGammaScalesIt) {
  EXPECT_EQ(g_regimes().joined_names(" | "), "const | log | exp_sqrt_log");
  for (const GRegime& regime : g_regimes().entries())
    EXPECT_EQ(g_regimes().find(regime.name), &regime) << regime.name;
  EXPECT_TRUE(g_regimes().at("const").takes_scale);
  EXPECT_FALSE(g_regimes().at("log").takes_scale);
  EXPECT_TRUE(g_regimes().at("exp_sqrt_log").takes_scale);
  EXPECT_EQ(g_regimes().find("cubic"), nullptr);
}

TEST(GRegimesDeathTest, ForRegimeRejectsUnknownNames) {
  EXPECT_DEATH(functions_for_regime("cubic"), "unknown g regime \"cubic\"");
}

// ---------------------------------------------------------- preset shapes

TEST(ScenarioBuilders, WorstCaseShape) {
  const Scenario sc = ScenarioRegistry::instance().build(
      "worst_case", {.horizon = 1 << 14, .seed = 42, .jam = 0.25, .arrival_margin = 4.0});
  EXPECT_EQ(sc.config.horizon, static_cast<slot_t>(1 << 14));
  EXPECT_EQ(sc.config.seed, 42u);
  EXPECT_DOUBLE_EQ(sc.fs.g(123.0), 4.0);  // always configured for g = const
  EXPECT_EQ(sc.adversary->name(), "paced(1/4.000000f)+iid(0.250000)");
  EXPECT_EQ(sc.protocol.kind, ProtocolSpec::Kind::kCjz);
}

TEST(ScenarioBuilders, WorstCaseZeroJamUsesNoJam) {
  // g_regime is not a worst_case parameter: a log regime must not leak in.
  const Scenario sc = ScenarioRegistry::instance().build(
      "worst_case", {.horizon = 1024, .jam = 0.0, .arrival_margin = 4.0, .g_regime = "log"});
  EXPECT_EQ(sc.adversary->name(), "paced(1/4.000000f)+nojam");
  EXPECT_DOUBLE_EQ(sc.fs.g(1022.0), 4.0);
}

TEST(ScenarioBuilders, BatchShape) {
  const Scenario sc =
      ScenarioRegistry::instance().build("batch", {.horizon = 4096, .n = 48, .jam = 0.25});
  EXPECT_EQ(sc.config.horizon, 4096u);
  EXPECT_EQ(sc.adversary->name(), "batch(48)+iid(0.250000)");
  EXPECT_EQ(sc.protocol.kind, ProtocolSpec::Kind::kCjz);
}

TEST(ScenarioBuilders, SmoothShape) {
  const Scenario sc = ScenarioRegistry::instance().build(
      "smooth",
      {.horizon = 2048, .arrival_margin = 8.0, .jam_margin = 8.0, .g_regime = "log"});
  EXPECT_EQ(sc.config.horizon, 2048u);
  EXPECT_EQ(sc.adversary->name(), "paced(1/8.000000f)+paced(1/8.000000g)");
  EXPECT_DOUBLE_EQ(sc.fs.g(1022.0), functions_log_g().g(1022.0));
  EXPECT_EQ(sc.protocol.kind, ProtocolSpec::Kind::kCjz);
}

// -------------------------------------------------------- scenario registry

TEST(ScenarioRegistryTest, KnowsTheBuiltInWorkloads) {
  const auto names = ScenarioRegistry::instance().names();
  for (const char* expected :
       {"worst_case", "batch", "smooth", "bernoulli_stream", "bursty"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scenario: " << expected;
  }
  EXPECT_EQ(ScenarioRegistry::instance().find("nope"), nullptr);
}

TEST(ScenarioRegistryTest, BuildsParameterisedBatch) {
  ScenarioParams params;
  params.n = 32;
  params.jam = 0.0;
  params.horizon = 200'000;
  params.seed = 7;
  Scenario sc = ScenarioRegistry::instance().build("batch", params);
  sc.config.stop_when_empty = true;
  EXPECT_EQ(sc.config.seed, 7u);
  EXPECT_EQ(sc.adversary->name(), "batch(32)+nojam");
  const SimResult res =
      run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
  EXPECT_EQ(res.arrivals, 32u);
  EXPECT_EQ(res.successes, 32u);  // clean batch drains completely
}

TEST(ScenarioRegistryTest, EveryEntryBuildsAndRuns) {
  // Each registered workload must produce a runnable scenario with the
  // declared protocol; tiny horizons keep this a structural check.
  ScenarioParams params;
  params.horizon = 512;
  params.n = 8;
  for (const auto& name : ScenarioRegistry::instance().names()) {
    Scenario sc = ScenarioRegistry::instance().build(name, params);
    ASSERT_NE(sc.adversary, nullptr) << name;
    const SimResult res =
        run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
    EXPECT_EQ(res.slots, 512u) << name;
  }
}

TEST(ScenarioRegistryDeathTest, RejectsUnknownNames) {
  EXPECT_DEATH(ScenarioRegistry::instance().build("no_such_workload"), "unknown scenario");
}

// ------------------------------------------------- parallel determinism

SimResult run_batch_rep(std::uint64_t seed) {
  Scenario sc = ScenarioRegistry::instance().build(
      "batch", {.horizon = 100'000, .seed = seed, .n = 24, .jam = 0.25});
  sc.config.stop_when_empty = true;
  sc.config.recording = RecordingConfig::success_times();  // exercise vector payloads too
  return run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
}

TEST(ParallelReplicate, BitIdenticalToSerialForAllThreadCounts) {
  const int reps = 12;
  const std::uint64_t base = 900;
  const auto serial = replicate(reps, base, run_batch_rep, /*threads=*/1);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(reps));
  for (const int threads : {1, 2, 8}) {
    const auto parallel = replicate(reps, base, run_batch_rep, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (int r = 0; r < reps; ++r) {
      EXPECT_EQ(parallel[static_cast<std::size_t>(r)], serial[static_cast<std::size_t>(r)])
          << "threads=" << threads << " rep=" << r;
    }
  }
}

TEST(ParallelReplicate, ResultsAreSeedOrdered) {
  // With more threads than reps and an artificial reversal of finishing
  // order, results must still land at their seed's index.
  const auto results = replicate_map(
      8, 100, [](std::uint64_t seed) { return seed; }, /*threads=*/8);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], 100 + i);
}

TEST(ParallelReplicate, EveryRepRunsExactlyOnce) {
  std::atomic<int> calls{0};
  const auto results = replicate_map(
      100, 0,
      [&](std::uint64_t seed) {
        calls.fetch_add(1);
        return seed;
      },
      /*threads=*/4);
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(results.size(), 100u);
}

TEST(ParallelReplicate, FewRepsRunConcurrently) {
  // Two reps on two threads must overlap: each body waits for the other to
  // start. A scheduler that hands both reps to one worker serializes them,
  // so the first body times out (bounded, so the failure cannot hang).
  std::atomic<int> started{0};
  const auto overlapped = replicate_map(
      2, 0,
      [&](std::uint64_t) {
        started.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        return started.load() == 2 ? 1 : 0;
      },
      /*threads=*/2);
  EXPECT_EQ(overlapped, (std::vector<int>{1, 1}));
}

TEST(ParallelReplicate, ThreadCountAboveRepsIsClamped) {
  const auto results = replicate_map(
      3, 5, [](std::uint64_t seed) { return seed * 2; }, /*threads=*/64);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2], 14u);
}

}  // namespace
}  // namespace cr

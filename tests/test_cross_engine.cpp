// Cross-validation: every fast cohort engine must be statistically
// indistinguishable from the generic reference engine on the same scenarios.
// Exact trajectory coupling is impossible (different rng consumption), so we
// compare distribution summaries over many seeds — deterministic, but
// sensitive to real semantic divergence. Three layers:
//
//   1. aggregate statistics (completion times, send volumes) — the original
//      checks, now phrased through tests/stat_assert.hpp;
//   2. METRIC parity: latency_report / energy_report / successes_in_window
//      computed from fast-engine runs must match the reference engine on
//      every registry scenario both support (the fast engines attribute
//      sends, so energy is no longer generic-only);
//   3. a randomized differential fuzz sweep over ScenarioRegistry params ×
//      seeds asserting (a) bit-identical SimResult when the same engine
//      re-runs the same case, (b) exact equality of the adversary-driven
//      counters (slots/arrivals/jammed) across engines — the registry's
//      adversaries are history-blind, so both engines must consume the
//      identical 0xAD stream — and (c) full internal consistency of every
//      recorded result, node stats and slot trace included; plus the same
//      fuzz pitting fast_cjz's sweep plan path against its per-slot loop.
//
// The tests enumerate the EngineRegistry: for each spec, every compatible
// engine other than the reference is validated against it. A newly
// registered engine is pulled into these comparisons automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/engine.hpp"
#include "engine/plan_path.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"
#include "metrics/metrics.hpp"
#include "protocols/batch.hpp"
#include "stat_assert.hpp"

namespace cr {
namespace {

constexpr const char* kReference = "generic";

/// Non-reference engines that can execute `spec` (the candidates to verify).
std::vector<const Engine*> candidates(const ProtocolSpec& spec) {
  std::vector<const Engine*> out;
  for (const Engine* engine : EngineRegistry::instance().compatible(spec))
    if (engine->name() != kReference) out.push_back(engine);
  return out;
}

SimResult run_batch(const Engine& engine, const ProtocolSpec& spec, std::uint64_t n,
                    double jam, std::uint64_t seed) {
  ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
  SimConfig cfg;
  cfg.horizon = 400'000;
  cfg.seed = seed;
  cfg.stop_when_empty = true;
  return engine.run(spec, adv, cfg);
}

void compare_batch_metric(const ProtocolSpec& spec, std::uint64_t n, double jam,
                          std::uint64_t base_seed, int reps, double rel_slack,
                          const std::function<double(const SimResult&)>& metric,
                          bool expect_complete) {
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  const auto ref_runs = replicate(reps, base_seed, [&](std::uint64_t s) {
    return run_batch(reference, spec, n, jam, s);
  });
  if (expect_complete) {
    for (const auto& r : ref_runs) ASSERT_EQ(r.successes, n);
  }
  const auto m_ref = collect(ref_runs, metric);
  for (const Engine* engine : candidates(spec)) {
    const auto runs = replicate(reps, base_seed, [&](std::uint64_t s) {
      return run_batch(*engine, spec, n, jam, s);
    });
    if (expect_complete) {
      for (const auto& r : runs) ASSERT_EQ(r.successes, n) << engine->name();
    }
    const auto m_eng = collect(runs, metric);
    EXPECT_TRUE(stat::means_agree(m_ref, m_eng, /*z=*/2.0, rel_slack))
        << "engine=" << engine->name();
  }
}

TEST(CrossEngine, CjzBatchCompletionTimesAgree) {
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  ASSERT_FALSE(candidates(spec).empty());
  // Means within ~30% of each other plus sampling noise (generous; catches
  // systematic drift).
  compare_batch_metric(spec, 48, 0.0, 100, 24, 0.30,
                       [](const SimResult& r) { return double(r.last_success); },
                       /*expect_complete=*/true);
}

TEST(CrossEngine, CjzBatchSendVolumesAgree) {
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  compare_batch_metric(spec, 48, 0.0, 300, 24, 0.30,
                       [](const SimResult& r) { return double(r.total_sends); },
                       /*expect_complete=*/false);
}

TEST(CrossEngine, CjzUnderJammingAgrees) {
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  compare_batch_metric(spec, 32, 0.25, 500, 20, 0.35,
                       [](const SimResult& r) { return double(r.last_success); },
                       /*expect_complete=*/false);
}

TEST(CrossEngine, HdataBatchAgrees) {
  // h_data completion has a truncated-Pareto tail (the lone-survivor phase),
  // so means of last_success are horizon-dominated and noisy. Compare a
  // concentrated statistic instead: successes within a fixed window.
  const ProtocolSpec spec = profile_protocol(profiles::h_data());
  ASSERT_FALSE(candidates(spec).empty());
  const std::uint64_t n = 64;
  const int reps = 24;
  const slot_t window = 4096;
  auto run_windowed = [&](const Engine& engine, std::uint64_t s) {
    ComposedAdversary adv(batch_arrival(n, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = window;
    cfg.seed = s;
    return engine.run(spec, adv, cfg);
  };
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  const auto ref_runs =
      replicate(reps, 700, [&](std::uint64_t s) { return run_windowed(reference, s); });
  const auto m_ref =
      collect(ref_runs, [](const SimResult& r) { return double(r.successes); });
  for (const Engine* engine : candidates(spec)) {
    const auto runs =
        replicate(reps, 700, [&](std::uint64_t s) { return run_windowed(*engine, s); });
    const auto m_eng = collect(runs, [](const SimResult& r) { return double(r.successes); });
    EXPECT_TRUE(stat::means_agree(m_ref, m_eng, /*z=*/2.0, /*rel_slack=*/0.12,
                                  /*abs_slack=*/1.0))
        << "engine=" << engine->name();
  }
}

TEST(CrossEngine, DynamicArrivalFirstSuccessAgrees) {
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  const int reps = 24;
  auto run_one = [&](const Engine& engine, std::uint64_t s) {
    ComposedAdversary adv(bernoulli_arrivals(0.01, 1, 5000), no_jam());
    SimConfig cfg;
    cfg.horizon = 20'000;
    cfg.seed = s;
    return engine.run(spec, adv, cfg);
  };
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  const auto ref_runs =
      replicate(reps, 900, [&](std::uint64_t s) { return run_one(reference, s); });
  const auto s_ref =
      collect(ref_runs, [](const SimResult& r) { return double(r.successes); });
  for (const Engine* engine : candidates(spec)) {
    const auto runs =
        replicate(reps, 900, [&](std::uint64_t s) { return run_one(*engine, s); });
    const auto s_eng = collect(runs, [](const SimResult& r) { return double(r.successes); });
    EXPECT_TRUE(stat::means_agree(s_ref, s_eng, /*z=*/2.0, /*rel_slack=*/0.2,
                                  /*abs_slack=*/2.0))
        << "engine=" << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Metric parity: latency_report / energy_report / successes_in_window from a
// fast engine must match the reference engine, on every registry scenario.
// ---------------------------------------------------------------------------

struct MetricSample {
  Accumulator latency_mean, latency_p99, energy_mean, energy_p99, departed, window;
};

MetricSample sample_metrics(const Engine& engine, const std::string& scenario,
                            const ScenarioParams& params, int reps, std::uint64_t base_seed) {
  MetricSample out;
  const auto runs = replicate(reps, base_seed, [&](std::uint64_t s) {
    ScenarioParams p = params;
    p.seed = s;
    Scenario sc = ScenarioRegistry::instance().build(scenario, p);
    sc.config.recording = RecordingConfig::node_stats();
    EXPECT_TRUE(engine.supports(sc.protocol));
    return run_scenario(engine, sc);
  }, /*threads=*/2);
  for (const SimResult& r : runs) {
    const LatencyReport lat = latency_report(r);
    const EnergyReport energy = energy_report(r);
    out.latency_mean.add(lat.mean);
    out.latency_p99.add(lat.p99);
    out.energy_mean.add(energy.mean);
    out.energy_p99.add(energy.p99);
    out.departed.add(static_cast<double>(lat.departed));
    out.window.add(static_cast<double>(
        successes_in_window(r, 1, std::max<slot_t>(1, params.horizon / 2))));
  }
  return out;
}

TEST(CrossEngineMetrics, LatencyAndEnergyParityOnEveryRegistryScenario) {
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  const int reps = 12;
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    ScenarioParams params;
    params.horizon = 8192;
    params.n = 32;
    params.jam = 0.15;
    params.rate = 0.02;
    Scenario probe = ScenarioRegistry::instance().build(name, params);
    const auto fast_engines = candidates(probe.protocol);
    ASSERT_FALSE(fast_engines.empty()) << name;
    const MetricSample ref = sample_metrics(reference, name, params, reps, 4000);
    ASSERT_GT(ref.departed.mean(), 0.0) << name << ": scenario must produce departures";
    for (const Engine* engine : fast_engines) {
      const MetricSample fast = sample_metrics(*engine, name, params, reps, 4000);
      const std::string tag = name + "/" + engine->name();
      EXPECT_TRUE(stat::means_agree(ref.departed, fast.departed, 3.0, 0.10, 1.0)) << tag;
      EXPECT_TRUE(stat::means_agree(ref.latency_mean, fast.latency_mean, 3.0, 0.15, 1.0))
          << tag;
      EXPECT_TRUE(stat::means_agree(ref.latency_p99, fast.latency_p99, 3.0, 0.30, 4.0))
          << tag;
      EXPECT_TRUE(stat::means_agree(ref.energy_mean, fast.energy_mean, 3.0, 0.15, 0.5))
          << tag;
      EXPECT_TRUE(stat::means_agree(ref.energy_p99, fast.energy_p99, 3.0, 0.30, 2.0)) << tag;
      EXPECT_TRUE(stat::means_agree(ref.window, fast.window, 3.0, 0.15, 2.0)) << tag;
    }
  }
}

TEST(CrossEngineMetrics, ProfileProtocolEnergyParity) {
  // fast_batch vs generic on an h_data batch: per-node sends must have the
  // same distribution now that the cohort engine attributes them.
  const ProtocolSpec spec = profile_protocol(profiles::h_data());
  ASSERT_FALSE(candidates(spec).empty());
  const std::uint64_t n = 48;
  const int reps = 16;
  auto sample = [&](const Engine& engine) {
    Accumulator energy_mean, latency_mean;
    const auto runs = replicate(reps, 4400, [&](std::uint64_t s) {
      ComposedAdversary adv(batch_arrival(n, 1), no_jam());
      SimConfig cfg;
      cfg.horizon = 16'384;
      cfg.seed = s;
      cfg.recording = RecordingConfig::node_stats();
      return engine.run(spec, adv, cfg);
    }, /*threads=*/2);
    for (const SimResult& r : runs) {
      energy_mean.add(energy_report(r).mean);
      latency_mean.add(latency_report(r).mean);
    }
    return std::pair{energy_mean, latency_mean};
  };
  const auto [ref_energy, ref_latency] = sample(*EngineRegistry::instance().at(kReference));
  for (const Engine* engine : candidates(spec)) {
    const auto [fast_energy, fast_latency] = sample(*engine);
    EXPECT_TRUE(stat::means_agree(ref_energy, fast_energy, 3.0, 0.15, 0.5))
        << engine->name();
    EXPECT_TRUE(stat::means_agree(ref_latency, fast_latency, 3.0, 0.15, 2.0))
        << engine->name();
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz sweep.
// ---------------------------------------------------------------------------

void expect_internally_consistent(const SimResult& r, const std::string& tag) {
  // Success bookkeeping.
  ASSERT_EQ(r.success_times.size(), r.successes) << tag;
  EXPECT_TRUE(std::is_sorted(r.success_times.begin(), r.success_times.end())) << tag;
  if (!r.success_times.empty()) {
    EXPECT_EQ(r.success_times.front(), r.first_success) << tag;
    EXPECT_EQ(r.success_times.back(), r.last_success) << tag;
  } else {
    EXPECT_EQ(r.first_success, 0u) << tag;
  }
  // Slot trace re-derivation.
  ASSERT_EQ(r.slot_outcomes.size(), r.slots) << tag;
  std::uint64_t successes = 0, jammed = 0, sends = 0;
  for (std::size_t i = 0; i < r.slot_outcomes.size(); ++i) {
    const SlotOutcome& out = r.slot_outcomes[i];
    EXPECT_EQ(out.slot, i + 1) << tag;
    successes += out.success() ? 1 : 0;
    jammed += out.jammed ? 1 : 0;
    sends += out.senders;
    if (out.jammed) {
      EXPECT_FALSE(out.success()) << tag;
    }
    if (out.success()) {
      EXPECT_EQ(out.senders, 1u) << tag;
    }
  }
  EXPECT_EQ(successes, r.successes) << tag;
  EXPECT_EQ(jammed, r.jammed_slots) << tag;
  EXPECT_EQ(sends, r.total_sends) << tag;
  // Node-stats accounting: every arrival is either departed or stranded, and
  // attributed sends cover total_sends exactly on every engine.
  ASSERT_EQ(r.node_stats.size(), r.arrivals) << tag;
  std::uint64_t departed = 0, stranded = 0, attributed = 0;
  for (const NodeStats& ns : r.node_stats) {
    attributed += ns.sends;
    if (ns.departed()) {
      ++departed;
      EXPECT_GE(ns.departure, ns.arrival) << tag;
      EXPECT_GE(ns.latency(), 1u) << tag;
    } else {
      ++stranded;
    }
    EXPECT_GE(ns.arrival, 1u) << tag;
    EXPECT_LE(ns.arrival, r.slots) << tag;
  }
  EXPECT_EQ(departed, r.successes) << tag;
  EXPECT_EQ(stranded, r.live_at_end) << tag;
  EXPECT_EQ(attributed, r.total_sends) << tag;
}

TEST(CrossEngineFuzz, RandomizedRegistrySweep) {
  // ~200 randomized (workload, params, seed) cases. Each case runs the
  // reference engine and the preferred fast engine at the kFullTrace tier,
  // re-runs both (bit-identical SimResult expected), and re-runs the fast
  // engine with recording off (aggregates must not move: recording is pure
  // observation). Horizons are small so the whole sweep stays well under
  // the 5s budget.
  const std::vector<std::string> workloads = ScenarioRegistry::instance().names();
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  Rng fuzz(0xF0220721u);
  const char* regimes[] = {"const", "log", "exp_sqrt_log"};
  const int kCases = 200;
  for (int c = 0; c < kCases; ++c) {
    ScenarioParams p;
    p.horizon = 256 + fuzz.uniform_u64(768);
    p.seed = fuzz.next_u64();
    p.n = 1 + fuzz.uniform_u64(24);
    p.jam = (c % 3 == 0) ? 0.4 * fuzz.uniform01() : 0.0;
    p.rate = 0.08 * fuzz.uniform01();
    p.arrival_margin = 4.0 + 12.0 * fuzz.uniform01();
    p.jam_margin = 4.0 + 8.0 * fuzz.uniform01();
    p.g_regime = regimes[fuzz.uniform_u64(3)];
    p.gamma = (p.g_regime == std::string("exp_sqrt_log")) ? 1.0 : 2.0 + 4.0 * fuzz.uniform01();
    const std::string& workload = workloads[static_cast<std::size_t>(c) % workloads.size()];
    const std::string tag =
        workload + " case=" + std::to_string(c) + " seed=" + std::to_string(p.seed);

    auto run_on = [&](const Engine& engine, RecordingConfig recording) {
      Scenario sc = ScenarioRegistry::instance().build(workload, p);
      sc.config.recording = recording;
      return run_scenario(engine, sc);
    };
    Scenario probe = ScenarioRegistry::instance().build(workload, p);
    const auto fast_engines = candidates(probe.protocol);
    ASSERT_FALSE(fast_engines.empty()) << tag;
    const Engine& fast = *fast_engines.front();

    const SimResult ref = run_on(reference, RecordingConfig::full_trace());
    const SimResult fst = run_on(fast, RecordingConfig::full_trace());

    // (a) determinism: same engine, same case -> bit-identical result.
    EXPECT_EQ(ref, run_on(reference, RecordingConfig::full_trace())) << tag;
    EXPECT_EQ(fst, run_on(fast, RecordingConfig::full_trace())) << tag;

    // (b) the adversary stream is engine-independent for the registry's
    // history-blind adversaries: these counters must match EXACTLY.
    // (ASSERT: the per-slot loop below indexes both traces by ref.slots.)
    ASSERT_EQ(ref.slots, fst.slots) << tag;
    EXPECT_EQ(ref.arrivals, fst.arrivals) << tag;
    EXPECT_EQ(ref.jammed_slots, fst.jammed_slots) << tag;
    // Jam decisions land on the same slots in both traces.
    for (slot_t s = 0; s < ref.slots; ++s)
      ASSERT_EQ(ref.slot_outcomes[s].jammed, fst.slot_outcomes[s].jammed) << tag;

    // (c) every recorded result is internally consistent.
    expect_internally_consistent(ref, tag + " [generic]");
    expect_internally_consistent(fst, tag + " [" + fast.name() + "]");

    // (d) recording tiers are pure observation: aggregates identical with
    // recording off.
    const SimResult bare = run_on(fast, RecordingConfig::none());
    EXPECT_EQ(bare.slots, fst.slots) << tag;
    EXPECT_EQ(bare.successes, fst.successes) << tag;
    EXPECT_EQ(bare.total_sends, fst.total_sends) << tag;
    EXPECT_EQ(bare.first_success, fst.first_success) << tag;
    EXPECT_EQ(bare.last_success, fst.last_success) << tag;
    EXPECT_EQ(bare.active_slots, fst.active_slots) << tag;
    EXPECT_EQ(bare.live_at_end, fst.live_at_end) << tag;
  }
}

TEST(CrossEngineFuzz, LockstepRandomizedSweep) {
  // The sweep plan path (engine/plan_path.hpp) against the per-slot loop it
  // stands in for: on ~100 randomized registry cases, a fast_cjz sweep
  // through replicate_scenario must reproduce the per-seed single runs field
  // for field, node stats included. Only where the analytic tail can fire
  // (an i.i.d. jammer past the plan's quiet point) does jammed_slots match
  // in distribution instead of exactly.
  const std::vector<std::string> workloads = ScenarioRegistry::instance().names();
  const Engine& fast = *EngineRegistry::instance().at("fast_cjz");
  Rng fuzz(0x10C857E9u);
  const char* regimes[] = {"const", "log", "exp_sqrt_log"};
  const int kCases = 100;
  const int kReps = 3;
  for (int c = 0; c < kCases; ++c) {
    ScenarioParams p;
    p.horizon = 256 + fuzz.uniform_u64(768);
    p.seed = fuzz.next_u64();
    p.n = 1 + fuzz.uniform_u64(24);
    p.jam = (c % 3 == 0) ? 0.4 * fuzz.uniform01() : 0.0;
    p.rate = 0.08 * fuzz.uniform01();
    p.arrival_margin = 4.0 + 12.0 * fuzz.uniform01();
    p.jam_margin = 4.0 + 8.0 * fuzz.uniform01();
    p.g_regime = regimes[fuzz.uniform_u64(3)];
    p.gamma = (p.g_regime == std::string("exp_sqrt_log")) ? 1.0 : 2.0 + 4.0 * fuzz.uniform01();
    const std::string& workload = workloads[static_cast<std::size_t>(c) % workloads.size()];
    const std::string tag =
        workload + " plan case=" + std::to_string(c) + " seed=" + std::to_string(p.seed);

    // Every registry preset composes plannable components.
    const AdversaryPlan plan = adversary_plan(scenario_preset_workload(workload, p));
    ASSERT_TRUE(plan.valid) << tag;
    const bool tail_may_fire = plan.tail_jam > 0.0 && plan.quiet_after < p.horizon;

    SimConfig config;
    config.recording = c % 2 == 0 ? RecordingConfig::node_stats() : RecordingConfig::none();
    const auto sweep = replicate_scenario(fast, workload, p, kReps, p.seed, 2, config);
    ASSERT_EQ(sweep.size(), static_cast<std::size_t>(kReps)) << tag;
    for (int r = 0; r < kReps; ++r) {
      ScenarioParams per = p;
      per.seed = p.seed + static_cast<std::uint64_t>(r);
      Scenario sc = ScenarioRegistry::instance().build(workload, per);
      sc.config.recording = config.recording;
      const SimResult single = run_scenario(fast, sc);
      SimResult got = sweep[static_cast<std::size_t>(r)];
      if (tail_may_fire) got.jammed_slots = single.jammed_slots;
      EXPECT_EQ(got, single) << tag << " rep " << r;
      EXPECT_EQ(got.slots, p.horizon) << tag << " rep " << r;
      EXPECT_EQ(got.successes + got.live_at_end, got.arrivals) << tag << " rep " << r;
    }
  }
}

/// The differential contract for fast_batch on `spec` (its specs are not in
/// the scenario registry, which is CJZ-flavoured): `cases` randomized batches
/// with and without jamming. Per case the adversary counters match the
/// reference engine's exactly, both engines' full-trace results are
/// internally consistent, the fast engine reruns bit-identically, and every
/// recording tier leaves its trajectory untouched.
void fast_batch_fuzz(const ProtocolSpec& spec, std::uint64_t fuzz_seed, int cases) {
  const Engine& reference = *EngineRegistry::instance().at(kReference);
  const auto fast_engines = candidates(spec);
  ASSERT_FALSE(fast_engines.empty());
  const Engine& fast = *fast_engines.front();
  Rng fuzz(fuzz_seed);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t n = 1 + fuzz.uniform_u64(32);
    const slot_t horizon = 256 + fuzz.uniform_u64(768);
    const double jam = (c % 2 == 0) ? 0.3 * fuzz.uniform01() : 0.0;
    const std::uint64_t seed = fuzz.next_u64();
    const std::string tag = spec.label + " case=" + std::to_string(c);
    auto run_on = [&](const Engine& engine, RecordingConfig recording) {
      ComposedAdversary adv(batch_arrival(n, 1 + (c % 5)),
                            jam > 0 ? iid_jammer(jam) : no_jam());
      SimConfig cfg;
      cfg.horizon = horizon;
      cfg.seed = seed;
      cfg.recording = recording;
      return engine.run(spec, adv, cfg);
    };
    const SimResult ref = run_on(reference, RecordingConfig::full_trace());
    const SimResult fst = run_on(fast, RecordingConfig::full_trace());
    EXPECT_EQ(fst, run_on(fast, RecordingConfig::full_trace())) << tag;
    EXPECT_EQ(ref.slots, fst.slots) << tag;
    EXPECT_EQ(ref.arrivals, fst.arrivals) << tag;
    EXPECT_EQ(ref.jammed_slots, fst.jammed_slots) << tag;
    expect_internally_consistent(ref, tag + " [generic]");
    expect_internally_consistent(fst, tag + " [" + fast.name() + "]");
    for (const RecordingConfig tier : {RecordingConfig::none(), RecordingConfig::success_times(),
                                       RecordingConfig::node_stats()}) {
      const SimResult lower = run_on(fast, tier);
      const std::string tier_tag = tag + " tier=" + std::to_string(static_cast<int>(tier.tier));
      EXPECT_EQ(lower.successes, fst.successes) << tier_tag;
      EXPECT_EQ(lower.total_sends, fst.total_sends) << tier_tag;
      EXPECT_EQ(lower.first_success, fst.first_success) << tier_tag;
      EXPECT_EQ(lower.last_success, fst.last_success) << tier_tag;
      EXPECT_EQ(lower.active_slots, fst.active_slots) << tier_tag;
      EXPECT_EQ(lower.live_at_end, fst.live_at_end) << tier_tag;
      if (tier.wants_success_times()) {
        EXPECT_EQ(lower.success_times, fst.success_times) << tier_tag;
      }
      if (tier.wants_node_stats()) {
        EXPECT_EQ(lower.node_stats, fst.node_stats) << tier_tag;
      }
    }
  }
}

TEST(CrossEngineFuzz, ProfileEngineRandomizedSweep) {
  fast_batch_fuzz(profile_protocol(profiles::h_data()), 0xBA7C4u, 60);
}

TEST(CrossEngineFuzz, CdBackonRandomizedSweep) {
  fast_batch_fuzz(cd_backon_protocol({}), 0xCDBAC0u, 60);
  fast_batch_fuzz(cd_backon_protocol({.collision_detection = false}), 0xCDBAC1u, 60);
}

}  // namespace
}  // namespace cr

// Tests for the composable WorkloadSpec API (src/exp/workload.hpp) and the
// typed component registries behind it (src/adversary/component_registry.hpp,
// src/adversary/param_schema.hpp):
//
//   * ParamSchema validation — unknown/ill-typed/duplicated/out-of-bound
//     parameters are hard errors naming the offending key; defaults resolve;
//   * flat-form parse/serialize round-trips and its hard-error cases
//     (unknown keys, unknown components, gamma under g=log);
//   * preset parity — the five registered scenario builders, now thin
//     presets over WorkloadSpec, produce byte-identical SimResults to the
//     direct hand-built compositions they replaced;
//   * suite integration — a manifest cell carrying an unconsumed or
//     out-of-range workload or scenario parameter fails at parse time,
//     naming the key;
//   * the CLI — an out-of-range parameter exits 2 naming it and its bound.
#include "exp/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "adversary/arrivals.hpp"
#include "adversary/component_registry.hpp"
#include "adversary/jammers.hpp"
#include "cli/bench_registry.hpp"
#include "cli/suite.hpp"
#include "common/json.hpp"
#include "exp/scenarios.hpp"

namespace cr {
namespace {

using KV = std::vector<std::pair<std::string, std::string>>;

// --- ParamSchema -----------------------------------------------------------

const ParamSchema& test_schema() {
  static const ParamSchema schema = {
      {"n", ParamType::kUint, "256", "batch size"},
      {"rate", ParamType::kDouble, "0.5", "probability"},
  };
  return schema;
}

TEST(ParamSchema, DefaultsResolveWhenUnset) {
  const auto checked = ParamValidation::check(test_schema(), {}, "arrival \"x\"");
  ASSERT_TRUE(checked.ok()) << checked.error;
  EXPECT_EQ(checked.values.as_uint("n"), 256u);
  EXPECT_DOUBLE_EQ(checked.values.as_double("rate"), 0.5);
}

TEST(ParamSchema, SuppliedValuesOverrideDefaults) {
  const auto checked =
      ParamValidation::check(test_schema(), {{"n", "7"}, {"rate", "0.125"}}, "arrival \"x\"");
  ASSERT_TRUE(checked.ok()) << checked.error;
  EXPECT_EQ(checked.values.as_uint("n"), 7u);
  EXPECT_DOUBLE_EQ(checked.values.as_double("rate"), 0.125);
}

TEST(ParamSchema, UnknownParamNamesTheKey) {
  const auto checked = ParamValidation::check(test_schema(), {{"rat", "0.5"}}, "arrival \"x\"");
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.error.find("\"rat\""), std::string::npos) << checked.error;
  EXPECT_NE(checked.error.find("did you mean \"rate\""), std::string::npos) << checked.error;
}

TEST(ParamSchema, IllTypedValueIsAnError) {
  const auto bad_uint =
      ParamValidation::check(test_schema(), {{"n", "-3"}}, "arrival \"x\"");
  EXPECT_FALSE(bad_uint.ok());
  EXPECT_NE(bad_uint.error.find("\"n\""), std::string::npos) << bad_uint.error;
  const auto bad_double =
      ParamValidation::check(test_schema(), {{"rate", "fast"}}, "arrival \"x\"");
  EXPECT_FALSE(bad_double.ok());
  const auto duplicate = ParamValidation::check(
      test_schema(), {{"n", "1"}, {"n", "2"}}, "arrival \"x\"");
  EXPECT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.error.find("twice"), std::string::npos) << duplicate.error;
}

TEST(ParamSchema, BoundsHoldForEveryValueInForce) {
  static const ParamSchema schema = {
      {"rate", ParamType::kDouble, "0.5", "probability", {.min = 0, .max = 1}},
      {"margin", ParamType::kDouble, "4", "margin", {.min = 0, .min_open = true}},
      {"period", ParamType::kUint, "8", "cycle", {.min = 1}},
      {"burst", ParamType::kUint, "2", "per cycle", {.max_param = "period"}},
  };
  const auto check = [](const KV& params) {
    return ParamValidation::check(schema, params, "jammer \"x\"").error;
  };
  EXPECT_EQ(check({}), "");
  EXPECT_EQ(check({{"rate", "1"}, {"margin", "1e-9"}, {"period", "1"}, {"burst", "1"}}), "");
  EXPECT_EQ(check({{"rate", "-0.5"}}),
            "jammer \"x\": parameter \"rate\" must be >= 0, got \"-0.5\"");
  EXPECT_EQ(check({{"rate", "2"}}), "jammer \"x\": parameter \"rate\" must be <= 1, got \"2\"");
  EXPECT_EQ(check({{"margin", "0"}}),
            "jammer \"x\": parameter \"margin\" must be > 0, got \"0\"");
  EXPECT_EQ(check({{"period", "0"}}),
            "jammer \"x\": parameter \"period\" must be >= 1, got \"0\"");
  // The bound on another parameter reads its value in force: the default
  // burst (2) breaks it when only the period is lowered.
  EXPECT_EQ(check({{"period", "1"}}),
            "jammer \"x\": parameter \"burst\" must be <= period (1), got \"2\"");
  EXPECT_EQ(bound_text(schema.defs()[0].bound), ">= 0, <= 1");
  EXPECT_EQ(bound_text(schema.defs()[1].bound), "> 0");
  EXPECT_EQ(bound_text(schema.defs()[3].bound), "<= period");
  EXPECT_EQ(bound_text({}), "");
}

TEST(ParamSchema, ScalarTextParsers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_uint_text("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(parse_uint_text("18446744073709551616", &u));  // overflow
  EXPECT_FALSE(parse_uint_text("1.5", &u));
  EXPECT_FALSE(parse_uint_text("", &u));
  double d = 0.0;
  EXPECT_TRUE(parse_double_text("-2.5e-3", &d));
  EXPECT_DOUBLE_EQ(d, -2.5e-3);
  EXPECT_FALSE(parse_double_text("1e999", &d));  // non-finite
  EXPECT_FALSE(parse_double_text("1x", &d));
  // double_param_text round-trips exactly.
  for (const double v : {4.0, 0.1, 1.0 / 3.0, 1e-17}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double_text(double_param_text(v), &back));
    EXPECT_EQ(back, v);
  }
}

// --- component registries --------------------------------------------------

TEST(ComponentRegistries, BuiltinsRegistered) {
  const auto arrivals = ArrivalRegistry::instance().names();
  for (const char* name :
       {"none", "batch", "bernoulli", "uniform_random", "paced", "bursty"})
    EXPECT_NE(std::find(arrivals.begin(), arrivals.end(), name), arrivals.end()) << name;
  const auto jammers = JammerRegistry::instance().names();
  for (const char* name :
       {"none", "iid", "prefix", "periodic", "budget_paced", "reactive"})
    EXPECT_NE(std::find(jammers.begin(), jammers.end(), name), jammers.end()) << name;
  EXPECT_EQ(ArrivalRegistry::instance().find("nope"), nullptr);
  EXPECT_EQ(JammerRegistry::instance().find("nope"), nullptr);
}

TEST(ComponentRegistries, EverySchemaDefaultValidates) {
  for (const ArrivalEntry& entry : ArrivalRegistry::instance().entries()) {
    const auto checked =
        ParamValidation::check(entry.schema, {}, "arrival \"" + entry.name + "\"");
    EXPECT_TRUE(checked.ok()) << entry.name << ": " << checked.error;
  }
  for (const JammerEntry& entry : JammerRegistry::instance().entries()) {
    const auto checked =
        ParamValidation::check(entry.schema, {}, "jammer \"" + entry.name + "\"");
    EXPECT_TRUE(checked.ok()) << entry.name << ": " << checked.error;
  }
}

// --- flat form -------------------------------------------------------------

TEST(WorkloadParse, FullFormParses) {
  const auto parsed = parse_workload({{"arrival", "bernoulli"},
                                      {"arrival.rate", "0.2"},
                                      {"jammer", "iid"},
                                      {"jammer.fraction", "0.3"},
                                      {"g", "exp_sqrt_log"},
                                      {"gamma", "2"},
                                      {"protocol", "cjz"},
                                      {"horizon", "8192"}});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.spec.arrival.name, "bernoulli");
  ASSERT_EQ(parsed.spec.arrival.params.size(), 1u);
  EXPECT_EQ(parsed.spec.arrival.params[0], (std::pair<std::string, std::string>{"rate", "0.2"}));
  EXPECT_EQ(parsed.spec.jammer.name, "iid");
  EXPECT_EQ(parsed.spec.g_regime, "exp_sqrt_log");
  EXPECT_TRUE(parsed.spec.gamma_set);
  EXPECT_DOUBLE_EQ(parsed.spec.gamma, 2.0);
  EXPECT_EQ(parsed.spec.horizon, 8192u);
}

TEST(WorkloadParse, UnknownTopLevelKeyNamesTheKey) {
  const auto parsed = parse_workload({{"arival", "batch"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("\"arival\""), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("did you mean \"arrival\""), std::string::npos) << parsed.error;
}

TEST(WorkloadParse, UnconsumedComponentParamNamesTheKey) {
  const auto parsed = parse_workload({{"arrival", "batch"}, {"arrival.rate", "0.5"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("\"rate\""), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("batch"), std::string::npos) << parsed.error;
}

TEST(WorkloadParse, UnknownComponentSuggests) {
  const auto parsed = parse_workload({{"jammer", "reactiv"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("did you mean \"reactive\""), std::string::npos) << parsed.error;
}

TEST(WorkloadParse, GammaUnderLogRegimeIsAnError) {
  const auto parsed = parse_workload({{"g", "log"}, {"gamma", "3"}});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("\"gamma\""), std::string::npos) << parsed.error;
  // Without the explicit gamma the same regime is fine.
  EXPECT_TRUE(parse_workload({{"g", "log"}}).ok());
}

TEST(WorkloadParse, MoreHardErrors) {
  EXPECT_FALSE(parse_workload({{"horizon", "0"}}).ok());
  EXPECT_FALSE(parse_workload({{"horizon", "-1"}}).ok());
  EXPECT_FALSE(parse_workload({{"gamma", "abc"}}).ok());
  EXPECT_FALSE(parse_workload({{"g", "cubic"}}).ok());
  EXPECT_FALSE(parse_workload({{"protocol", "tcp"}}).ok());
  EXPECT_FALSE(parse_workload({{"arrival", "batch"}, {"arrival", "paced"}}).ok());
  EXPECT_FALSE(parse_workload({{"seed", "1"}}).ok());  // runner-owned, not a flat key
}

TEST(WorkloadParse, RoundTripsThroughFlags) {
  WorkloadSpec spec;
  spec.arrival = {"bursty", {{"period", "512"}, {"burst", "32"}}};
  spec.jammer = {"reactive", {{"margin", "6.5"}, {"burst", "3"}}};
  spec.g_regime = "exp_sqrt_log";
  spec.gamma = 1.0 / 3.0;
  spec.gamma_set = true;
  spec.protocol = "h_backoff";
  spec.horizon = 12345;
  const auto parsed = parse_workload(workload_to_flags(spec));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.spec, spec);

  const auto parsed_default = parse_workload(workload_to_flags(WorkloadSpec{}));
  ASSERT_TRUE(parsed_default.ok()) << parsed_default.error;
  EXPECT_EQ(parsed_default.spec, WorkloadSpec{});
}

TEST(WorkloadBuild, DeterministicPerSeed) {
  WorkloadSpec spec;
  spec.arrival = {"bernoulli", {{"rate", "0.2"}}};
  spec.jammer = {"iid", {{"fraction", "0.2"}}};
  spec.horizon = 4096;
  spec.seed = 11;
  const auto run_once = [&] {
    Scenario sc = build_workload(spec);
    return run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.jammed_slots, b.jammed_slots);
  EXPECT_EQ(a.total_sends, b.total_sends);
  EXPECT_GT(a.arrivals, 0u);
}

TEST(WorkloadBuild, EveryProtocolRunsOnSomeEngine) {
  for (const std::string& protocol : workload_protocols().names()) {
    WorkloadSpec spec;
    spec.arrival = {"batch", {{"n", "16"}}};
    spec.protocol = protocol;
    spec.horizon = 1024;
    Scenario sc = build_workload(spec);
    const SimResult r = run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
    EXPECT_EQ(r.arrivals, 16u) << protocol;
  }
}

// --- preset parity ---------------------------------------------------------

/// Hand-builds the scenario exactly the way the pre-WorkloadSpec builders
/// composed it (direct arrivals/jammers calls), so the registry path is
/// checked against an independent construction.
Scenario legacy_build(const std::string& name, const ScenarioParams& p) {
  Scenario sc;
  if (name == "worst_case") {
    sc.fs = functions_constant_g(4.0);
    sc.adversary = std::make_unique<ComposedAdversary>(
        paced_arrivals(sc.fs, p.arrival_margin),
        p.jam > 0.0 ? iid_jammer(p.jam) : no_jam());
  } else if (name == "batch") {
    sc.fs = functions_for_regime(p.g_regime, p.gamma);
    sc.adversary = std::make_unique<ComposedAdversary>(
        batch_arrival(p.n, 1), p.jam > 0.0 ? iid_jammer(p.jam) : no_jam());
  } else if (name == "smooth") {
    sc.fs = functions_for_regime(p.g_regime, p.gamma);
    sc.adversary = std::make_unique<ComposedAdversary>(
        paced_arrivals(sc.fs, p.arrival_margin), budget_paced_jammer(sc.fs.g, p.jam_margin));
  } else if (name == "bernoulli_stream") {
    sc.fs = functions_for_regime(p.g_regime, p.gamma);
    sc.adversary = std::make_unique<ComposedAdversary>(
        bernoulli_arrivals(p.rate, 1, p.horizon),
        p.jam > 0.0 ? iid_jammer(p.jam) : no_jam());
  } else if (name == "bursty") {
    sc.fs = functions_for_regime(p.g_regime, p.gamma);
    const double ft = sc.fs.f(static_cast<double>(p.horizon));
    const auto period = static_cast<slot_t>(
        std::max(1.0, std::ceil(p.arrival_margin * static_cast<double>(p.n) * ft)));
    sc.adversary = std::make_unique<ComposedAdversary>(
        bursty_arrivals(period, p.n), budget_paced_jammer(sc.fs.g, p.jam_margin));
  } else {
    ADD_FAILURE() << "unknown legacy scenario " << name;
  }
  sc.config.horizon = p.horizon;
  sc.config.seed = p.seed;
  sc.protocol = cjz_protocol(sc.fs);
  return sc;
}

void expect_identical(const SimResult& a, const SimResult& b, const std::string& context) {
  EXPECT_EQ(a.slots, b.slots) << context;
  EXPECT_EQ(a.arrivals, b.arrivals) << context;
  EXPECT_EQ(a.successes, b.successes) << context;
  EXPECT_EQ(a.jammed_slots, b.jammed_slots) << context;
  EXPECT_EQ(a.total_sends, b.total_sends) << context;
  EXPECT_EQ(a.live_at_end, b.live_at_end) << context;
  EXPECT_EQ(a.success_times, b.success_times) << context;
  // SlotOutcome has defaulted operator== — the full traces must match
  // slot-for-slot (senders, jam pattern, winner).
  EXPECT_EQ(a.slot_outcomes, b.slot_outcomes) << context;
}

TEST(PresetParity, RegistryPresetsMatchLegacyCompositionsByteForByte) {
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      ScenarioParams p;
      p.horizon = 4096;
      p.seed = seed;
      p.n = 64;
      Scenario preset = ScenarioRegistry::instance().build(name, p);
      Scenario legacy = legacy_build(name, p);
      EXPECT_EQ(preset.adversary->name(), legacy.adversary->name()) << name;
      preset.config.recording = RecordingConfig::full_trace();
      legacy.config.recording = RecordingConfig::full_trace();
      const Engine& engine = EngineRegistry::instance().preferred(preset.protocol);
      const SimResult a = run_scenario(engine, preset);
      const SimResult b = run_scenario(engine, legacy);
      expect_identical(a, b, name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(PresetParity, PresetWorkloadsSerializeToValidFlatForms) {
  // Every preset's WorkloadSpec must survive the flat form unchanged — so
  // any legacy scenario sweep is also a valid suite workload sweep.
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    ScenarioParams p;
    p.horizon = 2048;
    p.jam = 0.25;
    const WorkloadSpec spec = scenario_preset_workload(name, p);
    EXPECT_EQ(validate_workload(spec), "") << name;
    const auto parsed = parse_workload(workload_to_flags(spec));
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
    EXPECT_EQ(parsed.spec, spec) << name;
  }
}

// --- suite integration -----------------------------------------------------

SuiteLoadResult parse_manifest(const std::string& text) {
  const JsonParseResult json = JsonValue::parse(text);
  EXPECT_TRUE(json.ok()) << json.error;
  return parse_suite(*json.value, "test-manifest");
}

TEST(WorkloadSuite, ComponentGridValidates) {
  const auto loaded = parse_manifest(R"({
    "name": "w",
    "cells": [{"bench": "workload",
               "grid": {"arrival": ["batch", "paced"], "jammer": ["none", "iid"]}},
              {"bench": "workload",
               "grid": {"jammer": ["iid"], "jammer.fraction": [0.1, 0.25]}}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(expand_suite(loaded.spec).size(), 6u);
}

TEST(WorkloadSuite, ParamAxisCrossedWithNonConsumingComponentFails) {
  // jammer=none × jammer.fraction is exactly the cell-level no-op the
  // validator bans: the axis must be split per component.
  const auto loaded = parse_manifest(R"({
    "name": "w",
    "cells": [{"bench": "workload",
               "grid": {"jammer": ["none", "iid"], "jammer.fraction": [0.25]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("\"fraction\""), std::string::npos) << loaded.error;
}

TEST(WorkloadSuite, UnconsumedWorkloadParamFailsAtParseTimeNamingTheKey) {
  const auto loaded = parse_manifest(R"({
    "name": "w",
    "cells": [{"bench": "workload",
               "grid": {"arrival": ["batch"], "arrival.rate": [0.5]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("\"rate\""), std::string::npos) << loaded.error;
}

TEST(WorkloadSuite, UnknownComponentParamAxisIsRejectedUpFront) {
  const auto loaded = parse_manifest(R"({
    "name": "w",
    "cells": [{"bench": "workload", "grid": {"arrivals": ["batch"]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("arrivals"), std::string::npos) << loaded.error;
}

TEST(WorkloadSuite, EngineAxisFailsAtParseTime) {
  // Every workload runs on preferred(): an engine is not a workload key.
  for (const char* bench : {"workload", "scenario"}) {
    const auto loaded = parse_manifest(std::string(R"({"name": "w", "cells": [{"bench": ")") +
                                       bench + R"(", "grid": {"engine": ["generic"]}}]})");
    ASSERT_FALSE(loaded.ok()) << bench;
    EXPECT_NE(loaded.error.find("\"engine\""), std::string::npos) << loaded.error;
  }
}

TEST(ScenarioSuite, UnconsumedScenarioParamFailsAtParseTimeNamingTheKey) {
  const auto loaded = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario",
               "grid": {"scenario": ["smooth"], "jam": [0.25]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("--jam"), std::string::npos) << loaded.error;
  EXPECT_NE(loaded.error.find("smooth"), std::string::npos) << loaded.error;
}

TEST(ScenarioSuite, GammaUnderLogRegimeFailsLikeTheWorkloadPath) {
  // batch consumes gamma in general, but g_regime=log has no scale — the
  // preset path must reject the combination exactly like parse_workload.
  const auto loaded = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario",
               "grid": {"scenario": ["batch"], "g_regime": ["log"], "gamma": [2, 8]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("--gamma"), std::string::npos) << loaded.error;
  // Same axes under const-g remain valid.
  const auto const_g = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario",
               "grid": {"scenario": ["batch"], "g_regime": ["const"], "gamma": [2, 8]}}]})");
  EXPECT_TRUE(const_g.ok()) << const_g.error;
}

TEST(ScenarioSuite, UnknownGRegimeFailsAtParseTimeListingTheTable) {
  const auto loaded = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario", "grid": {"scenario": ["batch"], "g_regime": ["cubic"]}}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(
      loaded.error.find("unknown g regime \"cubic\"; known g regimes: const log exp_sqrt_log"),
      std::string::npos)
      << loaded.error;
}

TEST(ScenarioSuite, OutOfRangeParamFailsAtParseTimeNamingTheBound) {
  // The preset's WorkloadSpec is validated, component bounds included.
  const auto jam = parse_manifest(R"({
    "name": "s", "cells": [{"bench": "scenario", "grid": {"jam": [0.25, 2]}}]})");
  ASSERT_FALSE(jam.ok());
  EXPECT_NE(jam.error.find("jammer \"iid\": parameter \"fraction\" must be <= 1, got \"2\""),
            std::string::npos)
      << jam.error;
  const auto margin = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario", "grid": {"scenario": ["smooth"], "arrival_margin": [0]}}]})");
  ASSERT_FALSE(margin.ok());
  EXPECT_NE(margin.error.find("parameter \"margin\" must be > 0"), std::string::npos)
      << margin.error;
  const auto gamma = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario", "grid": {"scenario": ["bursty"], "gamma": [0]}}]})");
  ASSERT_FALSE(gamma.ok());
  EXPECT_NE(gamma.error.find("\"gamma\" must be > 0 when g=const"), std::string::npos)
      << gamma.error;
  const auto text = parse_manifest(R"({
    "name": "s", "cells": [{"bench": "scenario", "grid": {"jam": ["abc"]}}]})");
  ASSERT_FALSE(text.ok());
  EXPECT_NE(text.error.find("parameter \"jam\" expects a double, got \"abc\""),
            std::string::npos)
      << text.error;
  const auto rate = parse_manifest(R"({
    "name": "w",
    "cells": [{"bench": "workload",
               "grid": {"arrival": ["bernoulli"], "arrival.rate": [-1]}}]})");
  ASSERT_FALSE(rate.ok());
  EXPECT_NE(rate.error.find("parameter \"rate\" must be >= 0"), std::string::npos)
      << rate.error;
}

TEST(ScenarioSuite, ConsumedParamsStillPass) {
  const auto loaded = parse_manifest(R"({
    "name": "s",
    "cells": [{"bench": "scenario",
               "grid": {"scenario": ["smooth", "bursty"], "jam_margin": [8, 32]}}]})");
  EXPECT_TRUE(loaded.ok()) << loaded.error;
}

TEST(WorkloadSuite, SuggestsBenchNameOnTypo) {
  const auto loaded =
      parse_manifest(R"({"name": "s", "cells": [{"bench": "worklod"}]})");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("did you mean \"workload\""), std::string::npos) << loaded.error;
}

// --- the CLI ------------------------------------------------------------------

/// `text` as a POSIX extended regex that matches it literally.
std::string literal_regex(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::string_view("\\^$.|?*+()[]{}").find(c) != std::string_view::npos) out += '\\';
    out += c;
  }
  return out;
}

TEST(ParamBounds, BenchesExitTwoNamingTheParameterAndItsBound) {
  // Each value must make the bench's driver exit 2 before any run, naming
  // the parameter and its bound, rather than reach a component's
  // constructor (CR_CHECK).
  const struct {
    const char* bench;
    std::vector<std::string> flags;
    std::string message;
  } cases[] = {
      {"scenario", {"--jam=2"}, "jammer \"iid\": parameter \"fraction\" must be <= 1, got \"2\""},
      {"scenario", {"--jam=-1"}, "jammer \"iid\": parameter \"fraction\" must be >= 0"},
      {"workload",
       {"--jammer=iid", "--jammer.fraction=2"},
       "jammer \"iid\": parameter \"fraction\" must be <= 1"},
      {"workload",
       {"--arrival=bernoulli", "--arrival.rate=-1"},
       "arrival \"bernoulli\": parameter \"rate\" must be >= 0, got \"-1\""},
      {"scenario",
       {"--scenario=smooth", "--arrival_margin=0"},
       "arrival \"paced\": parameter \"margin\" must be > 0, got \"0\""},
      {"scenario",
       {"--scenario=smooth", "--jam_margin=-1"},
       "jammer \"budget_paced\": parameter \"margin\" must be > 0, got \"-1\""},
      {"workload",
       {"--arrival=bursty", "--arrival.period=0"},
       "arrival \"bursty\": parameter \"period\" must be >= 1, got \"0\""},
      {"scenario", {"--gamma=0"}, "workload key \"gamma\" must be > 0 when g=const, got 0"},
      {"scenario",
       {"--scenario=bursty", "--gamma=0"},
       "workload key \"gamma\" must be > 0 when g=const, got 0"},
      {"workload",
       {"--g=exp_sqrt_log", "--gamma=-1"},
       "workload key \"gamma\" must be > 0 when g=exp_sqrt_log, got -1"},
      {"workload",
       {"--jammer=periodic", "--jammer.period=4", "--jammer.burst=9"},
       "jammer \"periodic\": parameter \"burst\" must be <= period (4), got \"9\""},
  };
  for (const auto& c : cases) {
    std::vector<std::string> args = {"--quick", "--reps=1", "--threads=1"};
    args.insert(args.end(), c.flags.begin(), c.flags.end());
    EXPECT_EXIT(BenchRegistry::instance().run(c.bench, args), ::testing::ExitedWithCode(2),
                literal_regex("cr bench " + std::string(c.bench) + ": " + c.message))
        << c.bench << " " << c.flags.back();
  }
}

}  // namespace
}  // namespace cr

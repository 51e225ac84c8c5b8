#include "exp/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "adversary/param_schema.hpp"
#include "common/check.hpp"
#include "exp/workload.hpp"

namespace cr {

FunctionSet functions_constant_g(double gamma) {
  FunctionSet fs;
  fs.g = fn::constant(gamma);
  return fs;
}

FunctionSet functions_log_g() {
  FunctionSet fs;
  fs.g = fn::log2p(1.0);
  return fs;
}

FunctionSet functions_exp_sqrt_log_g(double scale) {
  FunctionSet fs;
  fs.g = fn::exp_sqrt_log(scale);
  return fs;
}

const Registry<GRegime>& g_regimes() {
  static const Registry<GRegime> table(
      "g regime", "g regimes",
      {{"const", functions_constant_g, true},
       {"log", [](double) { return functions_log_g(); }, false},
       {"exp_sqrt_log", functions_exp_sqrt_log_g, true}});
  return table;
}

FunctionSet functions_for_regime(const std::string& regime, double gamma) {
  return g_regimes().at(regime).make(gamma);
}

SimResult run_scenario(const Engine& engine, Scenario& scenario, SlotObserver* observer) {
  CR_CHECK(scenario.adversary != nullptr);
  CR_CHECK(engine.supports(scenario.protocol));
  return engine.run(scenario.protocol, *scenario.adversary, scenario.config, observer);
}

namespace {

// Building blocks of the preset mappings below.

/// The run-level fields every preset carries.
WorkloadSpec run_of(const ScenarioParams& p) {
  WorkloadSpec w;
  w.horizon = p.horizon;
  w.seed = p.seed;
  return w;
}

/// The params' g regime. gamma is set only where the regime takes a scale;
/// elsewhere it would (rightly) fail validation.
WorkloadSpec regime_of(const ScenarioParams& p) {
  WorkloadSpec w = run_of(p);
  w.g_regime = p.g_regime;
  const GRegime* regime = g_regimes().find(p.g_regime);
  if (regime == nullptr || regime->takes_scale) {
    w.gamma = p.gamma;
    w.gamma_set = true;
  }
  return w;
}

/// No jammer at jam 0; any other value, out-of-range ones included, is the
/// i.i.d. jammer's fraction, so validation sees it.
ComponentSpec iid_or_none(const ScenarioParams& p) {
  return p.jam == 0.0 ? ComponentSpec{"none", {}}
                      : ComponentSpec{"iid", {{"fraction", double_param_text(p.jam)}}};
}

}  // namespace

bool ScenarioEntry::consumes(const std::string& param) const {
  for (const std::string& name : params)
    if (name == param) return true;
  return false;
}

ScenarioRegistry::ScenarioRegistry() : Registry("scenario", "scenarios") {
  add(
      {"worst_case", "paced arrivals ~t/(margin·f) + i.i.d. jamming (E2)",
       [](const ScenarioParams& p) {
         // Always const-g (4): the arrival pacing depends on f, hence on g,
         // so pinning g keeps it comparable across jam levels, zero included.
         WorkloadSpec w = run_of(p);
         w.arrival = {"paced", {{"margin", double_param_text(p.arrival_margin)}}};
         w.jammer = iid_or_none(p);
         return w;
       },
       {"horizon", "seed", "jam", "arrival_margin"}});
  add(
      {"batch", "n nodes at slot 1 + i.i.d. jamming (E3/E4/E7)",
       [](const ScenarioParams& p) {
         WorkloadSpec w = regime_of(p);
         w.arrival = {"batch", {{"n", std::to_string(p.n)}}};
         w.jammer = iid_or_none(p);
         return w;
       },
       {"horizon", "seed", "n", "jam", "g_regime", "gamma"}});
  add(
      {"smooth", "budget-saturating paced arrivals + paced jamming (E1/Cor 3.6)",
       [](const ScenarioParams& p) {
         WorkloadSpec w = regime_of(p);
         w.arrival = {"paced", {{"margin", double_param_text(p.arrival_margin)}}};
         w.jammer = {"budget_paced", {{"margin", double_param_text(p.jam_margin)}}};
         return w;
       },
       {"horizon", "seed", "arrival_margin", "jam_margin", "g_regime", "gamma"}});
  add(
      {"bernoulli_stream", "Bernoulli(rate) arrivals + i.i.d. jamming (E7b)",
       [](const ScenarioParams& p) {
         WorkloadSpec w = regime_of(p);
         w.arrival = {"bernoulli", {{"rate", double_param_text(p.rate)}}};
         w.jammer = iid_or_none(p);
         return w;
       },
       {"horizon", "seed", "rate", "jam", "g_regime", "gamma"}});
  add(
      {"bursty", "bursts of n inside the smooth budget + paced jamming (E9)",
       [](const ScenarioParams& p) {
         // Burstiest arrival pattern still inside the smooth budget: batches
         // of n every ceil(arrival_margin·n·f(horizon)) slots, budget-paced
         // jamming on top (the E9 latency workload).
         WorkloadSpec w = regime_of(p);
         const double ft =
             functions_for_regime(p.g_regime, p.gamma).f(static_cast<double>(p.horizon));
         const auto period = static_cast<std::uint64_t>(
             std::max(1.0, std::ceil(p.arrival_margin * static_cast<double>(p.n) * ft)));
         w.arrival = {"bursty",
                      {{"period", std::to_string(period)}, {"burst", std::to_string(p.n)}}};
         w.jammer = {"budget_paced", {{"margin", double_param_text(p.jam_margin)}}};
         return w;
       },
       {"horizon", "seed", "n", "arrival_margin", "jam_margin", "g_regime", "gamma"}});
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

Scenario ScenarioRegistry::build(const std::string& name, const ScenarioParams& params) const {
  return build_workload(scenario_preset_workload(name, params));
}

}  // namespace cr

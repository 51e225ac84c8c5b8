#include "exp/workload.hpp"

#include <cstdio>
#include <set>

#include "adversary/component_registry.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "engine/plan_path.hpp"
#include "exp/harness.hpp"
#include "protocols/baselines.hpp"
#include "protocols/batch.hpp"

namespace cr {

namespace {

const std::string kArrivalPrefix = "arrival.";
const std::string kJammerPrefix = "jammer.";

bool has_prefix(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

std::string known_list(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) out += " " + name;
  return out;
}

/// Validate one component against its registry entry; empty on success.
template <typename Registry>
std::string check_component(const Registry& registry, const ComponentSpec& component,
                            const std::string& kind) {
  const auto* entry = registry.find(component.name);
  if (entry == nullptr) {
    std::string error = "unknown " + kind + " \"" + component.name + "\"";
    const std::string hint = closest_match(component.name, registry.names());
    if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
    return error + "; known " + kind + "s:" + known_list(registry.names());
  }
  const auto checked = ParamValidation::check(entry->schema, component.params,
                                             kind + " \"" + component.name + "\"");
  return checked.error;
}

}  // namespace

const std::vector<std::string>& workload_keys() {
  static const std::vector<std::string> keys = {"arrival", "jammer",  "g",
                                                "gamma",   "protocol", "horizon"};
  return keys;
}

const std::vector<std::string>& workload_protocol_names() {
  static const std::vector<std::string> names = {"cjz",  "h_backoff", "h_data",
                                                 "beb",  "sawtooth",  "poly"};
  return names;
}

ProtocolSpec workload_protocol(const std::string& name, const FunctionSet& fs) {
  if (name == "cjz") return cjz_protocol(fs);
  if (name == "h_backoff")
    return factory_protocol("h-backoff", [fs] { return backoff_protocol_factory(fs); });
  if (name == "h_data") return profile_protocol(profiles::h_data());
  if (name == "beb")
    return factory_protocol("windowed-beb", [] { return windowed_backoff_factory({}); });
  if (name == "sawtooth")
    return factory_protocol("windowed-sawtooth", [] {
      return windowed_backoff_factory({WindowScheme::kSawtooth, 2.0});
    });
  if (name == "poly")
    return factory_protocol("windowed-poly", [] {
      return windowed_backoff_factory({WindowScheme::kPolynomial, 2.0});
    });
  CR_CHECK(false);  // names are validated upstream
  return {};
}

WorkloadParse parse_workload(const std::vector<std::pair<std::string, std::string>>& kvs) {
  WorkloadParse out;
  std::set<std::string> seen;
  auto fail = [&](std::string msg) {
    out.error = std::move(msg);
    return out;
  };
  auto once = [&](const std::string& key) { return seen.insert(key).second; };

  for (const auto& [key, value] : kvs) {
    if (key == "arrival" || key == "jammer") {
      if (!once(key)) return fail("workload key \"" + key + "\" given twice");
      (key == "arrival" ? out.spec.arrival : out.spec.jammer).name = value;
    } else if (has_prefix(key, kArrivalPrefix)) {
      out.spec.arrival.params.emplace_back(key.substr(kArrivalPrefix.size()), value);
    } else if (has_prefix(key, kJammerPrefix)) {
      out.spec.jammer.params.emplace_back(key.substr(kJammerPrefix.size()), value);
    } else if (key == "g") {
      if (!once(key)) return fail("workload key \"g\" given twice");
      out.spec.g_regime = value;
    } else if (key == "gamma") {
      if (!once(key)) return fail("workload key \"gamma\" given twice");
      if (!parse_double_text(value, &out.spec.gamma))
        return fail("workload key \"gamma\" expects a number, got \"" + value + "\"");
      out.spec.gamma_set = true;
    } else if (key == "protocol") {
      if (!once(key)) return fail("workload key \"protocol\" given twice");
      out.spec.protocol = value;
    } else if (key == "horizon") {
      if (!once(key)) return fail("workload key \"horizon\" given twice");
      std::uint64_t horizon = 0;
      if (!parse_uint_text(value, &horizon))
        return fail("workload key \"horizon\" expects a uint, got \"" + value + "\"");
      out.spec.horizon = static_cast<slot_t>(horizon);
    } else {
      // Unknown top-level key: the hard error the whole design exists for.
      std::string error = "unknown workload key \"" + key + "\"";
      const std::string hint = closest_match(key, workload_keys());
      if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
      error += "; workload keys:" + known_list(workload_keys()) +
               " plus arrival.<param>/jammer.<param> (see cr list)";
      return fail(std::move(error));
    }
  }
  out.error = validate_workload(out.spec);
  return out;
}

std::string validate_workload(const WorkloadSpec& spec) {
  if (std::string error =
          check_component(ArrivalRegistry::instance(), spec.arrival, "arrival");
      !error.empty())
    return error;
  if (std::string error = check_component(JammerRegistry::instance(), spec.jammer, "jammer");
      !error.empty())
    return error;
  const GRegime* regime = find_g_regime(spec.g_regime);
  if (regime == nullptr)
    return "unknown g regime \"" + spec.g_regime + "\"; known: " + g_regime_names(" ");
  // A regime without a scale ignores gamma — an explicit one would be the
  // silent no-op this API bans, so it is an error instead.
  if (spec.gamma_set && !regime->takes_scale)
    return "workload key \"gamma\" is not consumed when g=" + spec.g_regime + " (the " +
           spec.g_regime + " regime has no scale); drop it or pick a regime that has one";
  bool protocol_known = false;
  for (const std::string& name : workload_protocol_names())
    protocol_known = protocol_known || name == spec.protocol;
  if (!protocol_known) {
    std::string error = "unknown protocol \"" + spec.protocol + "\"";
    const std::string hint = closest_match(spec.protocol, workload_protocol_names());
    if (!hint.empty()) error += " (did you mean \"" + hint + "\"?)";
    return error + "; known protocols:" + known_list(workload_protocol_names());
  }
  if (spec.horizon < 1) return "workload key \"horizon\" must be >= 1";
  return "";
}

std::vector<std::pair<std::string, std::string>> workload_to_flags(const WorkloadSpec& spec) {
  const WorkloadSpec defaults;
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("arrival", spec.arrival.name);
  for (const auto& [key, value] : spec.arrival.params)
    out.emplace_back(kArrivalPrefix + key, value);
  out.emplace_back("jammer", spec.jammer.name);
  for (const auto& [key, value] : spec.jammer.params)
    out.emplace_back(kJammerPrefix + key, value);
  if (spec.g_regime != defaults.g_regime) out.emplace_back("g", spec.g_regime);
  if (spec.gamma_set) out.emplace_back("gamma", double_param_text(spec.gamma));
  if (spec.protocol != defaults.protocol) out.emplace_back("protocol", spec.protocol);
  if (spec.horizon != defaults.horizon)
    out.emplace_back("horizon", std::to_string(static_cast<std::uint64_t>(spec.horizon)));
  return out;
}

Scenario build_workload(const WorkloadSpec& spec, const AdversaryPlan* plan) {
  const std::string error = validate_workload(spec);
  if (!error.empty()) std::fprintf(stderr, "build_workload: %s\n", error.c_str());
  CR_CHECK(error.empty());

  Scenario sc;
  sc.fs = functions_for_regime(spec.g_regime, spec.gamma);
  const WorkloadContext ctx{sc.fs, spec.horizon, spec.seed};

  const ArrivalEntry& arrival = ArrivalRegistry::instance().at(spec.arrival.name);
  const auto arrival_params = ParamValidation::check(arrival.schema, spec.arrival.params,
                                                     "arrival \"" + spec.arrival.name + "\"");
  const JammerEntry& jammer = JammerRegistry::instance().at(spec.jammer.name);
  const auto jammer_params = ParamValidation::check(jammer.schema, spec.jammer.params,
                                                    "jammer \"" + spec.jammer.name + "\"");
  auto adversary = std::make_unique<ComposedAdversary>(arrival.make(arrival_params.values, ctx),
                                                       jammer.make(jammer_params.values, ctx));
  adversary->set_plan(plan);
  sc.adversary = std::move(adversary);
  sc.config.horizon = spec.horizon;
  sc.config.seed = spec.seed;
  sc.protocol = workload_protocol(spec.protocol, sc.fs);
  return sc;
}

WorkloadSpec scenario_preset_workload(const std::string& scenario, const ScenarioParams& p) {
  const ScenarioEntry* entry = ScenarioRegistry::instance().find(scenario);
  if (entry == nullptr)
    std::fprintf(stderr, "scenario_preset_workload: unknown scenario \"%s\" (known:%s)\n",
                 scenario.c_str(), known_list(ScenarioRegistry::instance().names()).c_str());
  CR_CHECK(entry != nullptr);
  return entry->workload(p);
}

AdversaryPlan adversary_plan(const WorkloadSpec& spec) {
  AdversaryPlan plan(spec.horizon);
  plan.valid = build_workload(spec).adversary->fill_plan(plan);
  return plan;
}

std::vector<SimResult> replicate_workload(const Engine& engine, const WorkloadSpec& spec,
                                          int reps, std::uint64_t base_seed, int threads,
                                          const SimConfig& config_template) {
  CR_CHECK(reps > 0);
  // One plan per sweep, shared read-only by every seed's adversary. The
  // engine decides per run whether to use it: fast_cjz takes the plan path,
  // the other engines step the adversary slot by slot as always.
  AdversaryPlan plan;
  if (plan_path_allowed(config_template)) plan = adversary_plan(spec);
  const AdversaryPlan* shared = plan.valid ? &plan : nullptr;

  return replicate(
      reps, base_seed,
      [&](std::uint64_t seed) {
        WorkloadSpec per = spec;
        per.seed = seed;
        Scenario sc = build_workload(per, shared);
        sc.config = config_template;
        sc.config.horizon = per.horizon;
        sc.config.seed = seed;
        return run_scenario(engine, sc);
      },
      threads);
}

std::vector<SimResult> replicate_scenario(const Engine& engine, const std::string& scenario,
                                          const ScenarioParams& params, int reps,
                                          std::uint64_t base_seed, int threads,
                                          const SimConfig& config_template) {
  return replicate_workload(engine, scenario_preset_workload(scenario, params), reps,
                            base_seed, threads, config_template);
}

}  // namespace cr

#include "exp/workload.hpp"

#include <cstdio>

#include "adversary/component_registry.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
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

/// Validate one component against its registry entry; empty on success.
template <typename ComponentRegistry>
std::string check_component(const ComponentRegistry& registry, const ComponentSpec& component,
                            const std::string& kind) {
  const auto* entry = registry.find(component.name);
  if (entry == nullptr) return registry.unknown(component.name);
  const auto checked = ParamValidation::check(entry->schema, component.params,
                                             kind + " \"" + component.name + "\"");
  return checked.error;
}

}  // namespace

const ParamSchema& workload_schema() {
  static const ParamSchema schema = [] {
    const WorkloadSpec base;  // the defaults the keys override
    const ParamBound at_least_one{.min = 1};
    return ParamSchema{
        {"arrival", ParamType::kText, base.arrival.name,
         "ArrivalRegistry component name; parameters via --arrival.<param>"},
        {"jammer", ParamType::kText, base.jammer.name,
         "JammerRegistry component name; parameters via --jammer.<param>"},
        {"g", ParamType::kText, base.g_regime, "g regime: " + g_regimes().joined_names(" | ")},
        {"gamma", ParamType::kDouble, double_param_text(base.gamma),
         "const-g value / exp_sqrt_log scale; rejected under g=log"},
        {"protocol", ParamType::kText, base.protocol,
         "named protocol: " + workload_protocols().joined_names(" | ")},
        {"horizon", ParamType::kUint, std::to_string(base.horizon), "slot horizon",
         at_least_one, "16384"},
    };
  }();
  return schema;
}

const Registry<ProtocolEntry>& workload_protocols() {
  static const Registry<ProtocolEntry> table(
      "protocol", "protocols",
      {{"cjz", [](const FunctionSet& fs) { return cjz_protocol(fs); }},
       {"h_backoff",
        [](const FunctionSet& fs) {
          return factory_protocol("h-backoff", [fs] { return backoff_protocol_factory(fs); });
        }},
       {"h_data", [](const FunctionSet&) { return profile_protocol(profiles::h_data()); }},
       {"beb",
        [](const FunctionSet&) {
          return factory_protocol("windowed-beb", [] { return windowed_backoff_factory({}); });
        }},
       {"sawtooth",
        [](const FunctionSet&) {
          return factory_protocol("windowed-sawtooth", [] {
            return windowed_backoff_factory({WindowScheme::kSawtooth, 2.0});
          });
        }},
       {"poly",
        [](const FunctionSet&) {
          return factory_protocol("windowed-poly", [] {
            return windowed_backoff_factory({WindowScheme::kPolynomial, 2.0});
          });
        }}});
  return table;
}

WorkloadParse parse_workload(const std::vector<std::pair<std::string, std::string>>& kvs) {
  const ParamSchema& schema = workload_schema();
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [key, value] : kvs) {
    if (has_prefix(key, kArrivalPrefix) || has_prefix(key, kJammerPrefix)) continue;
    if (schema.find(key) == nullptr) {
      // Unknown top-level key: the hard error the whole design exists for.
      std::vector<std::string> names;
      for (const ParamDef& def : schema.defs()) names.push_back(def.name);
      WorkloadParse out;
      out.error = "unknown workload key \"" + key + "\"";
      const std::string hint = closest_match(key, names);
      if (!hint.empty()) out.error += " (did you mean \"" + hint + "\"?)";
      out.error += "; workload keys:";
      for (const std::string& name : names) out.error += " " + name;
      out.error += " plus arrival.<param>/jammer.<param> (see cr list)";
      return out;
    }
    rows.emplace_back(key, value);
  }
  const ParamValidation checked = ParamValidation::check(schema, rows, "workload");
  if (!checked.ok()) {
    WorkloadParse out;
    out.error = checked.error;
    return out;
  }
  return workload_from_values(checked.values, kvs);
}

WorkloadParse workload_from_values(const ParamValues& values,
                                   const std::vector<std::pair<std::string, std::string>>& kvs) {
  WorkloadParse out;
  WorkloadSpec& spec = out.spec;
  spec.arrival.name = values.text("arrival");
  spec.jammer.name = values.text("jammer");
  spec.g_regime = values.text("g");
  spec.gamma = values.as_double("gamma");
  spec.protocol = values.text("protocol");
  spec.horizon = values.as_uint("horizon");
  for (const auto& [key, value] : kvs) {
    if (has_prefix(key, kArrivalPrefix))
      spec.arrival.params.emplace_back(key.substr(kArrivalPrefix.size()), value);
    else if (has_prefix(key, kJammerPrefix))
      spec.jammer.params.emplace_back(key.substr(kJammerPrefix.size()), value);
    else if (key == "gamma")
      spec.gamma_set = true;
  }
  out.error = validate_workload(spec);
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
  const GRegime* regime = g_regimes().find(spec.g_regime);
  if (regime == nullptr) return g_regimes().unknown(spec.g_regime);
  // A regime without a scale ignores gamma — an explicit one would be the
  // silent no-op this API bans, so it is an error instead.
  if (spec.gamma_set && !regime->takes_scale)
    return "workload key \"gamma\" is not consumed when g=" + spec.g_regime + " (the " +
           spec.g_regime + " regime has no scale); drop it or pick a regime that has one";
  if (std::string error = check_gamma(*regime, spec.gamma); !error.empty()) return error;
  if (workload_protocols().find(spec.protocol) == nullptr)
    return workload_protocols().unknown(spec.protocol);
  if (spec.horizon < 1) return "workload key \"horizon\" must be >= 1";
  return "";
}

std::string check_gamma(const GRegime& regime, double gamma) {
  if (!regime.takes_scale || gamma > 0.0) return "";
  return "workload key \"gamma\" must be > 0 when g=" + regime.name + ", got " +
         double_param_text(gamma);
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

Scenario build_workload(const WorkloadSpec& spec, bool attach_quiet_tail) {
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
  if (attach_quiet_tail) adversary->attach_quiet_tail();
  sc.adversary = std::move(adversary);
  sc.config.horizon = spec.horizon;
  sc.config.seed = spec.seed;
  sc.protocol = workload_protocols().at(spec.protocol).make(sc.fs);
  return sc;
}

WorkloadSpec scenario_preset_workload(const std::string& scenario, const ScenarioParams& p) {
  return ScenarioRegistry::instance().at(scenario).workload(p);
}

std::optional<QuietTail> workload_quiet_tail(const WorkloadSpec& spec) {
  return build_workload(spec, /*attach_quiet_tail=*/true).adversary->quiet_tail();
}

std::vector<SimResult> replicate_workload(const Engine& engine, const WorkloadSpec& spec,
                                          int reps, std::uint64_t base_seed, int threads,
                                          const SimConfig& config_template) {
  CR_CHECK(reps > 0);
  return replicate(
      reps, base_seed,
      [&](std::uint64_t seed) {
        WorkloadSpec per = spec;
        per.seed = seed;
        Scenario sc = build_workload(per, /*attach_quiet_tail=*/true);
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

// S1 "scenario" — generic registry-scenario runner.
//
// Unlike the E-numbered benches (each tied to one paper claim with a fixed
// sweep), this subcommand runs ANY registered scenario at one parameter
// point and reports the aggregate counters, means over --reps seeds. It is
// the composition primitive for suite manifests: a grid over
// (--scenario, --n, --jam, ...) turns one manifest cell block into an
// arbitrary workload sweep without writing a new bench.
//
//   cr bench scenario --scenario=bursty --n=64 --jam_margin=8 --reps=8
//   cr suite run ... with "grid": {"scenario": ["batch","worst_case"], ...}
#include <ostream>

#include "adversary/param_schema.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

/// The ScenarioParams the validated flags describe (seed aside: the
/// replication sweep sets it). One mapping serves run and validate_cell.
ScenarioParams scenario_params(const ParamValues& flags) {
  ScenarioParams params;
  params.horizon = flags.as_uint("horizon");
  params.n = flags.as_uint("n");
  params.jam = flags.as_double("jam");
  params.rate = flags.as_double("rate");
  params.arrival_margin = flags.as_double("arrival_margin");
  params.jam_margin = flags.as_double("jam_margin");
  params.g_regime = flags.text("g_regime");
  params.gamma = flags.as_double("gamma");
  return params;
}

/// "" when scenario `name` is registered, `params.g_regime` is known, every
/// explicitly-passed param flag is consumed by the preset under that regime,
/// and the WorkloadSpec the preset maps `params` to validates (component
/// bounds, gamma > 0); else an error naming the first offending key. A
/// regime without a scale makes an explicit --gamma the same silent no-op
/// the WorkloadSpec validator rejects.
std::string check_cell(const std::string& name, const std::vector<std::string>& passed,
                       const ScenarioParams& params) {
  const ScenarioEntry* entry = ScenarioRegistry::instance().find(name);
  if (entry == nullptr) return ScenarioRegistry::instance().unknown(name);
  const GRegime* regime = g_regimes().find(params.g_regime);
  if (regime == nullptr) return g_regimes().unknown(params.g_regime);
  for (const std::string& flag : passed) {
    if (flag == "gamma" && !regime->takes_scale)
      return "scenario \"" + name + "\" does not consume --gamma under --g_regime=" +
             params.g_regime + " (the " + params.g_regime +
             " regime has no scale; it would be a silent no-op); drop it or pick a regime "
             "that has one";
    if (entry->consumes(flag)) continue;
    std::string consumed;
    for (const std::string& p : entry->params) consumed += " " + p;
    return "scenario \"" + name + "\" does not consume --" + flag +
           " (it would be a silent no-op); its parameters are:" + consumed;
  }
  // The bursty preset evaluates f under the regime while it maps, so gamma's
  // bound must hold before the mapping runs.
  if (std::string error = check_gamma(*regime, params.gamma); !error.empty()) return error;
  return validate_workload(entry->workload(params));
}

/// An unknown scenario, a param this preset does not consume and a value its
/// components reject are all errors, on the command line and in a suite
/// cell alike. Every flag but the preset's name and the replication count is
/// a preset parameter.
std::string validate_cell(const ParamValues& values, const FlagList& flags) {
  std::vector<std::string> passed;
  for (const auto& [key, value] : flags)
    if (key != "scenario" && key != "reps") passed.push_back(key);
  return check_cell(values.text("scenario"), passed, scenario_params(values));
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const ParamValues& flags = driver.flags();
  const int reps = static_cast<int>(flags.as_uint("reps"));
  const ScenarioParams params = scenario_params(flags);
  const std::string scenario_name = flags.text("scenario");
  const WorkloadSpec spec = scenario_preset_workload(scenario_name, params);
  const Engine& engine = point_engine(spec);

  out << "S1: scenario \"" << scenario_name << "\" at one parameter point, engine "
      << engine.name() << ", means over " << reps << " seeds\n\n";

  const Table table = point_table(
      {{"scenario", scenario_name},
       {"engine", engine.name()},
       {"horizon", Cell(static_cast<std::uint64_t>(params.horizon))},
       {"n", Cell(params.n)},
       {"jam", Cell(params.jam, 2)}},
      replicate_workload(engine, spec, reps, driver.seed(50000), driver.threads()));
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: one row per invocation by design — sweeps come from suite grids\n"
         "(see suites/*.json), which expand a cell block into many invocations and\n"
         "concatenate the per-cell CSVs.\n";
  return 0;
}

}  // namespace

BenchSpec scenario() {
  BenchSpec spec;
  spec.name = "scenario";
  spec.id = "S1";
  spec.summary = "generic registry-scenario runner (suite composition primitive)";
  spec.claim = "— (runs any ScenarioRegistry workload)";
  spec.outcome =
      "one CSV row of aggregate counters for the named scenario at one parameter "
      "point; sweeps come from suite grids";
  const ScenarioParams base;  // the defaults the flags override
  spec.flags = {
      {"scenario", ParamType::kText, "batch", "ScenarioRegistry workload name"},
      {"horizon", ParamType::kUint, std::to_string(base.horizon), "slot horizon",
       {.min = 1}, "16384"},
      {"n", ParamType::kUint, std::to_string(base.n), "batch / burst size", {.min = 1},
       "128"},
      {"jam", ParamType::kDouble, double_param_text(base.jam), "i.i.d. jam fraction"},
      {"rate", ParamType::kDouble, double_param_text(base.rate),
       "Bernoulli arrival rate, bernoulli_stream only"},
      {"arrival_margin", ParamType::kDouble, double_param_text(base.arrival_margin),
       "paced-arrival margin, worst_case/smooth/bursty"},
      {"jam_margin", ParamType::kDouble, double_param_text(base.jam_margin),
       "budget-paced jam margin, smooth/bursty"},
      {"g_regime", ParamType::kText, base.g_regime,
       "g regime: " + g_regimes().joined_names(" | ")},
      {"gamma", ParamType::kDouble, double_param_text(base.gamma),
       "const-g value / exp_sqrt_log scale"},
      reps_flag(8, 3),
  };
  spec.validate_cell = validate_cell;
  spec.csv_columns = point_csv_columns({"scenario", "engine", "horizon", "n", "jam"});
  spec.csv_row_desc = "exactly one row: aggregate counters, means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

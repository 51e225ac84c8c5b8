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
#include <cstdio>
#include <ostream>

#include "adversary/param_schema.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

/// The ScenarioParams-backed flags of this bench (everything except
/// --scenario). Each preset declares which of these it consumes
/// (ScenarioEntry::params); passing one a preset ignores is a hard error —
/// the same no-silent-no-op rule the WorkloadSpec API enforces.
const std::vector<std::string>& scenario_param_flags() {
  static const std::vector<std::string> flags = {
      "horizon", "n", "jam", "rate", "arrival_margin", "jam_margin", "g_regime", "gamma"};
  return flags;
}

/// The double-valued ScenarioParams field behind flag `name`; nullptr for
/// the other flags.
double* double_param(ScenarioParams& params, const std::string& name) {
  if (name == "jam") return &params.jam;
  if (name == "rate") return &params.rate;
  if (name == "arrival_margin") return &params.arrival_margin;
  if (name == "jam_margin") return &params.jam_margin;
  if (name == "gamma") return &params.gamma;
  return nullptr;
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

std::string validate_cell(const std::vector<std::pair<std::string, std::string>>& flags) {
  std::string name = "batch";
  ScenarioParams params;
  std::vector<std::string> passed;
  for (const auto& [key, value] : flags) {
    if (key == "scenario") name = value;
    if (key == "g_regime") params.g_regime = value;
    if (double* field = double_param(params, key);
        field != nullptr && !parse_double_text(value, field))
      return "--" + key + " expects a number, got \"" + value + "\"";
    for (const std::string& param : scenario_param_flags())
      if (key == param) passed.push_back(key);
  }
  return check_cell(name, passed, params);
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = driver.reps(8, 3);

  ScenarioParams params;
  params.horizon = static_cast<slot_t>(driver.get_int("horizon", 1 << 16, 1 << 14, 1));
  params.n = static_cast<std::uint64_t>(driver.get_int("n", 256, 128, 1));
  for (const char* name : {"jam", "rate", "arrival_margin", "jam_margin", "gamma"})
    *double_param(params, name) = driver.cli().get_double(name, *double_param(params, name));
  params.g_regime = driver.cli().get_string("g_regime", "const");
  const std::string scenario_name = driver.cli().get_string("scenario", "batch");

  // Validate before burning any replication time: an unknown scenario exits
  // 2 with a suggestion, a param this preset does not consume is a hard error
  // instead of a silent no-op, and so is a value its components reject (the
  // suite validator applies the same rules at parse time).
  std::vector<std::string> passed;
  for (const std::string& name : scenario_param_flags())
    if (driver.cli().has(name)) passed.push_back(name);
  if (const std::string error = check_cell(scenario_name, passed, params); !error.empty()) {
    std::fprintf(stderr, "cr bench scenario: %s\n", error.c_str());
    return 2;
  }
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
  spec.flags = {
      {"scenario", "ScenarioRegistry workload name (default batch)"},
      {"horizon", "slot horizon (default 65536, quick 16384)"},
      {"n", "batch / burst size (default 256, quick 128)"},
      {"jam", "i.i.d. jam fraction (default 0.25)"},
      {"rate", "Bernoulli arrival rate, bernoulli_stream only (default 0.1)"},
      {"arrival_margin", "paced-arrival margin, worst_case/smooth/bursty (default 4)"},
      {"jam_margin", "budget-paced jam margin, smooth/bursty (default 8)"},
      {"g_regime", "g regime: " + g_regimes().joined_names(" | ") + " (default const)"},
      {"gamma", "const-g value / exp_sqrt_log scale (default 4)"},
  };
  spec.validate_cell = validate_cell;
  spec.csv_columns = point_csv_columns({"scenario", "engine", "horizon", "n", "jam"});
  spec.csv_row_desc = "exactly one row: aggregate counters, means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

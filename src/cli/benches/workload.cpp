// S2 "workload" — composable WorkloadSpec runner.
//
// Where `cr bench scenario` runs a NAMED preset, this subcommand composes a
// workload from first principles: any registered arrival process × any
// registered jammer × g regime × named protocol, each component configured
// through its own ParamSchema via dotted flags:
//
//   cr bench workload --arrival=bernoulli --arrival.rate=0.2
//                     --jammer=reactive --jammer.burst=3 --protocol=cjz
//
// Every key is validated against the component registries before anything
// runs — an unknown or unconsumed parameter is a hard error naming the key
// (exit 2), both here and at suite-manifest parse time (validate_cell). The
// same grid works from a suite cell, e.g.
//   "grid": {"arrival": ["batch", "paced"], "jammer": ["none", "iid"]}
// — the (arrival × jammer) product with zero new C++.
#include <ostream>

#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

/// The seven aggregate columns of a single-point row: display header and
/// CSV name.
constexpr std::pair<const char*, const char*> kAggregates[] = {
    {"slots", "slots"},   {"arrivals", "arrivals"}, {"successes", "successes"},
    {"jammed", "jammed"}, {"served", "served"},     {"sends", "sends"},
    {"backlog at end", "backlog_at_end"}};

bool is_component_param(const std::string& name) {
  return name.rfind("arrival.", 0) == 0 || name.rfind("jammer.", 0) == 0;
}

std::string validate_cell(const ParamValues& values, const FlagList& flags) {
  return workload_from_values(values, flags).error;
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));

  // The driver validated the flags (validate_cell), so the spec is valid;
  // the horizon row holds its quick default when none was given.
  WorkloadSpec spec = workload_from_values(driver.flags(), driver.passed_flags()).spec;

  // One probe build names the composition for the narrative line; every
  // replication builds a fresh adversary (stateful, consumed per run).
  spec.seed = driver.seed(60000);
  const std::string composed = build_workload(spec).adversary->name();
  const Engine& engine = point_engine(spec);

  out << "S2: workload " << composed << ", g=" << spec.g_regime << ", protocol "
      << spec.protocol << ", engine " << engine.name() << ", means over " << reps
      << " seeds\n\n";

  const Table table = point_table(
      {{"arrival", spec.arrival.name},
       {"jammer", spec.jammer.name},
       {"g", spec.g_regime},
       {"protocol", spec.protocol},
       {"engine", engine.name()},
       {"horizon", Cell(static_cast<std::uint64_t>(spec.horizon))}},
      replicate_workload(engine, spec, reps, driver.seed(60000), driver.threads()));
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: one row per invocation by design — grids over\n"
         "(arrival × jammer × g × protocol) come from suite manifests\n"
         "(see suites/workload_grid_quick.json).\n";
  return 0;
}

}  // namespace

const Engine& point_engine(const WorkloadSpec& spec) {
  return EngineRegistry::instance().preferred(workload_protocols().at(spec.protocol).make(
      functions_for_regime(spec.g_regime, spec.gamma)));
}

Table point_table(const std::vector<std::pair<std::string, Cell>>& keys,
                  const std::vector<SimResult>& results) {
  std::vector<std::string> headers;
  std::vector<Cell> row;
  for (const auto& [header, cell] : keys) {
    headers.push_back(header);
    row.push_back(cell);
  }
  for (const auto& [header, column] : kAggregates) headers.emplace_back(header);
  const auto count = [&](std::uint64_t SimResult::*field) {
    return collect(results, [field](const SimResult& r) { return static_cast<double>(r.*field); });
  };
  const Accumulator served = collect(results, [](const SimResult& r) {
    return r.arrivals ? static_cast<double>(r.successes) / static_cast<double>(r.arrivals) : 1.0;
  });
  row.emplace_back(count(&SimResult::slots).mean(), 0);
  row.emplace_back(count(&SimResult::arrivals).mean(), 1);
  row.emplace_back(count(&SimResult::successes).mean(), 1);
  row.emplace_back(count(&SimResult::jammed_slots).mean(), 1);
  row.emplace_back(served.mean(), 3);
  row.emplace_back(count(&SimResult::total_sends).mean(), 1);
  row.emplace_back(mean_sd(count(&SimResult::live_at_end), 1));
  Table table(std::move(headers));
  table.add_row(std::move(row));
  return table;
}

std::vector<std::string> point_csv_columns(std::vector<std::string> keys) {
  for (const auto& [header, column] : kAggregates) keys.emplace_back(column);
  return keys;
}

BenchSpec workload() {
  BenchSpec spec;
  spec.name = "workload";
  spec.id = "S2";
  spec.summary = "composable WorkloadSpec runner (arrival × jammer × g × protocol)";
  spec.claim = "— (runs any registered component composition)";
  spec.outcome =
      "one CSV row of aggregate counters for the composed workload at one "
      "parameter point; grids come from suite manifests";
  std::vector<ParamDef> rows = workload_schema().defs();
  rows.push_back(reps_flag(8, 3));
  spec.flags = ParamSchema(std::move(rows));
  spec.allows_flag = is_component_param;
  spec.validate_cell = validate_cell;
  spec.csv_columns = point_csv_columns({"arrival", "jammer", "g", "protocol", "engine", "horizon"});
  spec.csv_row_desc = "exactly one row: aggregate counters, means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

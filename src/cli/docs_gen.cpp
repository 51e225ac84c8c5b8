#include "cli/docs_gen.hpp"

#include <sstream>

#include "adversary/component_registry.hpp"
#include "cli/bench_registry.hpp"
#include "engine/engine.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"
#include "verify/claim_registry.hpp"

namespace cr {

namespace {

/// Escape '|' for use inside a markdown table cell.
std::string md_cell(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '|') out += "\\|";
    else out += c;
  }
  return out;
}

/// "`<prefix>a`, `<prefix>b`, …".
std::string code_list(const std::vector<std::string>& names, const std::string& prefix = "") {
  std::string out;
  for (const std::string& name : names)
    out.append(out.empty() ? "`" : ", `").append(prefix).append(name).append("`");
  return out;
}

/// The bench's flags as a code list, "—" when it has none.
std::string flag_list(const BenchSpec& spec) {
  std::vector<std::string> names;
  for (const ParamDef& def : spec.flags.defs()) names.push_back(def.name);
  return names.empty() ? "—" : code_list(names, "--");
}

/// "—" for parameterless components, else "`p` (type[, bound], default d):
/// help; …".
std::string schema_cell(const ParamSchema& schema) {
  if (schema.empty()) return "—";
  std::string out;
  for (const ParamDef& def : schema.defs()) {
    if (!out.empty()) out += "; ";
    out += "`" + def.name + "` " + param_facts(def) + ": " + def.help;
  }
  return out;
}

/// The arrivals/jammers tables shared by the workload section; rendered
/// straight from the component registries so the docs cannot drift from
/// what validation accepts.
void component_tables(std::ostringstream& os) {
  os << "### Arrival processes (`--arrival`, params `--arrival.<p>`)\n"
     << "\n"
     << "| Name | Workload | Parameters |\n"
     << "| --- | --- | --- |\n";
  for (const ArrivalEntry& entry : ArrivalRegistry::instance().entries())
    os << "| `" << entry.name << "` | " << md_cell(entry.description) << " | "
       << md_cell(schema_cell(entry.schema)) << " |\n";
  os << "\n"
     << "### Jamming strategies (`--jammer`, params `--jammer.<p>`)\n"
     << "\n"
     << "| Name | Strategy | Parameters |\n"
     << "| --- | --- | --- |\n";
  for (const JammerEntry& entry : JammerRegistry::instance().entries())
    os << "| `" << entry.name << "` | " << md_cell(entry.description) << " | "
       << md_cell(schema_cell(entry.schema)) << " |\n";
}

}  // namespace

std::string registry_listing_text() {
  std::ostringstream os;
  // One "  <name><padding><text>" line; names shorter than `width` are padded to it.
  const auto line = [&](const std::string& name, std::size_t width, const std::string& text) {
    os << "  " << name << std::string(name.size() < width ? width - name.size() : 1, ' ') << text
       << "\n";
  };
  os << "benches (cr bench <name>):\n";
  for (const BenchSpec& spec : BenchRegistry::instance().entries())
    line(spec.name, 18, spec.id + "  " + spec.summary);
  os << "\nscenarios (cr bench scenario --scenario=<name>; presets over WorkloadSpec):\n";
  for (const ScenarioEntry& entry : ScenarioRegistry::instance().entries())
    line(entry.name, 18, entry.description);
  os << "\narrivals (cr bench workload --arrival=<name>; params via --arrival.<p>):\n";
  for (const ArrivalEntry& entry : ArrivalRegistry::instance().entries())
    line(entry.name, 18, entry.description);
  os << "\njammers (cr bench workload --jammer=<name>; params via --jammer.<p>):\n";
  for (const JammerEntry& entry : JammerRegistry::instance().entries())
    line(entry.name, 18, entry.description);
  os << "\nprotocols (--protocol on the workload bench):\n";
  for (const std::string& name : workload_protocols().names()) os << "  " << name << "\n";
  os << "\nengines (every bench runs on preferred(), the fastest compatible one):\n";
  for (const std::string& name : EngineRegistry::instance().names()) os << "  " << name << "\n";
  os << "\nclaims (cr verify <out_dir>; machine-checked against suite CSVs):\n";
  for (const verify::ClaimSpec& spec : verify::ClaimRegistry::instance().entries())
    line(spec.id, 26, spec.title);
  os << "\n`cr list --md` prints docs/EXPERIMENTS.md; `cr help` prints usage.\n";
  return os.str();
}

std::string experiments_markdown() {
  std::ostringstream os;
  os << "# Experiment index\n"
     << "\n"
     << "<!-- GENERATED FILE — do not edit by hand. This file is the verbatim\n"
     << "     output of `cr list --md`, rendered from the bench/scenario/engine\n"
     << "     registries; the docs-labelled CTest entry byte-diffs it against\n"
     << "     that output and fails on any drift. To regenerate:\n"
     << "       ./build/src/cr list --md > docs/EXPERIMENTS.md -->\n"
     << "\n"
     << "Every experiment reproduces one claim of *conf_podc_ChenJZ21*\n"
     << "(Chen–Jiang–Zheng, PODC'21: contention resolution on a multiple-access\n"
     << "channel with adaptive jamming and no collision detection). All of them\n"
     << "are subcommands of the single `cr` tool:\n"
     << "\n"
     << "```sh\n"
     << "cr list                      # what exists (this document: cr list --md)\n"
     << "cr bench latency --quick     # one experiment\n"
     << "cr suite run suites/quick.json   # a manifest-driven grid of cells\n"
     << "```\n"
     << "\n"
     << "## Uniform driver flags\n"
     << "\n"
     << "Every bench shares the `BenchDriver` contract\n"
     << "(`src/exp/bench_driver.hpp`):\n"
     << "\n"
     << "| Flag | Meaning |\n"
     << "| --- | --- |\n";
  for (const BenchFlag& flag : BenchDriver::standard_flags()) {
    os << "| `--" << flag.name << "` | " << md_cell(flag.help);
    if (!flag.single_run_help.empty())
      os << ". Without `--reps`: " << md_cell(flag.single_run_help);
    os << " |\n";
  }
  os << "\n"
     << "Each bench's own flags, `--reps` among them for a bench that\n"
     << "replicates, are typed rows with a default, a `--quick` default and a\n"
     << "bound (see the bench reference below). One check reads them on the\n"
     << "command line and in every cell of a suite manifest, so a bad value exits\n"
     << "2 naming the flag, or fails the manifest load naming the cell and the\n"
     << "flag, before anything runs.\n"
     << "\n"
     << "Unknown or misspelled flags are rejected with a did-you-mean message\n"
     << "(exit 2). `--threads` never changes results: replication seeds are\n"
     << "independent by construction (splitmix64-seeded xoshiro256\\*\\* streams),\n"
     << "so fanning seeds across a worker pool is bit-identical to a serial run\n"
     << "for every thread count (`tests/test_scenarios.cpp`, `ParallelReplicate.*`).\n"
     << "\n"
     << "## Registries\n"
     << "\n"
     << "Engine and workload selection go through six name-keyed registries\n"
     << "(`EngineRegistry` in `src/engine/engine.hpp`, `ScenarioRegistry` in\n"
     << "`src/exp/scenarios.hpp`, `BenchRegistry` in `src/cli/bench_registry.hpp`,\n"
     << "`ArrivalRegistry`/`JammerRegistry` in\n"
     << "`src/adversary/component_registry.hpp`, `ClaimRegistry` in\n"
     << "`src/verify/claim_registry.hpp`): a bench describes *what* runs\n"
     << "(a `ProtocolSpec`) and the registry picks the fastest engine that can\n"
     << "execute it (`generic` — per-node reference; `fast_cjz`, `fast_batch` —\n"
     << "cohort engines validated against it in `tests/test_cross_engine.cpp`);\n"
     << "workloads compose by name from the arrival/jammer component registries\n"
     << "(see the workload composition section below).\n"
     << "\n"
     << "## Recording tiers\n"
     << "\n"
     << "`SimConfig::recording` selects how much observability a run pays for\n"
     << "(`RecordingConfig` in `src/engine/sim_result.hpp`). Tiers are cumulative,\n"
     << "every engine honours every tier, and the simulated trajectory is\n"
     << "**bit-identical across tiers** (attribution draws on a dedicated RNG\n"
     << "stream; asserted by the fuzz sweep in `tests/test_cross_engine.cpp`):\n"
     << "\n"
     << "| Tier | Extra per-slot cost | Unlocks |\n"
     << "| --- | --- | --- |\n"
     << "| `kNone` (default) | — | aggregate counters in `SimResult` |\n"
     << "| `kSuccessTimes` | O(1) per success | `success_times`, `successes_in_window()` |\n"
     << "| `kNodeStats` | O(#sends) attribution + one row per node | `node_stats`, "
        "`latency_report()`, `energy_report()` |\n"
     << "| `kFullTrace` | O(1) copy per slot | `SimResult::slot_outcomes` |\n"
     << "\n"
     << "The fast engines attribute each cohort's binomial sender count to a\n"
     << "uniformly sampled member subset — exactly the conditional law of \"who\n"
     << "sent\" given the count — so energy/latency metrics do not require the\n"
     << "generic engine. For metrics over time without any recording tier,\n"
     << "attach the streaming `WindowedMetrics` observer\n"
     << "(`src/metrics/windowed.hpp`; combine observers with `ObserverChain`).\n"
     << "\n"
     << "## Index\n"
     << "\n"
     << "| E | Subcommand | Paper claim / section | Extra flags | Expected qualitative "
        "outcome |\n"
     << "| --- | --- | --- | --- | --- |\n";
  for (const BenchSpec& spec : BenchRegistry::instance().entries())
    os << "| " << spec.id << " | `cr bench " << spec.name << "` | " << md_cell(spec.claim)
       << " | " << flag_list(spec) << " | " << md_cell(spec.outcome) << " |\n";
  os << "| E11 | `bench_engine` (standalone) | — (engine performance) | google-benchmark args "
        "| hot RNG and backoff paths, cohort vs per-node scaling on a large batch, and "
        "`fast_batch`; built only when google-benchmark is installed |\n"
     << "\n"
     << "E11 is the one non-`cr` experiment: a google-benchmark microbenchmark\n"
     << "with its own runner, built only when the library is present.\n"
     << "\n"
     << "## Bench reference\n";
  for (const BenchSpec& spec : BenchRegistry::instance().entries()) {
    os << "\n### `cr bench " << spec.name << "` (" << spec.id << ")\n"
       << "\n"
       << md_cell(spec.summary) << ". Claim: " << md_cell(spec.claim) << ".\n";
    if (!spec.flags.empty()) {
      os << "\n";
      for (const ParamDef& def : spec.flags.defs())
        os << "- `--" << def.name << "` — " << md_cell(def.help) << " "
           << md_cell(param_facts(def)) << "\n";
    }
    if (spec.csv_columns.empty())
      os << "\nNo CSV (no `--csv`, no suite cell): " << md_cell(spec.csv_row_desc) << ".\n";
    else
      os << "\nCSV (`--csv`): " << code_list(spec.csv_columns) << ".\n"
         << "One row = " << md_cell(spec.csv_row_desc) << ".\n";
  }
  os << "\n## Machine-checked claims (`cr verify`)\n"
     << "\n"
     << "Every paper claim the suites evidence is registered in the\n"
     << "`ClaimRegistry` (`src/verify/claim_registry.hpp`) as an executable\n"
     << "acceptance test over suite CSVs. `cr verify <out_dir>` evaluates all of\n"
     << "them against a `cr suite run` output directory, prints the verdict\n"
     << "table, writes `<out_dir>/verify_report.json` (schema\n"
     << "`cr-verify-report/1`: per-claim verdict, observed values, bound, and\n"
     << "evidence-cell provenance keyed by the run manifest's `config_hash`),\n"
     << "and exits nonzero iff any claim fails — CI gates on\n"
     << "`cr verify --quick` after running `suites/quick.json --quick`.\n"
     << "`--quick` selects the quick evidence cells and the widened bounds\n"
     << "below; `tests/test_claims.cpp` evaluates the same registry in-process,\n"
     << "so gtest and the CLI cannot drift apart.\n"
     << "\n"
     << "| Claim | Title | Bound (full) | Bound (`--quick`) | Evidence cells | Columns |\n"
     << "| --- | --- | --- | --- | --- | --- |\n";
  for (const verify::ClaimSpec& spec : verify::ClaimRegistry::instance().entries()) {
    std::string cells = code_list(spec.cells);
    if (!spec.quick_cells.empty()) cells += " (quick: " + code_list(spec.quick_cells) + ")";
    const std::string columns = code_list(spec.columns);
    os << "| `" << spec.id << "` | " << md_cell(spec.title) << " | " << md_cell(spec.bound)
       << " | " << md_cell(spec.quick_bound.empty() ? "same" : spec.quick_bound) << " | "
       << cells << " | " << columns << " |\n";
  }
  os << "\nEach claim's full statement lives in `src/verify/claims.cpp` next to\n"
     << "its check; the \"add a claim\" recipe is in `docs/ARCHITECTURE.md`.\n";
  os << "\n## Named scenarios\n"
     << "\n"
     << "`ScenarioRegistry` entries (parameterised by `ScenarioParams`; run any\n"
     << "of them directly with `cr bench scenario --scenario=<name>`). Each is a\n"
     << "thin preset over `WorkloadSpec` (`src/exp/workload.hpp`) — byte-identical\n"
     << "to the equivalent component composition, parity-tested in\n"
     << "`tests/test_workload.cpp`. A preset consumes exactly the listed\n"
     << "parameters; passing any other is a hard error, not a silent no-op:\n"
     << "\n"
     << "| Name | Workload | Consumed params |\n"
     << "| --- | --- | --- |\n";
  for (const ScenarioEntry& entry : ScenarioRegistry::instance().entries())
    os << "| `" << entry.name << "` | " << md_cell(entry.description) << " | "
       << code_list(entry.params) << " |\n";
  os << "\n## Workload composition\n"
     << "\n"
     << "`cr bench workload` composes a workload from first principles instead\n"
     << "of a preset: any registered arrival process × any registered jammer ×\n"
     << "g regime × named protocol. Every component self-describes a parameter\n"
     << "schema (below); an unknown or unconsumed key — a parameter the chosen\n"
     << "component does not declare, or `gamma` under `g=log` — is a hard error\n"
     << "naming the key, both on the command line and at suite-manifest parse\n"
     << "time. The flat `key=value` form is the same in both places:\n"
     << "\n"
     << "```sh\n"
     << "cr bench workload --arrival=bernoulli --arrival.rate=0.2 \\\n"
     << "                  --jammer=reactive --jammer.burst=3 --protocol=cjz\n"
     << "```\n"
     << "\n"
     << "or, as a suite cell sweeping the (arrival × jammer) product\n"
     << "(`suites/workload_grid_quick.json` is the checked-in example, run by\n"
     << "the `workload`-labelled CTest entry):\n"
     << "\n"
     << "```json\n"
     << "{\"bench\": \"workload\",\n"
     << " \"grid\": {\"arrival\": [\"batch\", \"paced\"], \"jammer\": [\"none\", \"iid\"]}}\n"
     << "```\n"
     << "\n";
  component_tables(os);
  os << "\nNamed protocols (`--protocol`): `" << workload_protocols().joined_names("`, `")
     << "`.\n";
  os << "\n## Engines\n"
     << "\n";
  for (const std::string& name : EngineRegistry::instance().names())
    os << "- `" << name << "`\n";
  os << "\nEvery bench runs on `EngineRegistry::preferred(spec)`, the fastest\n"
     << "engine that can execute its protocol; no flag overrides the choice.\n"
     << "\n"
     << "## Suites\n"
     << "\n"
     << "`cr suite run <manifest.json>` expands a manifest's grid of\n"
     << "(bench × params × seeds) cells, runs each cell `--quiet` with a\n"
     << "per-cell CSV under the suite's output directory, and writes a run\n"
     << "manifest (git SHA, config hash, wall-clock, per-cell status) next to\n"
     << "them. Properties guaranteed by `tests/test_suite.cpp`:\n"
     << "\n"
     << "- `--shard i/n` partitions cells deterministically (expansion index\n"
     << "  mod n); the shards are disjoint, cover everything, and together\n"
     << "  produce byte-identical CSVs to an unsharded run;\n"
     << "- rerunning skips cells whose CSV already exists (resume after an\n"
     << "  interrupt; `--force` reruns), again bit-identically;\n"
     << "- `cr suite expand` prints the cell plan without running anything.\n"
     << "\n"
     << "Checked-in manifests: `suites/paper_repro.json` (every table above),\n"
     << "`suites/quick.json` (CI-sized smoke grid covering every claim's quick\n"
     << "evidence cells; the `suite`-labelled CTest entries run it with\n"
     << "`--quick`, and `cr verify --quick` gates on the result).\n"
     << "\n"
     << "## Smoke tests\n"
     << "\n"
     << "Each bench is registered with CTest as `smoke_bench_*` running\n"
     << "`cr bench <name> --quick --reps=2 --threads=2`, so a bench that\n"
     << "crashes or regresses structurally fails the tier-1 suite\n"
     << "(`ctest -L bench_smoke` runs just these).\n"
     << "\n"
     << "## Golden regressions\n"
     << "\n"
     << "`golden_bench_latency` (label `golden`) byte-compares the latency\n"
     << "bench's `--quick` CSV against `tests/golden/bench_latency_quick.csv`.\n"
     << "The file contains only means of integer-valued samples at fixed seeds\n"
     << "(exact IEEE arithmetic, thread-count independent), so on the CI\n"
     << "platform any diff is a real behaviour change in the engines, scenarios\n"
     << "or metrics. The simulation does route through libm (`f`/`g` pacing,\n"
     << "binomial sampling), so a different libm implementation (macOS, a major\n"
     << "glibc bump) can legitimately shift the integers — regenerate on the\n"
     << "Linux CI platform:\n"
     << "\n"
     << "```sh\n"
     << "./build/src/cr bench latency --quick --reps=2 --threads=2 \\\n"
     << "    --csv=tests/golden/bench_latency_quick.csv\n"
     << "```\n"
     << "\n"
     << "`docs_experiments_md` (label `docs`) is the second golden test: it\n"
     << "diffs this very file against `cr list --md`.\n";
  return os.str();
}

}  // namespace cr

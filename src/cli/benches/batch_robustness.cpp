// E4 "batch robustness" — remark after Claim 3.5.1 + the batch subroutine's
// role in the algorithm (Section 2, "Achieving jamming resistance").
//
// Prediction: with n nodes starting simultaneously, h_data-batch delivers a
// constant fraction of all n messages within O(n) slots even when a constant
// fraction of those slots is jammed. (Finishing *all* of them is what it
// cannot do — see E3.)
//
// We sweep the jamming rate and report the fraction delivered within c·n
// slots for c ∈ {2, 4, 8}.
#include <ostream>

#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "metrics/metrics.hpp"
#include "protocols/batch.hpp"

namespace cr::benches {

namespace {

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const std::uint64_t n = driver.flags().as_uint("n");
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));

  out << "E4: h_data-batch delivers a constant fraction of n in O(n) slots under jamming\n"
      << "n = " << n << ", i.i.d. jamming at the given rate.\n\n";

  const ProtocolSpec h_data = profile_protocol(profiles::h_data());
  const Engine& engine = EngineRegistry::instance().preferred(h_data);

  Table table({"jam rate", "frac by 2n", "frac by 4n", "frac by 8n"});
  for (const double jam : {0.0, 0.1, 0.25, 0.4}) {
    const auto results = driver.replicate(reps, driver.seed(31000), [&](std::uint64_t s) {
      Scenario sc = ScenarioRegistry::instance().build(
          "batch", {.horizon = 8 * n, .seed = s, .n = n, .jam = jam});
      sc.protocol = h_data;
      sc.config.recording = RecordingConfig::success_times();
      return run_scenario(engine, sc);
    });
    const double dn = static_cast<double>(n);
    const auto by2 = collect(results, [&](const SimResult& r) {
      return static_cast<double>(successes_in_window(r, 1, 2 * n)) / dn;
    });
    const auto by4 = collect(results, [&](const SimResult& r) {
      return static_cast<double>(successes_in_window(r, 1, 4 * n)) / dn;
    });
    const auto by8 = collect(results, [&](const SimResult& r) {
      return static_cast<double>(successes_in_window(r, 1, 8 * n)) / dn;
    });
    table.add_row({Cell(jam, 2), mean_sd(by2, 3), mean_sd(by4, 3), mean_sd(by8, 3)});
  }
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: even at 40% jamming a constant fraction (not a vanishing one) of\n"
         "the batch is delivered within a few multiples of n — the property Phase 3\n"
         "of the algorithm is built on.\n";
  return 0;
}

}  // namespace

BenchSpec batch_robustness() {
  BenchSpec spec;
  spec.name = "batch_robustness";
  spec.id = "E4";
  spec.summary = "h_data-batch delivers a constant fraction under jamming";
  spec.claim = "Remark after Claim 3.5.1 / §2";
  spec.outcome =
      "h_data-batch delivers a constant fraction of n within O(n) slots even at "
      "40% jamming";
  spec.flags = {{"n", ParamType::kUint, "4096", "batch size",
                 {.min = 1}, "1024"},
                reps_flag(15, 5)};
  spec.csv_columns = {"jam", "frac_by_2n", "frac_by_4n", "frac_by_8n"};
  spec.csv_row_desc = "one jam-rate row; fractions are mean±sd over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

// E2 "worst-case throughput" — introduction headline claim.
//
// With a constant fraction of all slots jammed (the asymptotically worst
// jamming an algorithm can survive), the paper proves the best possible
// throughput is Θ(1/log t) — and the CJZ algorithm attains it: Θ(t/log t)
// successful transmissions within t slots.
//
// We sweep arrival pressure (paced arrivals n_t ≈ t/(margin·f(t))): at
// margin 4 the system is underloaded and serves everything; at margin 1 it
// runs at the theoretical capacity; at margin 0.5 it is overloaded and the
// success count exposes the Θ(t/log t) ceiling. The normalized column
// successes·log2(t)/t should be flat in t and capped by a constant.
#include <cmath>
#include <ostream>

#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"

namespace cr::benches {

namespace {

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const bool quick = driver.quick();
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));
  const auto max_exp = static_cast<int>(driver.flags().as_uint("max_exp"));

  out << "E2: worst-case throughput under constant-fraction jamming\n"
      << "Prediction: successes*log2(t)/t flat in t and capped by a constant\n"
      << "(Theta(t/log t) messages in t slots is the best possible and is attained).\n\n";

  Table table({"jam rate", "arrival margin", "t", "arrivals", "successes", "served",
               "succ*log2(t)/t"});
  for (const double jam : {0.0, 0.25, 0.4}) {
    for (const double margin : {4.0, 1.0, 0.5}) {
      for (int e = 14; e <= max_exp; e += (quick ? 3 : 2)) {
        const slot_t t = static_cast<slot_t>(1) << e;
        const auto results = driver.replicate(reps, driver.seed(11000), [&](std::uint64_t s) {
          Scenario sc = ScenarioRegistry::instance().build(
              "worst_case", {.horizon = t, .seed = s, .jam = jam, .arrival_margin = margin});
          return run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
        });
        const auto arr = collect(results, [](const SimResult& r) { return double(r.arrivals); });
        const auto succ = collect(results, [](const SimResult& r) { return double(r.successes); });
        const auto served = collect(results, [](const SimResult& r) {
          return r.arrivals ? double(r.successes) / double(r.arrivals) : 1.0;
        });
        const auto norm = collect(results, [&](const SimResult& r) {
          return double(r.successes) * std::log2(double(t)) / double(t);
        });
        table.add_row({Cell(jam, 2), Cell(margin, 2), Cell(static_cast<std::uint64_t>(t)),
                       Cell(arr.mean(), 0), Cell(succ.mean(), 0), Cell(served.mean(), 3),
                       mean_sd(norm, 3)});
      }
    }
  }
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: down each (jam, margin) block the normalized column is flat in t;\n"
         "across margins it saturates at a constant ceiling — goodput Theta(t/log t),\n"
         "even when 40% of all slots are jammed.\n";
  return 0;
}

}  // namespace

BenchSpec worstcase() {
  BenchSpec spec;
  spec.name = "worstcase";
  spec.id = "E2";
  spec.summary = "worst-case throughput under constant-fraction jamming";
  spec.claim = "Introduction headline; Θ(1/log t) optimality";
  spec.outcome =
      "successes·log2(t)/t flat in t, capped by a constant, even at 40% jamming";
  spec.flags = {{"max_exp", ParamType::kUint, "20",
                 "largest horizon exponent: t sweeps 2^14..2^max_exp",
                 {.min = 14, .max = BenchDriver::kMaxExponent}, "17"},
                reps_flag(6, 3)};
  spec.csv_columns = {"jam", "arrival_margin", "t", "arrivals", "successes", "served",
                      "norm_succ"};
  spec.csv_row_desc =
      "one (jam, margin, t) cell; means over reps (norm_succ column is mean±sd)";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

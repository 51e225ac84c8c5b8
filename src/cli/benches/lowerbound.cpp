// E6 "lower-bound tightness" — Theorem 1.3 / Lemma 4.1.
//
// The impossibility proof shows any (f,g)-throughput algorithm must send
// Ω(log²t / log²g(t)) times before its first success when the adversary
// jams a t/(4g)-prefix plus random slots (Theorem 1.3's construction). The
// algorithm's backoff subroutine matches this: its send count before first
// success under that adversary is Θ(log²t / log²g).
//
// We run a single h-backoff node against the Theorem 1.3 adversary and
// report mean sends-before-first-success, normalized by log²t/log²g —
// flatness of that column is the tightness claim.
#include <cmath>
#include <ostream>

#include "adversary/proof_adversaries.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "protocols/baselines.hpp"

namespace cr::benches {

namespace {

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));
  const auto max_exp = static_cast<int>(driver.flags().as_uint("max_exp"));

  out << "E6 (Thm 1.3 / Lemma 4.1): sends before first success vs the lower bound\n"
      << "Theorem 1.3 adversary (prefix + random jamming, one node), h-backoff node.\n"
      << "Prediction: sends ~ c * log2(t)^2 / log2(g)^2 — the normalized column is flat.\n\n";

  Table table({"g", "t", "mean first succ", "mean sends", "log2(t)^2/log2(g)^2", "normalized"});
  for (const double gamma : {4.0, 16.0}) {
    const FunctionSet fs = functions_constant_g(gamma);
    const ProtocolSpec spec =
        factory_protocol("h-backoff", [fs] { return backoff_protocol_factory(fs); });
    const Engine& engine = EngineRegistry::instance().preferred(spec);
    for (int e = 13; e <= max_exp; ++e) {
      const slot_t t = static_cast<slot_t>(1) << e;
      const std::uint64_t base = driver.seed(52000);
      const auto results = driver.replicate(reps, base, [&](std::uint64_t s) {
        // Two independent streams per replication: the scripted adversary's
        // own seed and the simulation seed (matching the serial original).
        const auto adv = theorem13_adversary(t, fs.g, 51000 + (s - base));
        SimConfig cfg;
        cfg.horizon = t;
        cfg.seed = s;
        cfg.stop_when_empty = true;
        return engine.run(spec, *adv, cfg);
      });
      const auto first = collect(results, [&](const SimResult& r) {
        return static_cast<double>(r.first_success == 0 ? t : r.first_success);
      });
      const auto sends =
          collect(results, [](const SimResult& r) { return static_cast<double>(r.total_sends); });
      const double lg = std::log2(static_cast<double>(t));
      const double lgg = std::log2(gamma);
      const double bound = lg * lg / (lgg * lgg);
      table.add_row({Cell(gamma, 0), Cell(static_cast<std::uint64_t>(t)), Cell(first.mean(), 0),
                     mean_sd(sends, 1), Cell(bound, 1), Cell(sends.mean() / bound, 3)});
    }
  }
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: 'normalized' hovers around a constant within each g block while t\n"
         "spans two orders of magnitude — the algorithm's energy matches the\n"
         "Omega(log^2 t / log^2 g) lower bound, hence the trade-off is tight.\n";
  return 0;
}

}  // namespace

BenchSpec lowerbound() {
  BenchSpec spec;
  spec.name = "lowerbound";
  spec.id = "E6";
  spec.summary = "sends before first success vs the lower bound (Thm 1.3)";
  spec.claim = "Theorem 1.3 / Lemma 4.1 tightness";
  spec.outcome = "sends before first success ≈ c·log²t/log²g (normalized column flat)";
  spec.flags = {{"max_exp", ParamType::kUint, "20",
                 "largest horizon exponent: t sweeps 2^13..2^max_exp",
                 {.min = 13, .max = BenchDriver::kMaxExponent}, "17"},
                reps_flag(20, 8)};
  spec.csv_columns = {"g", "t", "first_success_mean", "sends_mean", "bound", "normalized"};
  spec.csv_row_desc = "one (g, t) cell; means over reps (sends_mean is mean±sd)";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

// E5 "non-adaptive fails" — Theorem 4.2.
//
// A protocol that broadcasts with a PRE-DEFINED probability a_i in its i-th
// slot (until the first heard success) cannot achieve optimal throughput
// under jamming. The constructive half: jam a prefix of t/(4·g(t)) slots.
// A decaying non-adaptive sequence (1/i — exponential backoff's profile) has
// already wasted its high-probability slots inside the jammed prefix and
// then needs ~another prefix-length to recover; the paper's adaptive
// backoff subroutine re-draws h(2^k) send slots per stage, so it recovers
// within a constant number of stages.
//
// We inject a single node at slot 1, jam [1, t/16], and measure the time to
// first success beyond the prefix ("excess") and the number of broadcasts.
#include <memory>
#include <ostream>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "cli/benches/benches.hpp"
#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"
#include "exp/scenarios.hpp"
#include "protocols/baselines.hpp"
#include "protocols/batch.hpp"

namespace cr::benches {

namespace {

void measure(const ProtocolSpec& spec, const char* label, slot_t t, const BenchDriver& driver,
             int reps, Table& table) {
  const slot_t prefix = t / 16;
  // Sends under prefix jamming are the measurement, so every contender runs
  // on the per-node reference engine (the cohort engines aggregate).
  const Engine& engine = *EngineRegistry::instance().at("generic");
  const auto results = driver.replicate(reps, driver.seed(41000), [&](std::uint64_t s) {
    ComposedAdversary adv(batch_arrival(1, 1), prefix_jammer(prefix));
    SimConfig cfg;
    cfg.horizon = t;
    cfg.seed = s;
    cfg.stop_when_empty = true;
    return engine.run(spec, adv, cfg);
  });
  const auto first = [t](const SimResult& r) {
    return static_cast<double>(r.first_success == 0 ? t : r.first_success);
  };
  const auto time_acc = collect(results, first);
  const auto excess_acc = collect(results, [&](const SimResult& r) {
    return first(r) - static_cast<double>(prefix);
  });
  const auto sends_acc =
      collect(results, [](const SimResult& r) { return static_cast<double>(r.total_sends); });
  const double solved =
      fraction(results, [](const SimResult& r) { return r.first_success != 0; });
  table.add_row({Cell(static_cast<std::uint64_t>(t)), label,
                 Cell(static_cast<std::uint64_t>(prefix)), Cell(time_acc.mean(), 0),
                 mean_sd(excess_acc, 0), mean_sd(sends_acc, 1), Cell(solved, 2)});
}

int run(const BenchDriver& driver) {
  std::ostream& out = driver.out();
  const bool quick = driver.quick();
  const int reps = static_cast<int>(driver.flags().as_uint("reps"));
  const auto max_exp = static_cast<int>(driver.flags().as_uint("max_exp"));

  out << "E5 (Theorem 4.2): adaptive backoff vs non-adaptive sequences under prefix jam\n"
      << "Single node, slots [1, t/16] jammed. 'excess' = first success - prefix.\n\n";

  const FunctionSet fs = functions_constant_g(4.0);
  const ProtocolSpec adaptive =
      factory_protocol("h-backoff", [fs] { return backoff_protocol_factory(fs); });
  const ProtocolSpec decay_1k = profile_protocol(profiles::h_data());
  const ProtocolSpec decay_slow = profile_protocol(profiles::poly_decay(1.0, 0.75));
  const ProtocolSpec beb =
      factory_protocol("windowed-beb", [] { return windowed_backoff_factory({}); });

  Table table({"t", "protocol", "jam prefix", "first succ", "excess", "sends", "solved"});
  for (int e = 14; e <= max_exp; e += 2) {
    const slot_t t = static_cast<slot_t>(1) << e;
    measure(adaptive, "h-backoff (adaptive)", t, driver, reps, table);
    measure(decay_1k, "non-adaptive 1/k", t, driver, reps, table);
    measure(decay_slow, "non-adaptive 1/k^0.75", t, driver, reps, table);
    measure(beb, "windowed BEB", t, driver, reps, table);
  }
  table.print(out);

  if (!driver.write_csv(table)) return 2;

  out << "\nReading: the adaptive subroutine's excess is a small fraction of the\n"
         "prefix; the 1/k sequence (already decayed) pays ~a full extra prefix.\n"
         "The slower 1/k^0.75 sequence survives jamming — but see the second horn:\n\n";

  // E5b is narrative-only (outside the CSV schema); under --quiet its whole
  // sweep would stream into the null sink — skip it.
  if (driver.quiet()) return 0;

  // Horn 2 of the dilemma: a batch of n nodes injected simultaneously.
  // A sequence that decays slowly enough to survive jamming keeps contention
  // n·k^{-3/4} >> 1 for ~n^{4/3} slots: the first success is superlinearly
  // delayed. The adaptive backoff and the 1/k profile handle this fine.
  out << "E5b (dilemma, second horn): first success after a batch of n nodes, no jam\n"
      << "(profiles measured at large n with the cohort engine; the drift is\n"
      << " ~n^(1/3)/log^(4/3)(n) in the /n column, so it needs big n to show)\n\n";
  Table t2({"n", "protocol", "first succ p50", "first succ /n", "solved"});
  const std::uint64_t max_n = quick ? (1 << 15) : (1 << 18);
  for (std::uint64_t n = 1 << 12; n <= max_n; n <<= (quick ? 1 : 2)) {
    struct Cand {
      const char* label;
      const ProtocolSpec* spec;
      bool adaptive;  ///< needs the O(live·slots) reference engine
    };
    for (const Cand& cand : {Cand{"h-backoff (adaptive)", &adaptive, true},
                             Cand{"non-adaptive 1/k", &decay_1k, false},
                             Cand{"non-adaptive 1/k^0.75", &decay_slow, false}}) {
      // The adaptive contender's ~linear first-success scaling is
      // established by moderate n, so cap it there rather than burn minutes
      // on the largest sizes.
      if (cand.adaptive && n > 8192) {
        t2.add_row({Cell(n), cand.label, "-", "-", "-"});
        continue;
      }
      // First success is early, so the reference engine gets a tight guard
      // horizon; the cohort engine can afford a generous one.
      const slot_t horizon = cand.adaptive ? 8 * n : 64 * n;
      const Engine& engine = EngineRegistry::instance().preferred(*cand.spec);
      const auto results = driver.replicate(reps, driver.seed(43000), [&](std::uint64_t s) {
        ComposedAdversary adv(batch_arrival(n, 1), no_jam());
        SimConfig cfg;
        cfg.horizon = horizon;
        cfg.seed = s;
        cfg.stop_after_first_success = true;
        return engine.run(*cand.spec, adv, cfg);
      });
      Quantiles first;
      for (const SimResult& res : results)
        first.add(static_cast<double>(res.first_success == 0 ? horizon : res.first_success));
      const double solved =
          fraction(results, [](const SimResult& r) { return r.first_success != 0; });
      t2.add_row({Cell(n), cand.label, Cell(first.quantile(0.5), 0),
                  Cell(first.quantile(0.5) / static_cast<double>(n), 2), Cell(solved, 2)});
    }
  }
  t2.print(out);

  out << "\nReading: 1/k^0.75's first-success/n grows with n (superlinear delay from\n"
         "excess contention) while 1/k and the adaptive backoff stay ~linear. No\n"
         "fixed sequence wins both tables simultaneously — Theorem 4.2's dilemma;\n"
         "only the adaptive backoff subroutine is good in both.\n";
  return 0;
}

}  // namespace

BenchSpec nonadaptive() {
  BenchSpec spec;
  spec.name = "nonadaptive";
  spec.id = "E5";
  spec.summary = "adaptive backoff vs non-adaptive sequences (Thm 4.2)";
  spec.claim = "Theorem 4.2 (non-adaptive dilemma)";
  spec.outcome =
      "adaptive h-backoff recovers from a jammed prefix quickly; 1/k pays ~a full "
      "prefix; 1/k^0.75 survives jamming but is superlinearly slow on batches — no "
      "fixed sequence wins both";
  spec.flags = {{"max_exp", ParamType::kUint, "18",
                 "largest horizon exponent for the prefix-jam table",
                 {.min = 14, .max = BenchDriver::kMaxExponent}, "16"},
                reps_flag(20, 8)};
  spec.csv_columns = {"t", "protocol", "jam_prefix", "first_success", "excess", "sends",
                      "solved"};
  spec.csv_row_desc =
      "one (t, protocol) cell of the prefix-jam table (the E5b batch table is "
      "narrative-only); means over reps";
  spec.run = run;
  return spec;
}

}  // namespace cr::benches

/// \file
/// The paper's claims as executable acceptance tests.
///
/// Each entry binds a claim from conf_podc_ChenJZ21 (Chen–Jiang–Zheng,
/// PODC'21: contention resolution with an adversarial jammer and no
/// collision detection) to the suite cells that evidence it and a check
/// over their CSVs. Bounds were calibrated against a full
/// suites/paper_repro.json run and a --quick suites/quick.json run at the
/// repo's fixed seeds, then widened by a safety margin — they assert the
/// claim's *shape* (flat / bounded / dominates), not the exact sample
/// values, so an engine change that keeps the science intact passes while
/// a semantic regression (throughput losing its 1/log t scaling, the
/// adaptive protocol losing its Theorem 4.2 edge, ...) fails.
///
/// Adding a claim: write a file-local check function, register a ClaimSpec
/// for it in register_paper_claims() below, and list its evidence cells —
/// full ids from suites/paper_repro.json, quick ids from suites/quick.json
/// when they differ. tests/test_claims.cpp guards both id sets against the
/// manifests, and docs/EXPERIMENTS.md picks the claim up on regeneration.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "verify/claim_registry.hpp"

namespace cr::verify {
namespace {

using stat::CheckResult;
using stat::check_fail;
using stat::check_pass;

/// Splits a bound constant by evidence mode: quick runs are smaller and
/// noisier (fewer reps, shorter horizons), so they get the wider value.
double pick(const ClaimContext& ctx, double full, double quick) {
  return ctx.quick() ? quick : full;
}

double min_value(const std::vector<NumericCell>& cells) {
  double out = cells.front().value;
  for (const NumericCell& c : cells) out = std::min(out, c.value);
  return out;
}

double max_value(const std::vector<NumericCell>& cells) {
  double out = cells.front().value;
  for (const NumericCell& c : cells) out = std::max(out, c.value);
  return out;
}

double mean_value(const std::vector<NumericCell>& cells) {
  double sum = 0.0;
  for (const NumericCell& c : cells) sum += c.value;
  return sum / static_cast<double>(cells.size());
}

/// All values in [lo, hi]; on failure the message names the violating value.
CheckResult all_in_range(const std::vector<NumericCell>& cells, double lo, double hi,
                         const std::string& what) {
  for (const NumericCell& c : cells) {
    if (const auto r = stat::in_range(c.value, lo, hi); !r)
      return check_fail(what + ": " + r.message);
  }
  std::ostringstream os;
  os << what << ": all " << cells.size() << " values inside [" << lo << ", " << hi << "]";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E1 tradeoff — Theorem 1.2: with arrival rate n_t and departures d_t both
// Theta(t / log t), the success/arrival ratio per window is a regime
// constant: flat in t for each density regime, and the superconstant
// (log^2) regime sits a level above the constant one.
CheckResult check_tradeoff(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const double flat = pick(ctx, 2.5, 3.5);
  const std::vector<std::string> regimes = {"const(4)", "log2(x)", "2^sqrt(log)", "log2(x)^2"};
  double const_mean = 0.0, dense_mean = 0.0;
  for (const std::string& regime : regimes) {
    const auto ratios = ctx.column_where(cell, "ratio", "regime", regime);
    const double lo = min_value(ratios), hi = max_value(ratios);
    ctx.observe(regime + " ratio min", lo);
    ctx.observe(regime + " ratio max", hi);
    if (const auto r = stat::within_factor(lo, hi, flat); !r)
      return check_fail("regime " + regime + " ratio not flat in t: " + r.message);
    if (regime == "const(4)") const_mean = mean_value(ratios);
    if (regime == "log2(x)^2") dense_mean = mean_value(ratios);
  }
  if (const auto r = stat::growth_at_least(const_mean, dense_mean, 4.0); !r)
    return check_fail("log2(x)^2 regime does not dominate const(4): " + r.message);
  std::ostringstream os;
  os << "every regime's ratio flat within " << flat << "x; log2(x)^2 mean " << dense_mean
     << " >= 4x const(4) mean " << const_mean;
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E2 worstcase — Theorem 1.2 / Section 1: against the worst-case adversary
// the protocol serves every arrival when the arrival margin is 4x the
// Theta(t / log t) capacity, and at margin 1 the normalized success rate
// (successes * log2(t) / t) stays a constant bounded away from zero — the
// 1/log t throughput shape, not a collapse.
CheckResult check_worstcase(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const CsvTable& csv = ctx.table(cell);
  const auto margins = ctx.column(cell, "arrival_margin");
  const auto served = ctx.column(cell, "served");
  const auto norm = ctx.column(cell, "norm_succ");
  const double norm_lo = pick(ctx, 1.2, 1.0);
  const double norm_hi = pick(ctx, 3.5, 4.0);
  double norm_min = 1e300, norm_max = 0.0;
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    if (margins[r].value == 4.0) {
      if (const auto ok = stat::in_range(served[r].value, 0.99, 1.0); !ok)
        return check_fail("margin-4 row " + std::to_string(r + 1) + " not fully served: " +
                          ok.message);
    } else if (margins[r].value == 1.0) {
      norm_min = std::min(norm_min, norm[r].value);
      norm_max = std::max(norm_max, norm[r].value);
      if (const auto ok = stat::in_range(norm[r].value, norm_lo, norm_hi); !ok)
        return check_fail("margin-1 row " + std::to_string(r + 1) +
                          " normalized throughput off the 1/log t shape: " + ok.message);
    }
    // margin-0.5 rows (2x overload) are diagnostic only: their small-t end
    // is dominated by start-up noise at quick rep counts.
  }
  ctx.observe("margin-1 norm_succ min", norm_min);
  ctx.observe("margin-1 norm_succ max", norm_max);
  std::ostringstream os;
  os << "margin-4 served == 1 at every (jam, t); margin-1 norm_succ in [" << norm_lo << ", "
     << norm_hi << "]";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E3 batch_completion — Claim 3.5.1: a batch of n stations completes in
// O(n) slots with the paper protocol. cjz finishes 90% of the batch by a
// constant multiple of n (always by 50n), while the h_data baseline
// essentially never does, even given 200n.
CheckResult check_batch_completion(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto cjz_done = ctx.column_where(cell, "p_done_50n", "protocol", "cjz");
  const auto cjz_norm = ctx.column_where(cell, "slots90_over_n", "protocol", "cjz");
  const auto hdata_done = ctx.column_where(cell, "p_done_50n", "protocol", "h_data");
  const auto hdata_200 = ctx.column_where(cell, "p_done_200n", "protocol", "h_data");
  ctx.observe("cjz p_done_50n min", min_value(cjz_done));
  ctx.observe("cjz slots90_over_n max", max_value(cjz_norm));
  ctx.observe("h_data p_done_50n max", max_value(hdata_done));
  ctx.observe("h_data p_done_200n at n_max", hdata_200.back().value);
  if (const auto r = all_in_range(cjz_done, 0.99, 1.0, "cjz p_done_50n"); !r) return r;
  if (const auto r = all_in_range(cjz_norm, 6.0, 12.0, "cjz slots90_over_n"); !r) return r;
  if (const auto r = all_in_range(hdata_done, 0.0, 0.05, "h_data p_done_50n"); !r) return r;
  if (const auto r = stat::in_range(hdata_200.back().value, 0.0, 0.05); !r)
    return check_fail("h_data still completes at the largest n given 200n slots: " + r.message);
  return check_pass("cjz always completes within 50n (90% in <= 12n slots); h_data does not");
}

// ---------------------------------------------------------------------------
// E4 batch_robustness — Remark 3.5: batch completion degrades gracefully
// under jamming; even at jam rate 0.40 a majority of the batch is done
// within 8n slots, and the no-jam completion fraction stays high.
CheckResult check_batch_robustness(ClaimContext& ctx) {
  const double floor_40 = pick(ctx, 0.55, 0.50);
  const double floor_00 = pick(ctx, 0.80, 0.75);
  for (const std::string& cell : ctx.cells()) {
    const auto no_jam = ctx.single_where(cell, "frac_by_8n", "jam", "0.00");
    const auto heavy = ctx.single_where(cell, "frac_by_8n", "jam", "0.40");
    ctx.observe(cell + " frac_by_8n @ jam 0", no_jam.value);
    ctx.observe(cell + " frac_by_8n @ jam 0.40", heavy.value);
    if (const auto r = stat::in_range(no_jam.value, floor_00, 1.0); !r)
      return check_fail(cell + " jam-0 completion: " + r.message);
    if (const auto r = stat::in_range(heavy.value, floor_40, 1.0); !r)
      return check_fail(cell + " jam-0.40 completion: " + r.message);
  }
  std::ostringstream os;
  os << "frac_by_8n >= " << floor_40 << " at jam 0.40 (>= " << floor_00 << " unjammed)";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E5 nonadaptive — Theorem 4.2: a non-adaptive sender schedule cannot have
// it both ways. The adaptive h-backoff recovers from a jammed prefix with a
// fraction of the non-adaptive 1/k protocol's excess delay, and always
// solves; 1/k pays an order of magnitude more delay (and at full sizes
// fails outright in some runs).
CheckResult check_nonadaptive(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const CsvTable& csv = ctx.table(cell);
  if (!csv.column("t") || !csv.column("protocol") || csv.rows.empty())
    throw EvidenceError(ctx.csv_path(cell) + ": missing t/protocol columns or data rows");
  // Compare at the largest t in the file (rows are grouped by t ascending).
  const std::string& t_max = csv.rows.back()[*csv.column("t")];
  const auto row_at = [&](const std::string& protocol, const std::string& column) {
    const auto t_col = *csv.column("t");
    const auto key_col = *csv.column("protocol");
    const auto val_col = csv.column(column);
    if (!val_col) throw EvidenceError(ctx.csv_path(cell) + ": no column \"" + column + "\"");
    for (std::size_t r = 0; r < csv.rows.size(); ++r) {
      if (csv.rows[r][t_col] != t_max || csv.rows[r][key_col] != protocol) continue;
      std::string error;
      const auto v = parse_numeric_cell(csv.rows[r][*val_col], &error);
      if (!v) throw EvidenceError(ctx.csv_path(cell) + ": " + error);
      return *v;
    }
    throw EvidenceError(ctx.csv_path(cell) + ": no row with protocol \"" + protocol +
                        "\" at t=" + t_max);
  };
  const double adaptive = row_at("h-backoff (adaptive)", "excess").value;
  const double oblivious = row_at("non-adaptive 1/k", "excess").value;
  const double windowed = row_at("windowed BEB", "excess").value;
  const double solved = row_at("h-backoff (adaptive)", "solved").value;
  ctx.observe("t", std::stod(t_max));
  ctx.observe("adaptive excess", adaptive);
  ctx.observe("non-adaptive 1/k excess", oblivious);
  ctx.observe("windowed BEB excess", windowed);
  if (const auto r = stat::in_range(solved, 0.99, 1.0); !r)
    return check_fail("adaptive protocol failed to solve: " + r.message);
  const double vs_oblivious = pick(ctx, 0.5, 0.6);
  if (adaptive > vs_oblivious * oblivious) {
    std::ostringstream os;
    os << "adaptive excess " << adaptive << " not <= " << vs_oblivious
       << " * non-adaptive 1/k excess " << oblivious;
    return check_fail(os.str());
  }
  const double vs_windowed = pick(ctx, 0.8, 1.0);
  if (adaptive > vs_windowed * windowed) {
    std::ostringstream os;
    os << "adaptive excess " << adaptive << " not <= " << vs_windowed
       << " * windowed BEB excess " << windowed;
    return check_fail(os.str());
  }
  std::ostringstream os;
  os << "at t=" << t_max << " adaptive recovers in " << adaptive << " excess slots vs "
     << oblivious << " (1/k)";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E6 lowerbound — Theorem 1.3: any protocol sending O(g(t)) times against a
// t-slot jammed prefix needs ~ t + g^{-1}-shaped extra delay; the measured
// first success lands a regime constant times the analytic bound, per send
// budget g, and a larger budget sits closer to the bound.
CheckResult check_lowerbound(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const double flat = pick(ctx, 1.8, 2.0);
  const auto g4 = ctx.column_where(cell, "normalized", "g", "4");
  const auto g16 = ctx.column_where(cell, "normalized", "g", "16");
  for (const auto* vals : {&g4, &g16}) {
    const double lo = min_value(*vals), hi = max_value(*vals);
    if (const auto r = stat::within_factor(lo, hi, flat); !r)
      return check_fail("normalized delay not flat in t: " + r.message);
  }
  ctx.observe("g=4 normalized mean", mean_value(g4));
  ctx.observe("g=16 normalized mean", mean_value(g16));
  if (const auto r = all_in_range(g4, 0.15, 1.5, "g=4 normalized"); !r) return r;
  if (const auto r = all_in_range(g16, 0.15, 1.5, "g=16 normalized"); !r) return r;
  if (const auto r = stat::growth_at_least(mean_value(g4), mean_value(g16), 1.2); !r)
    return check_fail("larger send budget should sit closer to the bound: " + r.message);
  std::ostringstream os;
  os << "first_success/bound flat within " << flat << "x and inside [0.15, 1.5] for both g";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E7 baselines — Section 1 positioning: the paper protocol completes
// batches in Theta(n) like the classic backoffs, while the robust h_data
// baseline pays orders of magnitude more — robustness does not require
// giving up linear completion.
CheckResult check_baselines(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto cjz = ctx.column_where(cell, "completion_over_n", "protocol", "cjz");
  const auto hdata = ctx.column_where(cell, "completion_over_n", "protocol", "h_data");
  const auto cjz_frac = ctx.column_where(cell, "frac_by_32n", "protocol", "cjz");
  ctx.observe("cjz completion_over_n max", max_value(cjz));
  ctx.observe("h_data completion_over_n min", min_value(hdata));
  if (const auto r = all_in_range(cjz, 5.0, 13.0, "cjz completion_over_n"); !r) return r;
  if (const auto r = all_in_range(cjz_frac, 0.99, 1.0, "cjz frac_by_32n"); !r) return r;
  for (std::size_t i = 0; i < cjz.size() && i < hdata.size(); ++i) {
    if (const auto r = stat::growth_at_least(cjz[i].value, hdata[i].value, 4.0); !r)
      return check_fail("h_data not clearly slower at row " + std::to_string(i + 1) + ": " +
                        r.message);
  }
  return check_pass("cjz completes in <= 13n slots at every n; h_data needs >= 4x more");
}

// ---------------------------------------------------------------------------
// E8 first_success — Lemma 3.2: after a batch of m joiners starts, the
// median time to the first success scales linearly in m (a constant near
// log-squared per station, flat across m) and is insensitive to a 0.25
// jamming rate.
CheckResult check_first_success(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto norm = ctx.column(cell, "p50_over_m");
  const auto solved = ctx.column(cell, "solved");
  const double lo_bound = pick(ctx, 2.0, 1.8);
  const double hi_bound = pick(ctx, 4.0, 4.5);
  const double flat = pick(ctx, 1.5, 1.8);
  ctx.observe("p50_over_m min", min_value(norm));
  ctx.observe("p50_over_m max", max_value(norm));
  if (const auto r = all_in_range(solved, 0.99, 1.0, "solved"); !r) return r;
  if (const auto r = all_in_range(norm, lo_bound, hi_bound, "p50_over_m"); !r) return r;
  if (const auto r = stat::within_factor(min_value(norm), max_value(norm), flat); !r)
    return check_fail("p50_over_m not flat across (m, jam): " + r.message);
  return check_pass("median first-success time is a flat multiple of m, jammed or not");
}

// ---------------------------------------------------------------------------
// E9 latency — Corollary 3.6: in the constant-rate regime a burst of b
// arrivals drains with per-packet latency linear in b (p99 a flat small
// multiple of b), nothing is stranded, and the backlog never exceeds the
// burst itself.
CheckResult check_latency(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const CsvTable& csv = ctx.table(cell);
  const auto bursts = ctx.column(cell, "burst");
  const auto stranded = ctx.column(cell, "stranded");
  const auto p99 = ctx.column(cell, "lat_p99");
  const auto backlog = ctx.column(cell, "peak_backlog");
  const auto regime_col = *csv.column("regime");
  const double lo = pick(ctx, 8.0, 7.5);
  const double hi = pick(ctx, 12.0, 12.5);
  double norm_min = 1e300, norm_max = 0.0;
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    if (csv.rows[r][regime_col] != "const(4)") continue;
    const double per_burst = p99[r].value / bursts[r].value;
    norm_min = std::min(norm_min, per_burst);
    norm_max = std::max(norm_max, per_burst);
    if (stranded[r].value != 0.0)
      return check_fail("const(4) burst " + std::to_string(bursts[r].value) + " stranded " +
                        std::to_string(stranded[r].value) + " packets");
    if (const auto ok = stat::in_range(backlog[r].value, 0.0, bursts[r].value); !ok)
      return check_fail("peak backlog exceeds the burst: " + ok.message);
    if (const auto ok = stat::in_range(per_burst, lo, hi); !ok)
      return check_fail("p99 latency per burst unit off the linear shape: " + ok.message);
  }
  if (norm_max == 0.0) throw EvidenceError(ctx.csv_path(cell) + ": no const(4) rows");
  ctx.observe("p99/burst min", norm_min);
  ctx.observe("p99/burst max", norm_max);
  std::ostringstream os;
  os << "const(4) bursts drain fully; p99/burst in [" << lo << ", " << hi << "]";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E10 energy — Section 1 / Theorem 1.2 energy bound: per-node sends to
// batch completion are polylog — mean energy tracks c * log2(n)^2 with a
// small flat c, across n and a 0.25 jam rate.
CheckResult check_energy(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto mean_energy = ctx.column(cell, "energy_mean");
  const auto log2n_sq = ctx.column(cell, "log2n_sq");
  const double lo = pick(ctx, 1.5, 1.2);
  const double hi = pick(ctx, 3.0, 3.2);
  double c_min = 1e300, c_max = 0.0;
  for (std::size_t r = 0; r < mean_energy.size(); ++r) {
    const double c = mean_energy[r].value / log2n_sq[r].value;
    c_min = std::min(c_min, c);
    c_max = std::max(c_max, c);
    if (const auto ok = stat::in_range(c, lo, hi); !ok)
      return check_fail("energy_mean / log2(n)^2 off the polylog shape at row " +
                        std::to_string(r + 1) + ": " + ok.message);
  }
  ctx.observe("energy/log2(n)^2 min", c_min);
  ctx.observe("energy/log2(n)^2 max", c_max);
  if (const auto r = stat::within_factor(c_min, c_max, 1.5); !r)
    return check_fail("energy constant not flat across (n, jam): " + r.message);
  std::ostringstream os;
  os << "energy_mean = c * log2(n)^2 with c in [" << lo << ", " << hi << "], flat within 1.5x";
  return check_pass(os.str());
}

// ---------------------------------------------------------------------------
// E11 ablation — Section 2.1 design choices: the paper's constants matter.
// The full protocol serves the stream completely; thinning the backoff
// density (cf = 0.25) breaks streaming service, and densifying the control
// channel (c3 = 8) inflates batch completion.
CheckResult check_ablation(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto paper_served =
      ctx.single_where(cell, "stream_served", "variant", "paper (swap + phase2)");
  const auto paper_completion =
      ctx.single_where(cell, "completion_over_n", "variant", "paper (swap + phase2)");
  const auto sparse_served =
      ctx.single_where(cell, "stream_served", "variant", "cf = 0.25 (sparse backoff)");
  const auto dense_ctrl =
      ctx.single_where(cell, "completion_over_n", "variant", "c3 = 8 (dense ctrl)");
  ctx.observe("paper stream_served", paper_served.value);
  ctx.observe("sparse-backoff stream_served", sparse_served.value);
  ctx.observe("paper completion_over_n", paper_completion.value);
  ctx.observe("dense-ctrl completion_over_n", dense_ctrl.value);
  if (const auto r = stat::in_range(paper_served.value, 0.99, 1.0); !r)
    return check_fail("paper variant no longer serves the stream: " + r.message);
  if (const auto r = stat::in_range(paper_completion.value, 9.0, 16.0); !r)
    return check_fail("paper variant completion off its O(n) constant: " + r.message);
  if (const auto r = stat::in_range(sparse_served.value, 0.0, 0.8); !r)
    return check_fail("sparse backoff unexpectedly keeps full service (ablation lost its "
                      "teeth): " + r.message);
  if (const auto r = stat::growth_at_least(paper_completion.value, dense_ctrl.value, 1.15); !r)
    return check_fail("dense control channel should inflate completion: " + r.message);
  return check_pass("full protocol serves the stream; sparse backoff breaks service; dense "
                    "control pays >= 1.15x completion");
}

// ---------------------------------------------------------------------------
// E12 cd_contrast — Section 1 (model contrast): collision detection makes
// the problem easy (O(n) with a small constant); without CD the paper
// protocol still completes in O(n), while the naive no-CD transplant blows
// past the measurement horizon entirely.
CheckResult check_cd_contrast(ClaimContext& ctx) {
  const std::string& cell = ctx.cells().front();
  const auto with_cd = ctx.column(cell, "cd_backon_over_n");
  const auto cjz = ctx.column(cell, "cjz_over_n");
  const auto no_cd = ctx.column(cell, "no_cd_over_n");
  ctx.observe("cd_backon_over_n max", max_value(with_cd));
  ctx.observe("cjz_over_n max", max_value(cjz));
  if (const auto r = all_in_range(with_cd, 2.0, 7.0, "cd_backon_over_n"); !r) return r;
  if (const auto r = all_in_range(cjz, 7.0, 15.0, "cjz_over_n"); !r) return r;
  for (std::size_t r = 0; r < no_cd.size(); ++r) {
    if (!no_cd[r].censored || no_cd[r].value < 20.0) {
      std::ostringstream os;
      os << "no-CD transplant finished within the horizon at row " << (r + 1)
         << " (expected a censored >=20n cell, got " << no_cd[r].value << ")";
      return check_fail(os.str());
    }
  }
  return check_pass("CD backon <= 7n, cjz <= 15n, naive no-CD censored at >= 20n everywhere");
}

// ---------------------------------------------------------------------------
// Scenario sweeps (suites' scenario cells): end-to-end service properties
// of the composed system, one level up from the single-bench tables.

// Batch scenario under 0.25 jamming: the full batch is served and nothing
// is left in the backlog at the horizon.
CheckResult check_scenario_batch(ClaimContext& ctx) {
  for (const std::string& cell : ctx.cells()) {
    const auto served = ctx.column(cell, "served");
    const auto backlog = ctx.column(cell, "backlog_at_end");
    ctx.observe(cell + " served", served.front().value);
    if (const auto r = stat::in_range(served.front().value, 0.999, 1.0); !r)
      return check_fail(cell + ": " + r.message);
    if (const auto r = stat::in_range(backlog.front().value, 0.0, 0.0); !r)
      return check_fail(cell + " backlog at end: " + r.message);
  }
  return check_pass("batch fully served with empty final backlog under 0.25 jamming");
}

// Worst-case arrival scenario under 0.25 jamming: the Theta(t / log t)
// arrival stream is still fully served.
CheckResult check_scenario_worstcase(ClaimContext& ctx) {
  for (const std::string& cell : ctx.cells()) {
    const auto served = ctx.column(cell, "served");
    ctx.observe(cell + " served", served.front().value);
    if (const auto r = stat::in_range(served.front().value, 0.999, 1.0); !r)
      return check_fail(cell + ": " + r.message);
  }
  return check_pass("worst-case arrival stream fully served under 0.25 jamming");
}

// The iid jammer realizes its nominal rate (the adversary the other claims
// assume is actually being applied), and the stream stays served under it.
// The rate is judged per cell and `served` on the mean over the cells: at
// quick sizes one cell's end-of-horizon backlog dips below 0.99 by chance,
// while an underserved stream still reads far below the bound.
CheckResult check_scenario_jam_rate(ClaimContext& ctx) {
  double served_sum = 0.0;
  for (const std::string& cell : ctx.cells()) {
    const auto jammed = ctx.column(cell, "jammed");
    const auto slots = ctx.column(cell, "slots");
    const double rate = jammed.front().value / slots.front().value;
    ctx.observe(cell + " realized jam rate", rate);
    if (const auto r = stat::in_range(rate, 0.22, 0.28); !r)
      return check_fail(cell + " iid jammer off its 0.25 rate: " + r.message);
    served_sum += ctx.column(cell, "served").front().value;
  }
  const double served = served_sum / static_cast<double>(ctx.cells().size());
  ctx.observe("mean served", served);
  if (const auto r = stat::in_range(served, 0.99, 1.0); !r)
    return check_fail("mean served over the cells: " + r.message);
  return check_pass("realized jam rate within [0.22, 0.28] of nominal 0.25; stream served");
}

}  // namespace

void register_paper_claims(ClaimRegistry& registry) {
  registry.add(
      {.id = "thm1.2-tradeoff",
       .title = "Throughput/density tradeoff is a flat regime constant",
       .statement = "Theorem 1.2: at arrival and departure rates Theta(t / log t), the "
                    "per-window success/arrival ratio is a constant of the density regime, "
                    "flat in t; denser send regimes buy a strictly higher constant.",
       .bound = "per-regime ratio spread <= 2.5x; log2(x)^2 mean >= 4x const(4) mean",
       .quick_bound = "per-regime ratio spread <= 3.5x; log2(x)^2 mean >= 4x const(4) mean",
       .cells = {"tradeoff__seed-default"},
       .columns = {"regime", "ratio"},
       .check = &check_tradeoff});
  registry.add(
      {.id = "thm1.2-worstcase",
       .title = "Worst-case throughput keeps the 1/log t shape",
       .statement = "Theorem 1.2 / Section 1: the worst-case adversarial arrival stream at "
                    "4x capacity margin is fully served at every jam rate, and at margin 1 "
                    "the success rate normalized by log2(t)/t stays a constant bounded away "
                    "from zero.",
       .bound = "margin-4 served = 1 +- 0.01; margin-1 norm_succ in [1.2, 3.5]",
       .quick_bound = "margin-4 served = 1 +- 0.01; margin-1 norm_succ in [1.0, 4.0]",
       .cells = {"worstcase__seed-default"},
       .columns = {"arrival_margin", "served", "norm_succ"},
       .check = &check_worstcase});
  registry.add(
      {.id = "claim3.5.1-completion",
       .title = "Batch completion is O(n); the robust baseline's is not",
       .statement = "Claim 3.5.1: a batch of n stations completes in O(n) slots — cjz "
                    "always finishes within 50n (90% within 12n), while h_data fails to "
                    "finish even within 200n at the larger n.",
       .bound = "cjz p_done_50n = 1, slots90_over_n in [6, 12]; h_data p_done_50n <= 0.05 "
                "and p_done_200n <= 0.05 at n_max",
       .cells = {"batch_completion__seed-default"},
       .columns = {"protocol", "p_done_50n", "p_done_200n", "slots90_over_n"},
       .check = &check_batch_completion});
  registry.add(
      {.id = "rem3.5-robustness",
       .title = "Batch completion degrades gracefully under jamming",
       .statement = "Remark 3.5: jamming slows batch completion by at most a constant "
                    "factor — at jam rate 0.40 a majority of the batch still completes "
                    "within 8n slots.",
       .bound = "frac_by_8n >= 0.55 at jam 0.40 and >= 0.80 at jam 0",
       .quick_bound = "frac_by_8n >= 0.50 at jam 0.40 and >= 0.75 at jam 0",
       .cells = {"batch_robustness__n-1024__seed-default",
                 "batch_robustness__n-4096__seed-default"},
       .quick_cells = {"batch_robustness__n-256__seed-31000"},
       .columns = {"jam", "frac_by_8n"},
       .check = &check_batch_robustness});
  registry.add(
      {.id = "thm4.2-nonadaptive",
       .title = "Non-adaptive protocols pay for jammed prefixes; adaptive ones do not",
       .statement = "Theorem 4.2: after a jammed prefix, the adaptive h-backoff protocol's "
                    "excess delay is a fraction of the non-adaptive 1/k protocol's (and no "
                    "worse than windowed BEB's), while still always solving.",
       .bound = "at t_max: adaptive excess <= 0.5x non-adaptive 1/k and <= 0.8x windowed "
                "BEB; adaptive solves",
       .quick_bound = "at t_max: adaptive excess <= 0.6x non-adaptive 1/k and <= 1.0x "
                      "windowed BEB; adaptive solves",
       .cells = {"nonadaptive__seed-default"},
       .columns = {"t", "protocol", "excess", "solved"},
       .check = &check_nonadaptive});
  registry.add(
      {.id = "thm1.3-lowerbound",
       .title = "Measured delay tracks the send-budget lower bound",
       .statement = "Theorem 1.3: with a per-station send budget g(t), the first success "
                    "after a jammed prefix lands a flat constant times the analytic lower "
                    "bound, and a larger budget sits closer to it.",
       .bound = "per-g normalized delay spread <= 1.8x, inside [0.15, 1.5]; g=16 mean >= "
                "1.2x g=4 mean",
       .quick_bound = "per-g normalized delay spread <= 2.0x, inside [0.15, 1.5]; g=16 "
                      "mean >= 1.2x g=4 mean",
       .cells = {"lowerbound__seed-default"},
       .columns = {"g", "normalized"},
       .check = &check_lowerbound});
  registry.add(
      {.id = "sec1-baselines",
       .title = "Linear completion does not cost robustness",
       .statement = "Section 1: the paper protocol completes batches in Theta(n) like the "
                    "classic backoff family, while the robust h_data baseline pays >= 4x "
                    "(orders of magnitude at larger n).",
       .bound = "cjz completion_over_n in [5, 13] with frac_by_32n = 1; h_data >= 4x cjz "
                "at every n",
       .cells = {"baselines__seed-default"},
       .columns = {"protocol", "completion_over_n", "frac_by_32n"},
       .check = &check_baselines});
  registry.add(
      {.id = "lem3.2-first-success",
       .title = "First success after a join burst is linear in the burst",
       .statement = "Lemma 3.2: after m stations join, the median first-success time is a "
                    "flat constant times m, insensitive to a 0.25 jam rate, and every "
                    "instance solves.",
       .bound = "p50_over_m in [2, 4], flat within 1.5x; solved = 1",
       .quick_bound = "p50_over_m in [1.8, 4.5], flat within 1.8x; solved = 1",
       .cells = {"first_success__seed-default"},
       .columns = {"p50_over_m", "solved"},
       .check = &check_first_success});
  registry.add(
      {.id = "cor3.6-latency",
       .title = "Burst latency is linear in the burst size",
       .statement = "Corollary 3.6: in the constant-rate regime a burst of b arrivals "
                    "drains completely (nothing stranded, backlog never above b) with p99 "
                    "latency a flat small multiple of b.",
       .bound = "const(4): stranded = 0, peak_backlog <= burst, p99/burst in [8, 12]",
       .quick_bound = "const(4): stranded = 0, peak_backlog <= burst, p99/burst in "
                      "[7.5, 12.5]",
       .cells = {"latency__seed-default"},
       .columns = {"regime", "burst", "stranded", "lat_p99", "peak_backlog"},
       .check = &check_latency});
  registry.add(
      {.id = "thm1.2-energy",
       .title = "Per-node energy is polylog",
       .statement = "Theorem 1.2 (energy): sends per node to batch completion track "
                    "c * log2(n)^2 with a small constant c, flat across n and a 0.25 jam "
                    "rate.",
       .bound = "energy_mean / log2(n)^2 in [1.5, 3.0], flat within 1.5x",
       .quick_bound = "energy_mean / log2(n)^2 in [1.2, 3.2], flat within 1.5x",
       .cells = {"energy__seed-default"},
       .quick_cells = {"energy__max_n-128__seed-91000"},
       .columns = {"energy_mean", "log2n_sq"},
       .check = &check_energy});
  registry.add(
      {.id = "sec2.1-ablation",
       .title = "The protocol's constants are load-bearing",
       .statement = "Section 2.1: the published constants matter — the full protocol "
                    "serves the stream completely, thinning the backoff density breaks "
                    "streaming service, and densifying the control channel inflates batch "
                    "completion.",
       .bound = "paper variant: stream_served = 1, completion_over_n in [9, 16]; sparse "
                "backoff serves <= 0.8; dense ctrl completion >= 1.15x paper",
       .cells = {"ablation__seed-default"},
       .columns = {"variant", "stream_served", "completion_over_n"},
       .check = &check_ablation});
  registry.add(
      {.id = "sec1-cd-contrast",
       .title = "No collision detection is the hard part",
       .statement = "Section 1 (model): with collision detection batch resolution is easy "
                    "(small-constant O(n)); the paper protocol matches O(n) without CD, "
                    "while the naive no-CD transplant never finishes within the 20n "
                    "horizon.",
       .bound = "cd_backon_over_n in [2, 7]; cjz_over_n in [7, 15]; no_cd censored at "
                ">= 20n everywhere",
       .cells = {"cd_contrast__seed-default"},
       .columns = {"cd_backon_over_n", "cjz_over_n", "no_cd_over_n"},
       .check = &check_cd_contrast});
  registry.add(
      {.id = "scenario-batch-clears",
       .title = "Composed batch scenario clears its backlog under jamming",
       .statement = "End-to-end scenario sweep: the batch workload on the registry-composed "
                    "engine path is fully served with an empty final backlog at jam 0.25.",
       .bound = "served >= 0.999 and backlog_at_end = 0",
       .cells = {"scenario__scenario-batch__jam-0.25__seed-50000"},
       .quick_cells = {"scenario__scenario-batch__jam-0.25__horizon-4096__n-64__seed-1",
                       "scenario__scenario-batch__jam-0.25__horizon-4096__n-64__seed-2"},
       .columns = {"served", "backlog_at_end"},
       .check = &check_scenario_batch});
  registry.add(
      {.id = "scenario-worstcase-served",
       .title = "Composed worst-case scenario stays fully served",
       .statement = "End-to-end scenario sweep: the Theta(t / log t) worst-case arrival "
                    "stream is fully served under 0.25 jamming through the composed "
                    "workload path.",
       .bound = "served >= 0.999",
       .cells = {"scenario__scenario-worst_case__jam-0.25__seed-50000"},
       .quick_cells = {"scenario__scenario-worst_case__jam-0.25__horizon-4096__seed-1",
                       "scenario__scenario-worst_case__jam-0.25__horizon-4096__seed-2"},
       .columns = {"served"},
       .check = &check_scenario_worstcase});
  registry.add(
      {.id = "scenario-iid-jam-rate",
       .title = "The iid jammer delivers its nominal rate",
       .statement = "Adversary sanity for every other claim: the iid jammer's realized "
                    "jam-slot fraction matches its nominal 0.25 rate, and the Bernoulli "
                    "stream stays served under it.",
       .bound = "jammed/slots in [0.22, 0.28] per cell; mean served over cells >= 0.99",
       .cells = {"scenario__scenario-bernoulli_stream__jam-0.25__seed-50000"},
       .quick_cells =
           {"scenario__scenario-bernoulli_stream__jam-0.25__horizon-4096__seed-1",
            "scenario__scenario-bernoulli_stream__jam-0.25__horizon-4096__seed-2"},
       .columns = {"jammed", "slots", "served"},
       .check = &check_scenario_jam_rate});
}

}  // namespace cr::verify

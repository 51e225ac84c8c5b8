/// \file
/// The plan path: event-driven CJZ runs for sweeps whose adversary is known
/// before the sweep starts.
///
/// When neither workload component reads the history, the adversary's entire
/// behaviour is computable up front: deterministic arrivals/jams go into one
/// schedule and jam bitmap every seed shares, i.i.d. components become
/// per-seed coin parameters. replicate_workload builds one LockstepPlan per
/// sweep and hands it to each seed's adversary (Adversary::plan());
/// FastCjzSimulator::run then calls run_plan(). Single runs never carry one.
///
/// run_plan() steps only slots with an arrival due, a calendar wake-up or a
/// live cohort. A skipped slot provably consumes no draw on the counter
/// substrate (CjzCore::next_event_slot), so only its slot/active/jam counters
/// move, and those are fixed up arithmetically. The i.i.d. coins come from
/// the live components' streams, in their slot order and word consumption,
/// so a plan-path run is bit-identical to the per-slot loop at the same seed
/// — except for the analytic tail: once the seed has no live node past
/// `quiet_after`, one Binomial(remaining, tail_jam) draw on the kLockstepTail
/// stream replaces the remaining jam coins, and jammed_slots then matches
/// the per-slot loop in distribution only.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/functions.hpp"
#include "engine/cjz_core.hpp"
#include "engine/sim_result.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {

/// Precomputed adversary behaviour for one sweep. Only valid for workloads
/// whose components never read the PublicHistory; the exp layer builds it
/// from the component names (lockstep_plan in exp/workload.hpp) and leaves
/// `valid` false for anything it cannot prove.
struct LockstepPlan {
  bool valid = false;
  /// The horizon the plan was built for (run_plan checks the run's).
  slot_t horizon = 0;

  /// Arrival side. Either a shared deterministic schedule of (slot, count)
  /// pairs, slots increasing and counts > 0 (shared because the plannable
  /// arrival components are seed-independent), or per-seed Bernoulli coins:
  /// floor(rate) certain arrivals plus one frac(rate)-coin per slot of
  /// [arrival_from, arrival_to], arrival_from >= 1.
  bool bernoulli_arrivals = false;
  std::vector<std::pair<slot_t, std::uint64_t>> schedule;
  double arrival_rate = 0.0;
  slot_t arrival_from = 1;
  slot_t arrival_to = 0;

  /// Jam side. Either a shared deterministic jam bitmap (bit s = slot s
  /// jammed), or per-seed i.i.d. coins at `jam_rate`.
  bool iid_jams = false;
  std::vector<std::uint64_t> jam_bits;
  double jam_rate = 0.0;

  /// Analytic tail: no arrival can occur at any slot > quiet_after, and the
  /// slots past it are jammed i.i.d. at tail_jam (< 0: not certifiable — no
  /// tail).
  slot_t quiet_after = 0;
  double tail_jam = -1.0;

  /// Size `jam_bits` for `horizon` (all clear); call before add_jam().
  void clear_jams(slot_t horizon);
  /// Mark slot `slot` (in [1, horizon]) jammed in the shared bitmap.
  void add_jam(slot_t slot);
};

/// Can a run with `config` take the plan path? It needs every counter to be
/// reconstructible from the plan: a per-slot trace wants every slot
/// materialized, and a stop flag truncates the jam coins at the stop slot.
bool plan_path_allowed(const SimConfig& config);

/// One seed (config.seed) of `plan` on the event-driven loop. `plan.valid`,
/// plan_path_allowed(config) and plan.horizon == config.horizon must hold.
/// `memory` (optional) receives the core's node-table footprint.
SimResult run_plan(const FunctionSet& fs, CjzOptions options, const SimConfig& config,
                   const LockstepPlan& plan, CjzCoreMemoryStats* memory = nullptr);

}  // namespace cr

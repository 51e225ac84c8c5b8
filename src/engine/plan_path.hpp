/// \file
/// The plan path: event-driven CJZ runs for sweeps whose adversary is known
/// before the sweep starts.
///
/// replicate_workload asks the sweep's adversary for an AdversaryPlan
/// (adversary/plan.hpp) once and hands it to each seed's adversary
/// (Adversary::plan()); FastCjzSimulator::run then calls run_plan(). Single
/// runs never carry one.
///
/// run_plan() steps only slots with an arrival due, a calendar wake-up or a
/// live cohort. A skipped slot provably consumes no draw on the counter
/// substrate (CjzCore::next_event_slot), so only its slot/active/jam counters
/// move, and those are fixed up arithmetically. The i.i.d. coins come from
/// the live components' streams, in their slot order and word consumption,
/// so a plan-path run is bit-identical to the per-slot loop at the same seed
/// — except for the analytic tail: once the seed has no live node past
/// `quiet_after`, one Binomial(remaining, tail_jam) draw on the kPlanTail
/// stream replaces the remaining jam coins, and jammed_slots then matches
/// the per-slot loop in distribution only.
#pragma once

#include "adversary/plan.hpp"
#include "common/functions.hpp"
#include "engine/cjz_core.hpp"
#include "engine/sim_result.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {

/// Can a run with `config` take the plan path? It needs every counter to be
/// reconstructible from the plan: a per-slot trace wants every slot
/// materialized, and a stop flag truncates the jam coins at the stop slot.
bool plan_path_allowed(const SimConfig& config);

/// One seed (config.seed) of `plan` on the event-driven loop. `plan.valid`,
/// plan_path_allowed(config) and plan.horizon == config.horizon must hold.
/// `memory` and `work` (optional) receive the core's node-table footprint and
/// its work counts, with slots_skipped and plan_path filled in.
SimResult run_plan(const FunctionSet& fs, CjzOptions options, const SimConfig& config,
                   const AdversaryPlan& plan, CjzCoreMemoryStats* memory = nullptr,
                   CjzCoreWork* work = nullptr);

}  // namespace cr

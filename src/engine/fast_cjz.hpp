/// \file
/// Fast simulator for the CJZ algorithm.
///
/// Exploits two structural facts about the algorithm:
///
///   1. Every node in Phase 3 restarted at some success slot l₃, and every
///      success slot merges all Phase-3 populations whose control channel has
///      that slot's parity (plus the Phase-2 nodes waiting on it) into ONE
///      synchronized cohort. Members of a cohort are exchangeable: the number
///      of transmitters per slot is Binomial(m, p(slot, l₃)), one draw per
///      cohort per slot instead of m Bernoulli draws.
///
///   2. Phase-1/2 backoff transmissions are sparse — h(2^k) per stage of
///      length 2^k — so they live in a calendar queue (a timing wheel); a
///      slot's backoff senders are read off it in O(1) time per event.
///
/// Net cost: O(#cohorts + #due events) per slot, which lets the benches run
/// t up to 2²² with 10⁵–10⁶ nodes. Semantics match GenericSimulator +
/// CjzFactory (cross-validated statistically in tests/test_cross_engine.cpp).
///
/// Under RecordingTier::kNodeStats every transmission is attributed to a
/// concrete node: backoff sends are explicit calendar events, and a cohort's
/// binomial count is distributed over a uniformly sampled member subset (the
/// exact conditional law) drawn from a dedicated attribution RNG stream —
/// latency AND energy reports work here, and the trajectory is bit-identical
/// across recording tiers.
///
/// The cohort/calendar machinery itself lives in engine/cjz_core.hpp
/// (CjzCore, on the counter-based RNG substrate); this class is the driver.
/// A single run steps the core once per slot against the live adversary; a
/// sweep's run whose adversary carries a plan takes the event-driven plan
/// path instead (engine/plan_path.hpp).
#pragma once

#include "adversary/adversary.hpp"
#include "common/functions.hpp"
#include "engine/cjz_core.hpp"
#include "engine/sim_result.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {

/// Cohort-based CJZ engine (see file comment for the two structural
/// facts it exploits). One instance per run.
class FastCjzSimulator {
 public:
  /// `adversary` must outlive run(); `fs` parameterises the algorithm.
  FastCjzSimulator(FunctionSet fs, Adversary& adversary, SimConfig config,
                   CjzOptions options = {});

  /// Optional per-slot metrics hook (not owned).
  void set_observer(SlotObserver* observer) { observer_ = observer; }

  /// Execute the run described by the constructor arguments.
  SimResult run();

  /// Resident node-table footprint of the last run (valid after run()).
  /// Departed nodes' slots are recycled, so node_table_slots tracks peak
  /// live nodes, not total arrivals.
  CjzCoreMemoryStats memory_stats() const { return memory_stats_; }

  /// Work counts of the last run (valid after run()).
  CjzCoreWork work() const { return work_; }

 private:
  FunctionSet fs_;
  Adversary& adversary_;
  SimConfig config_;
  CjzOptions options_;
  SlotObserver* observer_ = nullptr;
  CjzCoreMemoryStats memory_stats_;
  CjzCoreWork work_;
};

/// Convenience one-shot runner.
SimResult run_fast_cjz(const FunctionSet& fs, Adversary& adversary, const SimConfig& config,
                       SlotObserver* observer = nullptr, CjzOptions options = {});

}  // namespace cr

/// \file
/// Shared simulation configuration / result types and the observer hook.
///
/// All engines (generic and the cohort-based fast ones) produce the same
/// SimResult, honour the same tiered RecordingConfig and drive the same
/// SlotObserver interface, so metrics are engine-agnostic: anything
/// latency_report()/energy_report() can compute from a generic run it can
/// compute from a fast run too.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/types.hpp"

namespace cr {

/// How much per-run observability to pay for. Tiers are cumulative: each one
/// records everything the previous tier records.
///
///   tier          | extra per-slot cost                  | unlocks
///   --------------|--------------------------------------|------------------
///   kNone         | —                                    | aggregate counters
///   kSuccessTimes | O(1) per success                     | successes_in_window
///   kNodeStats    | O(#sends) attribution + per-node row | latency/energy reports
///   kFullTrace    | O(1) copy per slot                   | SimResult::slot_outcomes
///
/// On the fast engines kNodeStats attributes every cohort transmission to a
/// concrete member (uniform over the cohort, which is exactly the conditional
/// law of "who sent" given the binomial count). Attribution draws from a
/// dedicated RNG stream, so the simulated trajectory — success times, totals,
/// every aggregate counter — is bit-identical across recording tiers.
enum class RecordingTier : std::uint8_t {
  kNone = 0,
  kSuccessTimes = 1,
  kNodeStats = 2,
  kFullTrace = 3,
};

struct RecordingConfig {
  RecordingTier tier = RecordingTier::kNone;

  constexpr bool wants_success_times() const { return tier >= RecordingTier::kSuccessTimes; }
  constexpr bool wants_node_stats() const { return tier >= RecordingTier::kNodeStats; }
  constexpr bool wants_trace() const { return tier >= RecordingTier::kFullTrace; }

  static constexpr RecordingConfig none() { return {RecordingTier::kNone}; }
  static constexpr RecordingConfig success_times() { return {RecordingTier::kSuccessTimes}; }
  static constexpr RecordingConfig node_stats() { return {RecordingTier::kNodeStats}; }
  static constexpr RecordingConfig full_trace() { return {RecordingTier::kFullTrace}; }

  friend bool operator==(const RecordingConfig&, const RecordingConfig&) = default;
};

struct SimConfig {
  slot_t horizon = 1 << 16;   ///< simulate slots 1..horizon (inclusive)
  std::uint64_t seed = 1;     ///< master seed; every engine RNG stream forks from it
  /// Stop early once at least one node has arrived and the system drained.
  bool stop_when_empty = false;
  /// Stop right after the first successful transmission (first-success
  /// experiments; avoids simulating the irrelevant tail).
  bool stop_after_first_success = false;
  /// Observability tier (see RecordingTier); honoured by every engine.
  RecordingConfig recording;
  /// Safety valve: abort (CR_CHECK) before an injection that would take the
  /// live population past this.
  std::uint64_t max_live_nodes = 10'000'000;
};

struct NodeStats {
  node_id id = kNoNode;
  slot_t arrival = 0;
  slot_t departure = 0;  ///< 0 = still in the system at the end
  std::uint64_t sends = 0;

  bool departed() const { return departure != 0; }
  /// Slots spent in the system (valid when departed).
  std::uint64_t latency() const { return departure - arrival + 1; }

  friend bool operator==(const NodeStats&, const NodeStats&) = default;
};

struct SimResult {
  slot_t slots = 0;                 ///< slots actually simulated
  std::uint64_t arrivals = 0;       ///< nodes injected over the run
  std::uint64_t successes = 0;      ///< messages delivered
  std::uint64_t jammed_slots = 0;   ///< slots the adversary jammed
  std::uint64_t active_slots = 0;   ///< slots with >=1 node in the system
  std::uint64_t total_sends = 0;    ///< transmissions incl. collisions
  std::uint64_t live_at_end = 0;    ///< backlog remaining when the run stopped
  slot_t first_success = 0;         ///< 0 = no success
  slot_t last_success = 0;          ///< 0 = no success

  std::vector<slot_t> success_times;    ///< tier >= kSuccessTimes
  std::vector<NodeStats> node_stats;    ///< tier >= kNodeStats
  std::vector<SlotOutcome> slot_outcomes;  ///< tier >= kFullTrace (per slot)

  /// Field-wise equality — what "bit-identical replication" means in the
  /// parallel-vs-serial determinism tests and the cross-engine fuzz loop.
  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// Per-slot hook shared by all engines; `injected` counts this slot's
/// arrivals, `live_nodes` the population during the slot (post-injection).
class SlotObserver {
 public:
  virtual ~SlotObserver() = default;
  virtual void on_slot(const SlotOutcome& out, std::uint64_t injected, std::uint64_t live_nodes) = 0;
  /// Called once by every engine after the last slot, with the finished
  /// result — streaming observers flush partial windows here.
  virtual void on_run_end(const SimResult& result) { (void)result; }
};

/// Fans one engine observer slot into several observers (null entries are
/// skipped), so a run can stream e.g. a ThroughputChecker and a
/// WindowedMetrics side by side.
class ObserverChain final : public SlotObserver {
 public:
  ObserverChain() = default;
  ObserverChain(std::initializer_list<SlotObserver*> observers) {
    for (SlotObserver* obs : observers) add(obs);
  }

  void add(SlotObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void on_slot(const SlotOutcome& out, std::uint64_t injected, std::uint64_t live_nodes) override {
    for (SlotObserver* obs : observers_) obs->on_slot(out, injected, live_nodes);
  }
  void on_run_end(const SimResult& result) override {
    for (SlotObserver* obs : observers_) obs->on_run_end(result);
  }

 private:
  std::vector<SlotObserver*> observers_;
};

}  // namespace cr

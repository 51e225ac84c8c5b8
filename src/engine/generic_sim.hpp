/// \file
/// Reference simulator: per-node, per-slot, arbitrary NodeProtocol.
///
/// Semantics (one slot):
///   1. adversary decides (jam?, inject k) from public history
///   2. k new nodes join (they participate in this very slot)
///   3. every live node decides send/listen
///   4. channel resolves: success iff exactly one sender and not jammed
///   5. everyone observes the public feedback; the winner leaves
///
/// This engine is the semantic ground truth the fast engines are validated
/// against. Cost is O(live nodes) per slot.
#pragma once

#include <memory>

#include "adversary/adversary.hpp"
#include "engine/sim_result.hpp"
#include "protocols/protocol.hpp"

namespace cr {

/// Reference per-node engine (semantic ground truth); one instance per run.
class GenericSimulator {
 public:
  /// `factory` and `adversary` must outlive run().
  GenericSimulator(ProtocolFactory& factory, Adversary& adversary, SimConfig config);

  /// Optional per-slot metrics hook (not owned).
  void set_observer(SlotObserver* observer) { observer_ = observer; }

  SimResult run();

 private:
  ProtocolFactory& factory_;
  Adversary& adversary_;
  SimConfig config_;
  SlotObserver* observer_ = nullptr;
};

/// Convenience one-shot runner.
SimResult run_generic(ProtocolFactory& factory, Adversary& adversary, const SimConfig& config,
                      SlotObserver* observer = nullptr);

}  // namespace cr

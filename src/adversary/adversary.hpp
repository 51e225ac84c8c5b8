// Adversary framework.
//
// An adversary decides, at the start of each slot and based only on public
// feedback, (a) whether to jam the slot and (b) how many new nodes to
// inject. Per the model this makes it exactly as powerful as the paper's
// adaptive Eve: it moves first each slot and sees the same channel feedback
// as the nodes (no collision detection).
//
// Most experiments compose an ArrivalProcess with a Jammer via
// ComposedAdversary; the scripted lower-bound adversaries implement
// Adversary directly (see proof_adversaries.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "adversary/plan.hpp"
#include "channel/trace.hpp"
#include "channel/types.hpp"
#include "common/rng.hpp"

namespace cr {

struct AdversaryAction {
  bool jam = false;
  std::uint64_t inject = 0;  ///< nodes arriving at the beginning of this slot
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Decide the action for `slot` (== history.slots() + 1).
  virtual AdversaryAction on_slot(slot_t slot, const PublicHistory& history, Rng& rng) = 0;

  virtual std::string name() const = 0;

  /// This adversary's whole behaviour, precomputed for a sweep's plan path
  /// (engine/plan_path.hpp), or null. Only sweeps attach one
  /// (replicate_workload); an engine that can use it may skip on_slot()
  /// entirely, one that cannot ignores it.
  virtual const AdversaryPlan* plan() const { return nullptr; }

  /// Describe this adversary's whole behaviour over [1, plan.horizon] in
  /// `plan`; true when it could (the default, false: it reads the history
  /// or the run seed). Filling may step its state: plan on a fresh one.
  virtual bool fill_plan(AdversaryPlan& /*plan*/) { return false; }
};

/// Arrival side of a composed adversary.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual std::uint64_t arrivals(slot_t slot, const PublicHistory& history, Rng& rng) = 0;
  virtual std::string name() const = 0;

  /// Adversary::fill_plan for the arrival side, asked before the jammer:
  /// the shared schedule or the Bernoulli coin fields, and quiet_after when
  /// the last arrival slot is known.
  virtual bool fill_plan(AdversaryPlan& /*plan*/) { return false; }
};

/// Jamming side of a composed adversary.
class Jammer {
 public:
  virtual ~Jammer() = default;
  virtual bool jams(slot_t slot, const PublicHistory& history, Rng& rng) = 0;
  virtual std::string name() const = 0;

  /// Adversary::fill_plan for the jam side: the shared bitmap or the i.i.d.
  /// coin fields, and tail_jam when the slots past quiet_after are jammed
  /// i.i.d. (a jammer may raise quiet_after, never lower it).
  virtual bool fill_plan(AdversaryPlan& /*plan*/) { return false; }
};

/// fill_plan for a component that reads neither the history nor the rng:
/// its answers for every slot, in order, become the shared schedule/bitmap.
bool walk_plan(ArrivalProcess& arrivals, AdversaryPlan& plan);
bool walk_plan(Jammer& jammer, AdversaryPlan& plan);

/// Composes an ArrivalProcess with a Jammer. Each component draws from its
/// own forked RNG stream (derived from the engine's adversary stream on the
/// first slot), so swapping one component never perturbs the other's draw
/// sequence — workload axes stay independent under a fixed seed
/// (tests/test_adversary.cpp, ComposedAdversaryStreams.*).
class ComposedAdversary final : public Adversary {
 public:
  ComposedAdversary(std::unique_ptr<ArrivalProcess> arrivals, std::unique_ptr<Jammer> jammer);

  AdversaryAction on_slot(slot_t slot, const PublicHistory& history, Rng& rng) override;
  std::string name() const override;

  /// Asks both components, the arrivals first. Both are always asked, so the
  /// tail certificate holds what each side knows.
  bool fill_plan(AdversaryPlan& plan) override {
    const bool arrivals_planned = arrivals_->fill_plan(plan);
    return jammer_->fill_plan(plan) && arrivals_planned;
  }

  /// Attach the sweep's precomputed plan for these two components (not
  /// owned; it must outlive every run of this adversary).
  void set_plan(const AdversaryPlan* plan) { plan_ = plan; }
  const AdversaryPlan* plan() const override { return plan_; }

 private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<Jammer> jammer_;
  const AdversaryPlan* plan_ = nullptr;
  /// Per-component streams, forked lazily from the first on_slot rng (which
  /// the engine hands over unconsumed — fork() itself draws nothing).
  bool streams_forked_ = false;
  Rng arrival_rng_;
  Rng jammer_rng_;
};

}  // namespace cr

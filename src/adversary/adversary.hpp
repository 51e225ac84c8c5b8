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
#include <optional>
#include <string>

#include "channel/trace.hpp"
#include "channel/types.hpp"
#include "common/rng.hpp"

namespace cr {

struct AdversaryAction {
  bool jam = false;
  std::uint64_t inject = 0;  ///< nodes arriving at the beginning of this slot
};

/// A quiet-tail certificate: no arrival at any slot past `quiet_after`, and
/// every slot past it jammed i.i.d. at `tail_jam`, whatever the run does.
/// Once a run is past quiet_after with nobody live, only its jam count can
/// still move, so fast_cjz draws that count at once (engine/fast_cjz.hpp).
struct QuietTail {
  slot_t quiet_after = 0;
  double tail_jam = 0.0;

  friend bool operator==(const QuietTail&, const QuietTail&) = default;
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Decide the action for `slot` (== history.slots() + 1).
  virtual AdversaryAction on_slot(slot_t slot, const PublicHistory& history, Rng& rng) = 0;

  virtual std::string name() const = 0;

  /// The quiet-tail certificate attached to this run, if any. Only sweeps
  /// attach one (replicate_workload); an engine that can use it stops
  /// calling on_slot() at the tail, one that cannot ignores it.
  virtual std::optional<QuietTail> quiet_tail() const { return std::nullopt; }
};

/// Arrival side of a composed adversary.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual std::uint64_t arrivals(slot_t slot, const PublicHistory& history, Rng& rng) = 0;
  virtual std::string name() const = 0;

  /// The last slot at which this process can inject (0: none at all),
  /// known without running it; nullopt when only a run can tell.
  virtual std::optional<slot_t> last_arrival() const { return std::nullopt; }
};

/// Jamming side of a composed adversary.
class Jammer {
 public:
  virtual ~Jammer() = default;
  virtual bool jams(slot_t slot, const PublicHistory& history, Rng& rng) = 0;
  virtual std::string name() const = 0;

  /// The jam side of a certificate: a slot past which this jammer jams
  /// i.i.d. at a fixed rate whatever the history, with that rate; nullopt
  /// when it has none.
  virtual std::optional<QuietTail> iid_tail() const { return std::nullopt; }
};

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

  /// Attach to this adversary's runs the certificate the two components
  /// state: quiet past both the last arrival and the jammer's i.i.d. onset,
  /// jammed at the jammer's rate; none when either side states nothing.
  /// Steps no state.
  void attach_quiet_tail();
  std::optional<QuietTail> quiet_tail() const override { return tail_; }

 private:
  std::unique_ptr<ArrivalProcess> arrivals_;
  std::unique_ptr<Jammer> jammer_;
  std::optional<QuietTail> tail_;
  /// Per-component streams, forked lazily from the first on_slot rng (which
  /// the engine hands over unconsumed — fork() itself draws nothing).
  bool streams_forked_ = false;
  Rng arrival_rng_;
  Rng jammer_rng_;
};

}  // namespace cr

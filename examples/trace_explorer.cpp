// Trace explorer: watch the algorithm run, slot by slot.
//
// Runs a small batch through the reference engine and prints an annotated
// timeline —
//     .  silent slot          *  collision
//     S  successful delivery  X  jammed slot
// — plus the phase trajectory of one tracked node (Phase 1 -> 2 -> 3 and
// its Phase-3 restarts), which makes the two-conceptual-channels mechanism
// visible: successes alternate between the parity channels as control and
// data swap roles.
//
// Run:   ./build/examples/trace_explorer [--n=12] [--jam=0.15] [--slots=400]
#include <iostream>
#include <memory>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "common/cli.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/cjz_node.hpp"

namespace {

using namespace cr;

/// Published state of the tracked node; outlives the node itself.
struct TrackState {
  CjzNode::Phase phase = CjzNode::Phase::kOne;
  bool alive = false;
};

/// Forwards to a CjzNode while mirroring its phase into a shared TrackState
/// (safe to read even after the node departed and was destroyed).
class TrackedNode final : public NodeProtocol {
 public:
  TrackedNode(std::unique_ptr<NodeProtocol> inner, std::shared_ptr<TrackState> state)
      : inner_(std::move(inner)), state_(std::move(state)) {
    state_->alive = true;
    publish();
  }
  ~TrackedNode() override { state_->alive = false; }

  bool on_slot(slot_t now, Rng& rng) override { return inner_->on_slot(now, rng); }
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own) override {
    inner_->on_feedback(now, fb, sent, own);
    publish();
  }

 private:
  void publish() { state_->phase = static_cast<const CjzNode*>(inner_.get())->phase(); }
  std::unique_ptr<NodeProtocol> inner_;
  std::shared_ptr<TrackState> state_;
};

/// Wraps CjzFactory; the first spawned node is tracked.
class TrackingFactory final : public ProtocolFactory {
 public:
  explicit TrackingFactory(FunctionSet fs)
      : inner_(std::move(fs)), state_(std::make_shared<TrackState>()) {}

  std::unique_ptr<NodeProtocol> spawn(node_id id, slot_t arrival, Rng& rng) override {
    auto node = inner_.spawn(id, arrival, rng);
    if (!tracked_yet_) {
      tracked_yet_ = true;
      return std::make_unique<TrackedNode>(std::move(node), state_);
    }
    return node;
  }
  std::string name() const override { return inner_.name(); }

  const TrackState& tracked() const { return *state_; }

 private:
  CjzFactory inner_;
  std::shared_ptr<TrackState> state_;
  bool tracked_yet_ = false;
};

char phase_char(CjzNode::Phase p) {
  switch (p) {
    case CjzNode::Phase::kOne: return '1';
    case CjzNode::Phase::kTwo: return '2';
    case CjzNode::Phase::kThree: return '3';
  }
  return '?';
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::uint64_t>(cli.get_int("n", 12));
  const double jam = cli.get_double("jam", 0.15);
  const auto slots = static_cast<slot_t>(cli.get_int("slots", 400));
  cli.declare({"seed"});  // read below, after the check
  cli.reject_unknown();

  CjzFactory factory(functions_constant_g(4.0));
  ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
  SimConfig cfg;
  cfg.horizon = slots;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_generic(factory, adv, cfg);

  std::cout << "trace_explorer: " << n << " nodes, jam " << jam << ", " << res.slots
            << " slots, " << res.successes << " delivered\n\n"
            << "timeline ('.' silence, '*' collision, 'S' success, 'X' jammed):\n";

  const std::size_t width = 80;
  for (std::size_t i = 0; i < res.slot_outcomes.size(); ++i) {
    const SlotOutcome& out = res.slot_outcomes[i];
    char c = '.';
    if (out.jammed) c = 'X';
    else if (out.success()) c = 'S';
    else if (out.senders >= 2) c = '*';
    if (i % width == 0) std::cout << "  ";
    std::cout << c;
    if (i % width == width - 1 || i + 1 == res.slot_outcomes.size()) std::cout << "\n";
  }

  std::cout << "\nchannel view: successes by slot parity (channel 0 = even slots,\n"
               "channel 1 = odd slots — the algorithm's control/data roles alternate):\n";
  std::uint64_t succ_even = 0, succ_odd = 0;
  for (const SlotOutcome& out : res.slot_outcomes) {
    if (!out.success()) continue;
    (parity_channel(out.slot) == 0 ? succ_even : succ_odd) += 1;
  }
  std::cout << "  channel 0 (even): " << succ_even << " successes\n"
            << "  channel 1 (odd) : " << succ_odd << " successes\n";

  std::cout << "\nsummary: " << res.successes << "/" << res.arrivals
            << " delivered, " << res.jammed_slots << " jammed slots, "
            << res.total_sends << " transmissions ("
            << (res.successes ? static_cast<double>(res.total_sends) /
                                    static_cast<double>(res.successes)
                              : 0.0)
            << " per delivery)\n";

  // Re-run a few slots manually to show the tracked node's phase machine.
  std::cout << "\nphase walk of one node (fresh 60-slot run, no jamming):\n  ";
  TrackingFactory track(functions_constant_g(4.0));
  ComposedAdversary adv2(batch_arrival(4, 1), no_jam());
  SimConfig cfg2;
  cfg2.horizon = 60;
  cfg2.seed = 5;
  // Drive the engine one full run; the tracked pointer stays valid while the
  // node is alive; phase snapshots are taken through a custom observer.
  class PhaseObserver final : public SlotObserver {
   public:
    explicit PhaseObserver(const TrackingFactory& f) : f_(f) {}
    void on_slot(const SlotOutcome& out, std::uint64_t, std::uint64_t) override {
      line += f_.tracked().alive ? phase_char(f_.tracked().phase) : '-';
      if (out.success()) line += '!';
    }
    std::string line;

   private:
    const TrackingFactory& f_;
  };
  PhaseObserver obs(track);
  GenericSimulator sim2(track, adv2, cfg2);
  sim2.set_observer(&obs);
  sim2.run();
  std::cout << obs.line << "\n"
            << "  (digits = tracked node's phase per slot; '!' marks a success —\n"
            << "   watch it move 1 -> 2 -> 3 as successes land)\n";
  return 0;
}

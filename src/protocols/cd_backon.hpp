// Backon/backoff protocol for the WITH-collision-detection model.
//
// The paper's introduction contrasts its no-CD setting with the known
// result that, WITH collision detection, constant throughput is attainable
// even under constant-fraction jamming (Awerbuch–Richa–Scheideler '08,
// Bender et al. '18, Chang–Jin–Pettie '19). This module implements the
// simplest representative of that family — a multiplicative backon/backoff
// contention controller:
//
//   each node holds a sending probability p (init p0);
//     on COLLISION heard:  p <- max(p_min, p / mult)  (too much contention:
//                                                      back off)
//     on SILENCE heard:    p <- min(p_max, p · mult)  (too little: back on)
//     on SUCCESS heard:    p unchanged      (a departure lowers contention
//                                            by itself)
//
// The ternary feedback is exactly what the no-CD model forbids: silence and
// collision trigger OPPOSITE corrections. This breaks the dilemma behind
// Theorem 1.3, which is why this protocol can deliver Θ(n) batch messages
// in Θ(n) slots under jamming while the best no-CD algorithm pays the
// Θ(log) factor. `cr bench cd_contrast` measures that boundary, running the
// same controller with and without its CD signal (`collision_detection`).
//
// The update reads only the public feedback — never the node's own send or
// success — so nodes that arrive in the same slot share one p for as long
// as they live. That is what lets the `fast_batch` engine run the
// controller as one binomial per arrival cohort per slot; both engines move
// p through cd_backon_next.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "protocols/protocol.hpp"

namespace cr {

struct CdBackonOptions {
  double p0 = 0.5;      ///< initial sending probability
  double p_max = 0.5;   ///< backon ceiling (p > 1/2 mostly collides)
  double p_min = 1e-9;  ///< floor so recovery stays geometric
  double mult = 2.0;    ///< multiplicative step
  /// false: the controller runs on a channel without collision detection.
  /// Silence then sounds like a collision, so every wasted slot backs off
  /// and nothing backs on — the controller deployed in the wrong model.
  bool collision_detection = true;
};

/// Empty when `opts` is valid; otherwise names the first bad field, the
/// values it accepts and the value given ("p0 must be in (0, 1], got 0").
std::string cd_backon_options_error(const CdBackonOptions& opts);

/// The controller's one update rule: p after a slot whose public feedback
/// was `fb`. Without collision detection kSilence is heard as kCollision.
inline double cd_backon_next(const CdBackonOptions& opts, double p, CdFeedback fb) {
  if (fb == CdFeedback::kSuccess) return p;  // a departure already reduces contention
  if (fb == CdFeedback::kSilence && opts.collision_detection)
    return std::min(opts.p_max, p * opts.mult);
  return std::max(opts.p_min, p / opts.mult);
}

/// Per-node backon/backoff state machine, the generic engine's reference
/// for the controller.
class CdBackonNode final : public NodeProtocol {
 public:
  explicit CdBackonNode(const CdBackonOptions& opts) : opts_(opts), p_(opts.p0) {}

  bool on_slot(slot_t now, Rng& rng) override;
  /// Binary (no-CD) feedback: a wasted slot can only mean "back off".
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own_success) override;
  void on_feedback_cd(slot_t now, CdFeedback fb, bool sent, bool own_success) override;

  double sending_probability() const { return p_; }

 private:
  CdBackonOptions opts_;
  double p_;
};

/// Spawns CdBackonNode per arrival; named "cd-backon", or "cd-backon-no-cd"
/// without collision detection. `opts` are taken as valid:
/// cd_backon_protocol (engine/engine.hpp), the one way to run the
/// controller, checks them.
std::unique_ptr<ProtocolFactory> cd_backon_factory(const CdBackonOptions& opts);

}  // namespace cr

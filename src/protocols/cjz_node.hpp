// The paper's algorithm (§2.1) — per-node state machine.
//
// A node u injected at the beginning of slot l₀ runs three phases over the
// two parity channels (odd slots / even slots):
//
//   Phase 1  (channel-role discovery): run (f/a)-backoff on the channel
//            given by the parity of l₀ until *any* success is heard on
//            either channel. The success slot l₁ defines the data channel α
//            (the channel l₁ lies on).
//   Phase 2  (synchronization): run (f/a)-backoff on the other channel ᾱ
//            starting from slot l₁+1, until a success is heard on ᾱ at some
//            slot l₂. Set l₃ = l₂.
//   Phase 3  (batch): from slot l₃+1 run h_ctrl-batch on the channel of
//            parity(l₃+1); from slot l₃+2 run h_data-batch on the channel of
//            parity(l₃+2). When a success is heard on the h_ctrl channel at
//            slot l₃′, restart Phase 3 with l₃ = l₃′ — note this swaps the
//            control and data channels, as the paper prescribes.
//
// A node halts (is removed by the engine) the moment its own message
// succeeds, in any phase — Phase 1/2 backoff transmissions carry the real
// message.
//
// The Phase-3 batch processes are implemented statelessly: the sending
// probability in slot s is a pure function of (s, l₃), which is what makes
// the fast cohort engine possible (all nodes sharing l₃ are exchangeable).
#pragma once

#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "common/functions.hpp"
#include "protocols/backoff.hpp"
#include "protocols/protocol.hpp"

namespace cr {

/// Phase-3 sending probability on the *control* pattern for absolute slot
/// `now`, given anchor l3. Requires now >= l3+1 and parity(now)==parity(l3+1).
double cjz_ctrl_prob(const FunctionSet& fs, slot_t l3, slot_t now);
/// Phase-3 sending probability on the *data* pattern for absolute slot
/// `now`. Requires now >= l3+2 and parity(now)==parity(l3+2).
double cjz_data_prob(const FunctionSet& fs, slot_t l3, slot_t now);

/// First slot after anchor `l3` lying on channel `parity` (l3+1 or l3+2).
inline slot_t cjz_first_after(slot_t l3, int parity) {
  return parity_channel(l3 + 1) == parity ? l3 + 1 : l3 + 2;
}
/// Generalized Phase-3 probability for a batch process anchored at l3 on
/// channel `proc_parity`; `ctrl` selects h_ctrl vs h_data. Supports the
/// ablation variants where control may not live on parity(l3+1). Inline: the
/// cohort engine evaluates this once per (cohort, slot) in its hottest loop.
inline double cjz_batch_prob(const FunctionSet& fs, slot_t l3, int proc_parity, bool ctrl,
                             slot_t now) {
  CR_DCHECK(parity_channel(now) == proc_parity);
  const slot_t first = cjz_first_after(l3, proc_parity);
  CR_DCHECK(now >= first);
  const std::uint64_t k = (now - first) / 2 + 1;
  return ctrl ? fs.h_ctrl(static_cast<double>(k))
              : FunctionSet::h_data(static_cast<double>(k));
}

/// Ablation switches for the algorithm (paper behaviour = defaults). Used
/// by bench_ablation to quantify the design decisions of §2.1.
struct CjzOptions {
  /// Paper: each Phase-3 restart swaps the control and data channels.
  bool swap_channels_on_restart = true;
  /// Paper: a Phase-2 backoff round synchronizes joiners onto the control
  /// channel. false = jump from Phase 1 straight to Phase 3.
  bool use_phase2 = true;
};

class CjzNode final : public NodeProtocol {
 public:
  enum class Phase : std::uint8_t { kOne = 1, kTwo = 2, kThree = 3 };

  /// `fs` must outlive the node (owned by the factory).
  CjzNode(const FunctionSet* fs, slot_t arrival, Rng& rng, CjzOptions options = {});

  bool on_slot(slot_t now, Rng& rng) override;
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own_success) override;

  // Introspection (tests, trace tooling).
  Phase phase() const { return phase_; }
  /// Channel the current backoff runs on (Phases 1–2 only).
  int backoff_channel() const { return bkf_channel_; }
  /// Phase-3 anchor (valid in Phase 3).
  slot_t l3() const { return l3_; }
  /// Phase-3 control channel parity (valid in Phase 3).
  int ctrl_channel() const { return ctrl_parity_; }

 private:
  const FunctionSet* fs_;
  CjzOptions opts_;
  Phase phase_ = Phase::kOne;
  BackoffProcess backoff_;
  int bkf_channel_ = 0;   ///< parity the backoff listens/sends on
  slot_t bkf_from_ = 0;   ///< backoff counts channel slots >= this absolute slot
  slot_t l3_ = 0;
  int ctrl_parity_ = 0;   ///< Phase-3 control channel parity
};

class CjzFactory final : public ProtocolFactory {
 public:
  explicit CjzFactory(FunctionSet fs, CjzOptions options = {})
      : fs_(std::move(fs)), opts_(options) {}

  std::unique_ptr<NodeProtocol> spawn(node_id id, slot_t arrival, Rng& rng) override;
  std::string name() const override { return "cjz[" + fs_.describe() + "]"; }

  const FunctionSet& functions() const { return fs_; }
  const CjzOptions& options() const { return opts_; }

 private:
  FunctionSet fs_;
  CjzOptions opts_;
};

}  // namespace cr

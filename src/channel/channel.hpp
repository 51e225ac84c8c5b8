// Slot resolution for the multiple-access channel: the model semantics
// every engine applies once it has counted a slot's senders.
//   * exactly one broadcaster AND slot not jammed  -> success (winner id)
//   * otherwise                                    -> silence-or-collision
#pragma once

#include "channel/types.hpp"

namespace cr {

/// The outcome of slot `slot` from its sender count and the adversary's jam
/// decision (fixed before any node transmits). `lone_sender` must be the
/// sender's id when `senders == 1` (ignored otherwise).
SlotOutcome resolve_slot(slot_t slot, std::uint64_t senders, bool jammed, node_id lone_sender);

}  // namespace cr

#include "channel/channel.hpp"

namespace cr {

SlotOutcome resolve_slot(slot_t slot, std::uint64_t senders, bool jammed, node_id lone_sender) {
  SlotOutcome out;
  out.slot = slot;
  out.senders = senders;
  out.jammed = jammed;
  out.winner = (senders == 1 && !jammed) ? lone_sender : kNoNode;
  return out;
}

}  // namespace cr

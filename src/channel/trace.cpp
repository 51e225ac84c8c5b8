#include "channel/trace.hpp"

#include "common/check.hpp"

namespace cr {

void Trace::record(const SlotOutcome& out) {
  CR_DCHECK(storage_ != Storage::kDisabled);
  CR_CHECK(out.slot == slots_ + 1);
  ++slots_;
  if (out.success()) {
    ++total_successes_;
    last_success_slot_ = out.slot;
  }
  if (out.jammed) ++total_jammed_;
}

}  // namespace cr

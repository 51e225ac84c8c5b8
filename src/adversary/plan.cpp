#include "adversary/plan.hpp"

#include "adversary/adversary.hpp"
#include "common/check.hpp"

namespace cr {

namespace {

/// Ask a component about every slot of [1, horizon] in order, as a run would,
/// but against an empty history and a throwaway rng: the plan of a component
/// that reads neither, whatever state it keeps.
template <typename Ask>
void walk_slots(slot_t horizon, Ask ask) {
  Trace empty;
  const PublicHistory history(empty);
  Rng unused(1);
  for (slot_t s = 1; s <= horizon; ++s) ask(s, history, unused);
}

}  // namespace

void AdversaryPlan::add_jam(slot_t slot) {
  CR_DCHECK(slot >= 1 && (slot >> 6) < jam_bits.size());
  jam_bits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

bool walk_plan(ArrivalProcess& arrivals, AdversaryPlan& plan) {
  walk_slots(plan.horizon, [&](slot_t s, const PublicHistory& history, Rng& rng) {
    if (const std::uint64_t count = arrivals.arrivals(s, history, rng); count > 0)
      plan.schedule.emplace_back(s, count);
  });
  return true;
}

bool walk_plan(Jammer& jammer, AdversaryPlan& plan) {
  plan.clear_jams();
  walk_slots(plan.horizon, [&](slot_t s, const PublicHistory& history, Rng& rng) {
    if (jammer.jams(s, history, rng)) plan.add_jam(s);
  });
  return true;
}

}  // namespace cr

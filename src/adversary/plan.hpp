/// \file
/// AdversaryPlan — an adversary's whole behaviour over one sweep, known
/// before the sweep starts, for the plan path (engine/plan_path.hpp). Each
/// workload component fills its own side (fill_plan in adversary.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "channel/types.hpp"

namespace cr {

struct AdversaryPlan {
  AdversaryPlan() = default;
  /// Nothing planned yet, and no slot known to be quiet before `horizon`.
  explicit AdversaryPlan(slot_t horizon) : horizon(horizon), quiet_after(horizon) {}

  /// The adversary's fill_plan succeeded.
  bool valid = false;
  /// The horizon the plan is built for (run_plan checks the run's).
  slot_t horizon = 0;

  /// Arrival side. Either a shared deterministic schedule of (slot, count)
  /// pairs, slots increasing and counts > 0, or per-seed Bernoulli coins:
  /// floor(rate) certain arrivals plus one frac(rate)-coin per slot of
  /// [arrival_from, arrival_to], arrival_from >= 1.
  bool bernoulli_arrivals = false;
  std::vector<std::pair<slot_t, std::uint64_t>> schedule;
  double arrival_rate = 0.0;
  slot_t arrival_from = 1;
  slot_t arrival_to = 0;

  /// Jam side. Either a shared deterministic jam bitmap (bit s = slot s
  /// jammed), or per-seed i.i.d. coins at `jam_rate`.
  bool iid_jams = false;
  std::vector<std::uint64_t> jam_bits;
  double jam_rate = 0.0;

  /// Analytic tail: no arrival can occur at any slot > quiet_after, and the
  /// slots past it are jammed i.i.d. at tail_jam (< 0: not certifiable — no
  /// tail). The arrival side sets quiet_after; a jammer may only raise it.
  slot_t quiet_after = 0;
  double tail_jam = -1.0;

  /// Words of a jam bitmap covering slots [0, horizon], with room to spare.
  static std::size_t jam_words(slot_t horizon) {
    return static_cast<std::size_t>(horizon >> 6) + 2;
  }
  /// Size `jam_bits` for the horizon (all clear); call before add_jam().
  void clear_jams() { jam_bits.assign(jam_words(horizon), 0); }
  /// Mark slot `slot` (in [1, horizon]) jammed in the shared bitmap.
  void add_jam(slot_t slot);
};

}  // namespace cr

#include "engine/fast_batch.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "channel/channel.hpp"
#include "channel/trace.hpp"
#include "common/check.hpp"
#include "common/stream_tags.hpp"

namespace cr {

FastBatchSimulator::FastBatchSimulator(std::variant<SendProfile, CdBackonOptions> law,
                                       Adversary& adversary, SimConfig config)
    : law_(std::move(law)), adversary_(adversary), config_(config) {}

SimResult FastBatchSimulator::run() {
  return std::visit([this](const auto& law) { return run_law(law); }, law_);
}

template <typename Law>
SimResult FastBatchSimulator::run_law(const Law& law) {
  constexpr bool kCdBackon = std::is_same_v<Law, CdBackonOptions>;
  // The members' sending probability in `slot`.
  const auto probability = [&law](const Cohort& cohort, slot_t slot) {
    if constexpr (kCdBackon)
      return cohort.p;
    else
      return law(slot - cohort.arrival + 1);
  };
  Rng root(config_.seed);
  Rng rng_adv = root.fork(streams::kAdversary);
  Rng rng = root.fork(streams::kBatchMain);
  // Attribution draws live on their own stream: recording tiers must never
  // change the trajectory the main stream produces.
  Rng rng_attr = root.fork(streams::kAttribution);
  const bool attribute = config_.recording.wants_node_stats();

  Trace trace;
  PublicHistory history(trace);
  SimResult result;

  std::vector<Cohort> cohorts;
  std::vector<std::pair<std::size_t, std::uint64_t>> draws;
  std::uint64_t live = 0;
  node_id next_departed_id = 0;

  for (slot_t slot = 1; slot <= config_.horizon; ++slot) {
    const AdversaryAction action = adversary_.on_slot(slot, history, rng_adv);

    CR_CHECK(action.inject <= config_.max_live_nodes - live);
    if (action.inject > 0) {
      Cohort fresh{slot, action.inject, 0.0, {}};
      if constexpr (kCdBackon) fresh.p = law.p0;
      if (attribute) fresh.member_sends.assign(action.inject, 0);
      cohorts.push_back(std::move(fresh));
      live += action.inject;
      result.arrivals += action.inject;
    }

    const std::uint64_t live_now = live;
    if (live_now > 0) ++result.active_slots;

    std::uint64_t senders = 0;
    draws.clear();
    for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
      const Cohort& cohort = cohorts[ci];
      if (cohort.count == 0) continue;
      const std::uint64_t c = rng.binomial(cohort.count, probability(cohort, slot));
      if (c > 0) {
        senders += c;
        draws.emplace_back(ci, c);
      }
    }
    result.total_sends += senders;

    node_id winner = kNoNode;
    std::size_t winner_cohort = cohorts.size();
    if (senders == 1 && !action.jam) {
      winner_cohort = draws.front().first;
      winner = next_departed_id++;
    }

    const SlotOutcome out = resolve_slot(slot, senders, action.jam, winner);
    trace.record(out);
    if (config_.recording.wants_trace()) result.slot_outcomes.push_back(out);
    if (out.jammed) ++result.jammed_slots;
    if (observer_ != nullptr) observer_->on_slot(out, action.inject, live_now);

    if (attribute) {
      // Charge each cohort's binomial count to concrete members. On a
      // success the lone draw IS the winning send, charged at departure.
      for (std::size_t di = 0; di < draws.size(); ++di) {
        if (out.success() && di == 0) continue;
        Cohort& cohort = cohorts[draws[di].first];
        CR_DCHECK(cohort.member_sends.size() == cohort.count);
        visit_uniform_subset(cohort.count, draws[di].second, rng_attr, attr_scratch_,
                             [&](std::uint64_t i) { ++cohort.member_sends[i]; });
      }
    }

    if (out.success()) {
      Cohort& cohort = cohorts[winner_cohort];
      if (attribute) {
        // The winner is the slot's only sender — uniform over the cohort's
        // members, exactly the conditional law of "who sent".
        const std::uint64_t pos = rng_attr.uniform_u64(cohort.member_sends.size());
        NodeStats ns;
        ns.id = out.winner;
        ns.arrival = cohort.arrival;
        ns.departure = slot;
        ns.sends = cohort.member_sends[pos] + 1;
        result.node_stats.push_back(ns);
        cohort.member_sends[pos] = cohort.member_sends.back();
        cohort.member_sends.pop_back();
      }
      --cohort.count;
      --live;
      ++result.successes;
      if (result.first_success == 0) result.first_success = slot;
      result.last_success = slot;
      if (config_.recording.wants_success_times()) result.success_times.push_back(slot);
    }

    if constexpr (kCdBackon) {
      const CdFeedback fb = out.cd_feedback();
      for (Cohort& cohort : cohorts)
        if (cohort.count > 0) cohort.p = cd_backon_next(law, cohort.p, fb);
    }

    // Periodically drop drained cohorts so long runs stay lean.
    if ((slot & 0xFFF) == 0)
      std::erase_if(cohorts, [](const Cohort& c) { return c.count == 0; });

    result.slots = slot;
    if (config_.stop_when_empty && result.arrivals > 0 && live == 0) break;
    if (config_.stop_after_first_success && result.successes > 0) break;
  }

  result.live_at_end = live;
  if (attribute) {
    for (const auto& cohort : cohorts) {
      for (const std::uint64_t sends : cohort.member_sends) {
        NodeStats ns;
        ns.arrival = cohort.arrival;
        ns.departure = 0;
        ns.sends = sends;
        result.node_stats.push_back(ns);
      }
    }
  }
  if (observer_ != nullptr) observer_->on_run_end(result);
  return result;
}

SimResult run_fast_batch(std::variant<SendProfile, CdBackonOptions> law, Adversary& adversary,
                         const SimConfig& config, SlotObserver* observer) {
  FastBatchSimulator sim(std::move(law), adversary, config);
  sim.set_observer(observer);
  return sim.run();
}

}  // namespace cr

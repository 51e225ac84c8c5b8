// Unit tests for the fast engines (cohort CJZ and cohort batch): invariants
// that hold regardless of randomness, plus calendar-queue mechanics.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "engine/calendar.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "engine/generic_sim.hpp"
#include "exp/scenarios.hpp"
#include "protocols/batch.hpp"

namespace cr {
namespace {

ComposedAdversary make_adv(std::unique_ptr<ArrivalProcess> a, std::unique_ptr<Jammer> j) {
  return ComposedAdversary(std::move(a), std::move(j));
}

// Differential test of the timing wheel against a sorted reference. From
// clocks just below the 64, 4096 and 2^18 digit boundaries and 2^62, it
// pushes events up to 2^20 slots ahead (some into the slot being drained,
// some in bursts that fill a slot past one block),
// moves the clock by one slot or jumps as far as the earliest pending event,
// clears, and round-trips the wheel through save/load, whose bytes must be
// the reference's events in sorted order. Pop order within a slot is
// unspecified, so each slot's events are compared as a multiset.
TEST(Calendar, MatchesASortedReference) {
  // Sorted like the saved words: (slot, kind) is the key, (gen, node) the payload.
  using Key = std::tuple<slot_t, int, std::uint32_t, std::uint32_t>;  // slot, kind, gen, node
  Rng rng(20261019);
  for (const slot_t base : {slot_t{1}, slot_t{60}, slot_t{4090}, (slot_t{1} << 18) - 40,
                            (slot_t{1} << 62) - 5000}) {
    Calendar cal;
    std::multiset<Key> ref;
    std::uint32_t node = 0;
    const auto push = [&](slot_t s) {
      const CalendarEvent ev{s,
                             rng.bernoulli(0.5) ? CalendarEvent::Kind::kSend
                                                : CalendarEvent::Kind::kStageBegin,
                             node++, static_cast<std::uint32_t>(rng.uniform_u64(4))};
      cal.push(ev);
      ref.emplace(ev.slot, static_cast<int>(ev.kind), ev.gen, ev.node);
    };
    const auto ahead = [&](slot_t from) {
      constexpr slot_t kSpans[] = {1, 64, 4096, slot_t{1} << 18, slot_t{1} << 20};
      return from + rng.uniform_u64(kSpans[rng.uniform_u64(5)]);
    };
    slot_t now = base;
    // One event at each boundary the clock will cross first.
    for (const unsigned bits : {6u, 12u, 18u, 62u})
      if (const slot_t edge = ((now >> bits) + 1) << bits; edge - now <= (slot_t{1} << 20))
        push(edge);
    for (int round = 0; round < 2000; ++round) {
      for (std::uint64_t k = rng.uniform_u64(4); k > 0; --k) push(ahead(now));
      // Now and then a burst, like a batch arriving, fills one slot past a
      // 32-event block.
      if (rng.bernoulli(0.05))
        for (slot_t s = ahead(now), k = 33 + rng.uniform_u64(64); k > 0; --k) push(s);
      std::multiset<Key> popped;
      while (const auto ev = cal.pop_due(now)) {
        ASSERT_EQ(ev->slot, now);
        popped.emplace(ev->slot, static_cast<int>(ev->kind), ev->gen, ev->node);
        if (rng.bernoulli(0.2)) push(now);
        if (rng.bernoulli(0.2)) push(ahead(now));
      }
      const auto due_end = ref.lower_bound(Key{now + 1, 0, 0, 0});
      ASSERT_EQ(popped, std::multiset<Key>(ref.begin(), due_end)) << "slot " << now;
      ref.erase(ref.begin(), due_end);
      ASSERT_EQ(cal.size(), ref.size());

      if (rng.bernoulli(0.01)) {
        cal.clear();
        ref.clear();
      }
      if (rng.bernoulli(0.05)) {
        SnapshotWriter w;
        cal.save(w);
        const std::vector<std::uint8_t> blob = w.seal(1);
        SnapshotWriter sorted;
        sorted.u64(ref.size());
        for (const auto& [slot, kind, gen, node] : ref) {
          sorted.u64((slot << 1) | static_cast<std::uint64_t>(kind));
          sorted.u64((static_cast<std::uint64_t>(gen) << 32) | node);
        }
        ASSERT_EQ(blob, sorted.seal(1)) << "save() must write the events sorted";
        // Reload the wheel in use: it clears, restarts its clock and places
        // every event afresh, and the run continues on the restored layout.
        SnapshotReader r(blob, 1);
        cal.load(r, now + 1);
        r.expect_end();
        ASSERT_TRUE(r.ok()) << r.error();
        SnapshotWriter again;
        cal.save(again);
        ASSERT_EQ(again.seal(1), blob);
      }

      const slot_t due = cal.next_due_slot();
      if (ref.empty()) {
        ASSERT_TRUE(cal.empty());
        ASSERT_EQ(due, 0u);
        now = ahead(now + 1);
        continue;
      }
      const slot_t earliest = std::get<0>(*ref.begin());
      ASSERT_GT(due, now);
      ASSERT_LE(due, earliest) << "next_due_slot() must never pass the earliest event";
      switch (rng.uniform_u64(4)) {
        case 0: now += 1; break;
        case 1: now = due; break;
        case 2: now = earliest; break;
        default: now += 1 + rng.uniform_u64(earliest - now); break;
      }
    }
  }
}

TEST(Calendar, PushWhileDraining) {
  Calendar cal;
  cal.push({4, CalendarEvent::Kind::kStageBegin, 1, 0});
  auto e = cal.pop_due(4);
  ASSERT_TRUE(e.has_value());
  // Simulate a stage-begin scheduling a send in the same slot.
  cal.push({4, CalendarEvent::Kind::kSend, 1, 0});
  auto e2 = cal.pop_due(4);
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->kind, CalendarEvent::Kind::kSend);
}

TEST(FastCjz, NoArrivalsMeansNothingHappens) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(no_arrivals(), no_jam());
  SimConfig cfg;
  cfg.horizon = 1000;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.arrivals, 0u);
  EXPECT_EQ(res.successes, 0u);
  EXPECT_EQ(res.active_slots, 0u);
  EXPECT_EQ(res.total_sends, 0u);
}

TEST(FastCjz, SingleNodeDrains) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(1, 9), no_jam());
  SimConfig cfg;
  cfg.horizon = 10'000;
  cfg.seed = 21;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes, 1u);
  // The lone node's stage-0 backoff transmits at its arrival slot: success
  // at slot 9 exactly.
  EXPECT_EQ(res.first_success, 9u);
}

TEST(FastCjz, ConservationAndTraceConsistency) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(100, 1), iid_jammer(0.2));
  SimConfig cfg;
  cfg.horizon = 300'000;
  cfg.seed = 31;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.successes + res.live_at_end, res.arrivals);
  ASSERT_EQ(res.slot_outcomes.size(), res.slots);
  std::uint64_t successes = 0, jammed = 0;
  for (slot_t s = 1; s <= res.slots; ++s) {
    const SlotOutcome& out = res.slot_outcomes[s - 1];
    EXPECT_EQ(out.slot, s);
    if (out.jammed) { EXPECT_FALSE(out.success()); }
    if (out.success()) { EXPECT_EQ(out.senders, 1u); }
    successes += out.success() ? 1 : 0;
    jammed += out.jammed ? 1 : 0;
  }
  EXPECT_EQ(successes, res.successes);
  EXPECT_EQ(jammed, res.jammed_slots);
}

TEST(FastCjz, NodeStatsRecorded) {
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(64, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 200'000;
  cfg.seed = 37;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  EXPECT_EQ(res.node_stats.size(), 64u);
  for (const auto& ns : res.node_stats) {
    EXPECT_TRUE(ns.departed());
    EXPECT_EQ(ns.arrival, 1u);
    EXPECT_GE(ns.departure, ns.arrival);
  }
}

TEST(FastCjz, AttributedSendsSumToTotal) {
  // Every transmission — backoff calendar events AND cohort binomial draws —
  // must be charged to a concrete node under the kNodeStats tier.
  FunctionSet fs = functions_constant_g(4.0);
  auto adv = make_adv(batch_arrival(80, 1), iid_jammer(0.2));
  SimConfig cfg;
  cfg.horizon = 20'000;  // no stop_when_empty: stranded nodes count too
  cfg.seed = 53;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_fast_cjz(fs, adv, cfg);
  ASSERT_EQ(res.node_stats.size(), 80u);
  std::uint64_t sum = 0, departed_with_sends = 0;
  for (const auto& ns : res.node_stats) {
    sum += ns.sends;
    if (ns.departed()) {
      EXPECT_GE(ns.sends, 1u) << "a departed node made at least its winning send";
      ++departed_with_sends;
    }
  }
  EXPECT_EQ(sum, res.total_sends);
  EXPECT_EQ(departed_with_sends, res.successes);
}

TEST(FastCjz, RecordingTierDoesNotPerturbTrajectory) {
  // Attribution draws on a dedicated RNG stream: aggregates are
  // bit-identical whether recording is off, light, or full.
  FunctionSet fs = functions_constant_g(4.0);
  auto run_at = [&](RecordingConfig recording) {
    auto adv = make_adv(batch_arrival(48, 1), iid_jammer(0.25));
    SimConfig cfg;
    cfg.horizon = 50'000;
    cfg.seed = 59;
    cfg.stop_when_empty = true;
    cfg.recording = recording;
    return run_fast_cjz(fs, adv, cfg);
  };
  const SimResult bare = run_at(RecordingConfig::none());
  const SimResult full = run_at(RecordingConfig::full_trace());
  EXPECT_EQ(bare.slots, full.slots);
  EXPECT_EQ(bare.successes, full.successes);
  EXPECT_EQ(bare.total_sends, full.total_sends);
  EXPECT_EQ(bare.first_success, full.first_success);
  EXPECT_EQ(bare.last_success, full.last_success);
  EXPECT_EQ(full.slot_outcomes.size(), full.slots);
}

TEST(FastBatch, AttributedSendsSumToTotal) {
  auto adv = make_adv(scheduled_arrivals({{1, 40}, {500, 20}}), iid_jammer(0.15));
  SimConfig cfg;
  cfg.horizon = 4'000;  // far from drained: exercises stranded attribution
  cfg.seed = 61;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  ASSERT_EQ(res.node_stats.size(), 60u);
  std::uint64_t sum = 0;
  for (const auto& ns : res.node_stats) {
    sum += ns.sends;
    if (ns.departed()) {
      EXPECT_GE(ns.sends, 1u);
    }
  }
  EXPECT_EQ(sum, res.total_sends);
}

TEST(FastBatch, RecordingTierDoesNotPerturbTrajectory) {
  auto run_at = [&](RecordingConfig recording) {
    auto adv = make_adv(batch_arrival(64, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 50'000;
    cfg.seed = 67;
    cfg.recording = recording;
    return run_fast_batch(profiles::h_data(), adv, cfg);
  };
  const SimResult bare = run_at(RecordingConfig::none());
  const SimResult full = run_at(RecordingConfig::full_trace());
  EXPECT_EQ(bare.successes, full.successes);
  EXPECT_EQ(bare.total_sends, full.total_sends);
  EXPECT_EQ(bare.first_success, full.first_success);
  EXPECT_EQ(bare.last_success, full.last_success);
}

TEST(FastBatch, DeterministicProfileMatchesGenericExactly) {
  // aloha(1.0) leaves no randomness in the protocol: both engines must
  // produce the very same trajectory (perpetual 2-node collision).
  auto run_fast = [&] {
    auto adv = make_adv(batch_arrival(2, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 200;
    cfg.recording = RecordingConfig::full_trace();
    return run_fast_batch(profiles::aloha(1.0), adv, cfg);
  };
  auto run_ref = [&] {
    ProfileProtocolFactory factory(profiles::aloha(1.0));
    auto adv = make_adv(batch_arrival(2, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 200;
    cfg.recording = RecordingConfig::full_trace();
    return run_generic(factory, adv, cfg);
  };
  const SimResult fast = run_fast();
  const SimResult ref = run_ref();
  EXPECT_EQ(fast.slot_outcomes, ref.slot_outcomes);
  EXPECT_EQ(fast.total_sends, ref.total_sends);
  ASSERT_EQ(fast.node_stats.size(), ref.node_stats.size());
  for (std::size_t i = 0; i < fast.node_stats.size(); ++i)
    EXPECT_EQ(fast.node_stats[i].sends, ref.node_stats[i].sends) << i;
}

TEST(FastBatch, SingleNodeImmediateSuccess) {
  auto adv = make_adv(batch_arrival(1, 5), no_jam());
  SimConfig cfg;
  cfg.horizon = 100;
  cfg.stop_when_empty = true;
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_EQ(res.successes, 1u);
  EXPECT_EQ(res.first_success, 5u) << "h_data(1)=1: transmits at arrival";
}

TEST(FastBatch, PairCollidesAtArrival) {
  // Two nodes, h_data(1)=1: both transmit at slot 1 -> guaranteed collision.
  auto adv = make_adv(batch_arrival(2, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 10'000;
  cfg.seed = 41;
  cfg.stop_when_empty = true;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  ASSERT_FALSE(res.slot_outcomes.empty());
  EXPECT_EQ(res.slot_outcomes[0].senders, 2u);
  EXPECT_FALSE(res.slot_outcomes[0].success());
  EXPECT_EQ(res.successes, 2u) << "both eventually get through";
}

TEST(FastBatch, ConservationUnderJamming) {
  auto adv = make_adv(batch_arrival(200, 1), iid_jammer(0.3));
  SimConfig cfg;
  cfg.horizon = 200'000;
  cfg.seed = 43;
  cfg.recording = RecordingConfig::full_trace();
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_EQ(res.successes + res.live_at_end, 200u);
  ASSERT_EQ(res.slot_outcomes.size(), res.slots);
  for (const SlotOutcome& out : res.slot_outcomes) {
    if (out.jammed) { EXPECT_FALSE(out.success()); }
  }
}

TEST(FastBatch, MultipleCohortLatencies) {
  // No stop_when_empty: the first cohort drains before slot 1000 and the
  // engine must keep going for the second batch.
  auto adv = make_adv(scheduled_arrivals({{1, 10}, {1000, 10}}), no_jam());
  SimConfig cfg;
  cfg.horizon = 100'000;
  cfg.seed = 47;
  cfg.recording = RecordingConfig::node_stats();
  const SimResult res = run_fast_batch(profiles::h_data(), adv, cfg);
  EXPECT_EQ(res.successes, 20u);
  int early = 0, late = 0;
  for (const auto& ns : res.node_stats) {
    if (ns.arrival == 1) ++early;
    if (ns.arrival == 1000) ++late;
    EXPECT_GE(ns.departure, ns.arrival);
  }
  EXPECT_EQ(early, 10);
  EXPECT_EQ(late, 10);
}

TEST(FastBatch, AlohaSaturationNeverResolves) {
  // Two aloha(1.0) nodes collide forever in the cohort engine too.
  auto adv = make_adv(batch_arrival(2, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 1000;
  const SimResult res = run_fast_batch(profiles::aloha(1.0), adv, cfg);
  EXPECT_EQ(res.successes, 0u);
  EXPECT_EQ(res.total_sends, 2000u);
}

TEST(FastEngines, ObserverPlumbing) {
  class Counter final : public SlotObserver {
   public:
    std::uint64_t calls = 0;
    void on_slot(const SlotOutcome&, std::uint64_t, std::uint64_t) override { ++calls; }
  };
  FunctionSet fs = functions_constant_g(4.0);
  auto adv1 = make_adv(batch_arrival(10, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 5000;
  Counter c1;
  run_fast_cjz(fs, adv1, cfg, &c1);
  EXPECT_EQ(c1.calls, 5000u);
  auto adv2 = make_adv(batch_arrival(10, 1), no_jam());
  Counter c2;
  run_fast_batch(profiles::h_data(), adv2, cfg, &c2);
  EXPECT_EQ(c2.calls, 5000u);
}

}  // namespace
}  // namespace cr

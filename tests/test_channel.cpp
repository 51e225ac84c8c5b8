// Unit tests for channel semantics: the no-collision-detection feedback
// model, slot resolution truth table, and the trace counters behind the
// public-history facade.
#include <gtest/gtest.h>

#include "channel/channel.hpp"
#include "channel/trace.hpp"
#include "channel/types.hpp"

namespace cr {
namespace {

TEST(Types, ParityChannel) {
  EXPECT_EQ(parity_channel(1), 1);
  EXPECT_EQ(parity_channel(2), 0);
  EXPECT_EQ(parity_channel(1001), 1);
}

TEST(ResolveSlot, TruthTable) {
  // 0 senders: silence (indistinguishable from collision).
  EXPECT_FALSE(resolve_slot(1, 0, false, kNoNode).success());
  // 1 sender, no jam: success with that id.
  const SlotOutcome one = resolve_slot(1, 1, false, 42);
  EXPECT_TRUE(one.success());
  EXPECT_EQ(one.winner, 42u);
  EXPECT_EQ(one.feedback(), Feedback::kSuccess);
  // 2+ senders: collision.
  EXPECT_FALSE(resolve_slot(1, 2, false, kNoNode).success());
  EXPECT_FALSE(resolve_slot(1, 100, false, kNoNode).success());
  // Jamming kills even a lone sender.
  EXPECT_FALSE(resolve_slot(1, 1, true, 42).success());
  // Jammed empty slot: still silence-or-collision.
  EXPECT_FALSE(resolve_slot(1, 0, true, kNoNode).success());
}

TEST(ResolveSlot, NoCollisionDetectionFeedback) {
  // Silence, collision, and jam all map to the SAME feedback value — this is
  // the defining property of the model.
  const Feedback silence = resolve_slot(1, 0, false, kNoNode).feedback();
  const Feedback collision = resolve_slot(1, 3, false, kNoNode).feedback();
  const Feedback jammed = resolve_slot(1, 1, true, 7).feedback();
  EXPECT_EQ(silence, Feedback::kSilenceOrCollision);
  EXPECT_EQ(collision, silence);
  EXPECT_EQ(jammed, silence);
}

TEST(Trace, RecordsInOrder) {
  Trace trace;
  EXPECT_EQ(trace.storage(), Trace::Storage::kCounting);
  trace.record(resolve_slot(1, 0, false, kNoNode));
  trace.record(resolve_slot(2, 1, false, 11));
  trace.record(resolve_slot(3, 1, true, 12));
  EXPECT_EQ(trace.slots(), 3u);
  EXPECT_EQ(trace.total_successes(), 1u);
  EXPECT_EQ(trace.total_jammed(), 1u);
  EXPECT_EQ(trace.last_success_slot(), 2u);
}

TEST(TraceDeathTest, RejectsOutOfOrderSlots) {
  Trace trace;
  trace.record(resolve_slot(1, 0, false, kNoNode));
  EXPECT_DEATH(trace.record(resolve_slot(3, 0, false, kNoNode)), "out.slot == slots_ \\+ 1");
}

TEST(PublicHistory, ExposesOnlyPublicView) {
  Trace trace;
  PublicHistory hist(trace);
  EXPECT_EQ(hist.slots(), 0u);
  EXPECT_EQ(hist.last_success_slot(), 0u);
  trace.record(resolve_slot(1, 5, false, kNoNode));   // collision
  trace.record(resolve_slot(2, 0, true, kNoNode));    // jammed silence
  EXPECT_EQ(hist.total_successes(), 0u) << "collision and jam are not successes";
  trace.record(resolve_slot(3, 1, false, 77));        // success
  EXPECT_EQ(hist.slots(), 3u);
  EXPECT_EQ(hist.total_successes(), 1u);
  EXPECT_EQ(hist.last_success_slot(), 3u);
}

}  // namespace
}  // namespace cr

// Stop/restore differential suite (determinism rule 8): restoring a
// snapshot and continuing must be BIT-IDENTICAL to never having stopped.
//
// Layers:
//   1. the k-sweep — on every registry scenario, stop at slots spread across
//      the run (coarse fractions plus the slots around the first/last
//      success: mid-cohort, mid-calendar-event, pre-tail and tail
//      boundaries), restore into a fresh core, continue, and require
//      SimResult equality (operator== covers every counter, success time,
//      node stat and slot outcome);
//   2. adversarial input — corrupted, truncated, version-mismatched and
//      config-mismatched blobs must be rejected with the named diagnostics
//      from common/snapshot.hpp, and arbitrary truncations/bit-flips must
//      never crash (ASan/UBSan runs this suite in CI via `ctest -L stream`);
//   3. WindowedMetrics round-trip — the open window crosses a snapshot
//      boundary intact, and a window-width mismatch is a named error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "exp/scenarios.hpp"
#include "metrics/windowed.hpp"
#include "snapshot_harness.hpp"

namespace cr {
namespace {

using snaptest::materialize;
using snaptest::replay;
using snaptest::ReplayCase;
using snaptest::restore_and_continue;
using snaptest::snapshot_at;
using snaptest::stop_restore_replay;
using snaptest::sweep_points;

ScenarioParams small_params() {
  ScenarioParams p;
  p.horizon = 1024;
  p.n = 24;
  p.jam = 0.2;
  p.rate = 0.05;
  return p;
}

ReplayCase make_case(const std::string& scenario, RecordingConfig recording,
                     std::uint64_t seed = 11) {
  ScenarioParams p = small_params();
  p.seed = seed;
  Scenario sc = ScenarioRegistry::instance().build(scenario, p);
  sc.config.recording = recording;
  return materialize(sc);
}

TEST(SnapshotRestore, KSweepBitExactOnEveryRegistryScenario) {
  // The two recording extremes: full_trace carries the densest result state
  // across the snapshot; node_stats carries the node table's
  // id/arrival/sends bookkeeping.
  const struct {
    RecordingConfig recording;
    const char* tag;
  } modes[] = {
      {RecordingConfig::full_trace(), "full_trace"},
      {RecordingConfig::node_stats(), "node_stats"},
  };
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    for (const auto& mode : modes) {
      const ReplayCase rc = make_case(name, mode.recording);
      const SimResult full = replay(rc);
      ASSERT_GT(full.slots, 0u) << name;
      for (const slot_t k : sweep_points(full)) {
        std::string error;
        const SimResult resumed = stop_restore_replay(rc, k, &error);
        ASSERT_TRUE(error.empty()) << name << " " << mode.tag << " k=" << k << ": " << error;
        EXPECT_EQ(full, resumed) << name << " " << mode.tag << " k=" << k;
      }
    }
  }
}

TEST(SnapshotRestore, StopConditionRunsSurviveRestore) {
  // A run that trips stop_when_empty ends before the horizon; stopping at or
  // past the stop slot must restore and finish without stepping further.
  ScenarioParams p = small_params();
  p.seed = 23;
  Scenario sc = ScenarioRegistry::instance().build("batch", p);
  sc.config.stop_when_empty = true;
  sc.config.recording = RecordingConfig::full_trace();
  const ReplayCase rc = materialize(sc);
  const SimResult full = replay(rc);
  ASSERT_LT(full.slots, static_cast<slot_t>(p.horizon)) << "batch should drain early";
  for (const slot_t k : sweep_points(full)) {
    std::string error;
    const SimResult resumed = stop_restore_replay(rc, k, &error);
    ASSERT_TRUE(error.empty()) << "k=" << k << ": " << error;
    EXPECT_EQ(full, resumed) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Adversarial blobs: every failure mode is a named diagnostic, never UB.
// ---------------------------------------------------------------------------

class SnapshotRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    rc_ = make_case("batch", RecordingConfig::full_trace());
    blob_ = snapshot_at(rc_, 64);
    // Sanity: the pristine blob restores bit-exactly.
    std::string error;
    const SimResult resumed = restore_and_continue(rc_, blob_, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(replay(rc_), resumed);
  }

  std::string restore_error(const std::vector<std::uint8_t>& blob) {
    std::string error;
    restore_and_continue(rc_, blob, &error);
    return error;
  }

  ReplayCase rc_;
  std::vector<std::uint8_t> blob_;
};

TEST_F(SnapshotRejection, TruncatedHeader) {
  const std::vector<std::uint8_t> t(blob_.begin(), blob_.begin() + 16);
  EXPECT_NE(restore_error(t).find("truncated header"), std::string::npos);
}

TEST_F(SnapshotRejection, BadMagic) {
  std::vector<std::uint8_t> b = blob_;
  b[0] ^= 0xFF;
  EXPECT_NE(restore_error(b).find("bad magic"), std::string::npos);
}

TEST_F(SnapshotRejection, VersionMismatch) {
  // Patch the u32 version at header offset 8 (checksum covers the payload
  // only, so this isolates the version check).
  std::vector<std::uint8_t> b = blob_;
  b[8] ^= 0x01;
  EXPECT_NE(restore_error(b).find("schema version mismatch"), std::string::npos);
}

TEST_F(SnapshotRejection, TruncatedPayload) {
  std::vector<std::uint8_t> b = blob_;
  b.pop_back();
  EXPECT_NE(restore_error(b).find("truncated payload"), std::string::npos);
}

TEST_F(SnapshotRejection, CorruptedPayloadByte) {
  std::vector<std::uint8_t> b = blob_;
  b[b.size() / 2] ^= 0x40;
  EXPECT_NE(restore_error(b).find("checksum mismatch"), std::string::npos);
}

TEST_F(SnapshotRejection, TrailingBytesInsidePayload) {
  // A well-formed blob whose payload has extra bytes after the last field:
  // re-serialize the core state with an extra word appended before sealing.
  CjzCore core(&rc_.fs, rc_.config, rc_.options, Trace::Storage::kDisabled);
  for (std::size_t i = 0; i < 64 && i < rc_.actions.size(); ++i)
    core.step(static_cast<slot_t>(i + 1), rc_.actions[i], nullptr);
  SnapshotWriter w;
  core.save(w);
  w.u64(0xDEADBEEF);
  EXPECT_NE(restore_error(w.seal(snaptest::kHarnessSnapshotVersion))
                .find("trailing bytes after the last field"),
            std::string::npos);
}

TEST_F(SnapshotRejection, ConfigMismatch) {
  ReplayCase other = rc_;
  other.config.seed += 1;
  std::string error;
  restore_and_continue(other, blob_, &error);
  EXPECT_NE(error.find("config mismatch on config.seed"), std::string::npos);
}

TEST_F(SnapshotRejection, NodeStageOutOfRange) {
  // The wire carries a node's backoff stage as a u64, but a stage indexes a
  // 2^stage-slot window, so the core keeps it in a byte and anything >= 64
  // is corrupt. A recording-free blob has a fixed-size prefix before the
  // first node record (config echo, result counters, three empty result
  // vectors, core counters, nodes.next_id/size); patch that node's stage
  // and re-seal the checksum so only the range check can object.
  const ReplayCase rc = make_case("batch", RecordingConfig::none());
  std::vector<std::uint8_t> b = snapshot_at(rc, 1);
  constexpr std::size_t kHeader = 32;
  constexpr std::size_t kFirstNode = kHeader + 29 + 8 * 8 + 3 * 8 + 3 * 8 + 2 * 8;
  constexpr std::size_t kStage = kFirstNode + 4 * 8;  // after id, arrival, from, sends
  ASSERT_GT(b.size(), kStage + 8);
  std::uint64_t arrival = 0, stage = 0;
  std::memcpy(&arrival, b.data() + kFirstNode + 8, sizeof(arrival));
  std::memcpy(&stage, b.data() + kStage, sizeof(stage));
  ASSERT_EQ(arrival, 1u) << "blob layout changed: first node record not where expected";
  ASSERT_EQ(stage, 0u);

  stage = 64;
  std::memcpy(b.data() + kStage, &stage, sizeof(stage));
  const std::uint64_t sum = fnv1a64(b.data() + kHeader, b.size() - kHeader);
  std::memcpy(b.data() + 24, &sum, sizeof(sum));
  std::string error;
  restore_and_continue(rc, b, &error);
  EXPECT_NE(error.find("node.stage out of range (blob 64, max 63)"), std::string::npos)
      << error;
}

/// The payload of a harness blob, and a blob sealed around an edited one.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& blob) {
  return {blob.begin() + 32, blob.end()};
}
std::vector<std::uint8_t> seal_payload(const std::vector<std::uint8_t>& payload) {
  SnapshotWriter w;
  for (const std::uint8_t byte : payload) w.u8(byte);
  return w.seal(snaptest::kHarnessSnapshotVersion);
}

TEST_F(SnapshotRejection, CalendarEventBeforeTheResumeSlot) {
  // The calendar closes the core block: a count and then (key, payload)
  // pairs sorted by key, key = slot << 1 | kind. Move the earliest event
  // onto slot 64, which the blob has already stepped; it could never fire.
  std::vector<std::uint8_t> p = payload_of(blob_);
  std::size_t count_at = 0;
  for (std::uint64_t n = 1; 8 + 16 * n <= p.size(); ++n) {
    std::uint64_t count = 0;
    std::memcpy(&count, p.data() + p.size() - 8 - 16 * n, sizeof(count));
    if (count == n) {
      count_at = p.size() - 8 - 16 * n;
      break;
    }
  }
  ASSERT_GT(count_at, 0u) << "blob layout changed: no calendar events at the end";
  std::uint64_t key = 0;
  std::memcpy(&key, p.data() + count_at + 8, sizeof(key));
  ASSERT_GT(key >> 1, 64u);
  key = (std::uint64_t{64} << 1) | (key & 1);
  std::memcpy(p.data() + count_at + 8, &key, sizeof(key));
  EXPECT_NE(restore_error(seal_payload(p))
                .find("calendar event at slot 64 precedes the resume slot 65"),
            std::string::npos);
}

TEST_F(SnapshotRejection, CalendarEventsWithNoLiveNode) {
  // The core clears its calendar when the last node departs, so a blob cut
  // after the last success ends with an empty calendar. Give it one event.
  const slot_t k = replay(rc_).last_success;
  ASSERT_GT(k, 0u);
  std::vector<std::uint8_t> p = payload_of(snapshot_at(rc_, k));
  std::uint64_t count = 0;
  std::memcpy(&count, p.data() + p.size() - 8, sizeof(count));
  ASSERT_EQ(count, 0u);
  p.resize(p.size() - 8);
  for (const std::uint64_t word : {std::uint64_t{1}, std::uint64_t{(k + 3) << 1}, std::uint64_t{0}})
    for (std::size_t i = 0; i < 8; ++i) p.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  EXPECT_NE(restore_error(seal_payload(p)).find("calendar events pending with no live node"),
            std::string::npos);
}

TEST_F(SnapshotRejection, FreeListNamingALiveOrRepeatedSlot) {
  // acquire() hands the free list's last entry to the next arrival, so an
  // entry naming a live slot, or one slot twice, would let an arrival
  // overwrite a node that a cohort still lists. Cut a recording-free blob at
  // the first success, when the list holds the winner's slot alone, and
  // edit that entry.
  const ReplayCase rc = make_case("batch", RecordingConfig::none());
  const slot_t k = replay(rc).first_success;
  ASSERT_GT(k, 0u);
  const std::vector<std::uint8_t> p = payload_of(snapshot_at(rc, k));
  // Config echo, result counters, three empty result vectors, core counters
  // and nodes.next_id precede nodes.size; each node record is 47 bytes.
  constexpr std::size_t kNodesSize = 29 + 8 * 8 + 3 * 8 + 3 * 8 + 8;
  std::uint64_t n_slots = 0, n_free = 0;
  std::memcpy(&n_slots, p.data() + kNodesSize, sizeof(n_slots));
  const std::size_t free_at = kNodesSize + 8 + 47 * n_slots;
  ASSERT_LT(free_at + 12, p.size());
  std::memcpy(&n_free, p.data() + free_at, sizeof(n_free));
  ASSERT_EQ(n_free, 1u) << "blob layout changed: free list not where expected";
  std::uint32_t dead = 0;
  std::memcpy(&dead, p.data() + free_at + 8, sizeof(dead));
  ASSERT_LT(dead, n_slots);
  ASSERT_GT(n_slots, 1u);

  const auto restore = [&](const std::vector<std::uint8_t>& payload) {
    std::string error;
    restore_and_continue(rc, seal_payload(payload), &error);
    return error;
  };
  EXPECT_EQ(restore(p), "");

  std::vector<std::uint8_t> live = p;
  const std::uint32_t live_slot = dead == 0 ? 1 : 0;
  std::memcpy(live.data() + free_at + 8, &live_slot, sizeof(live_slot));
  EXPECT_NE(restore(live).find("free list names live node slot " + std::to_string(live_slot)),
            std::string::npos);

  std::vector<std::uint8_t> twice = p;
  const std::uint64_t two = 2;
  std::memcpy(twice.data() + free_at, &two, sizeof(two));
  twice.insert(twice.begin() + static_cast<std::ptrdiff_t>(free_at + 8),
               p.begin() + static_cast<std::ptrdiff_t>(free_at + 8),
               p.begin() + static_cast<std::ptrdiff_t>(free_at + 12));
  EXPECT_NE(restore(twice).find("free list names node slot " + std::to_string(dead) + " twice"),
            std::string::npos);
}

TEST_F(SnapshotRejection, ImplausibleCountIsRejected) {
  // A count field larger than the remaining payload must fail check_count,
  // not allocate or loop out of bounds.
  SnapshotWriter w;
  w.u64(~std::uint64_t{0});
  const std::vector<std::uint8_t> tiny = w.seal(snaptest::kHarnessSnapshotVersion);
  SnapshotReader r(tiny, snaptest::kHarnessSnapshotVersion);
  const std::uint64_t n = r.u64("count");
  EXPECT_FALSE(r.check_count(n, 8, "elements"));
  EXPECT_NE(r.error().find("implausible count"), std::string::npos);
}

TEST_F(SnapshotRejection, EveryTruncationFailsCleanly) {
  // Sweep truncation lengths across the whole blob: all must produce a
  // diagnostic (and, under the CI sanitizers, no out-of-bounds access).
  for (std::size_t len = 0; len < blob_.size(); len += 7) {
    const std::vector<std::uint8_t> t(blob_.begin(),
                                      blob_.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(restore_error(t).empty()) << "len=" << len;
  }
}

TEST_F(SnapshotRejection, BitFlipsNeverDivergeSilently) {
  // Flip one byte at a time across header and payload. Flips in validated
  // bytes must fail with a diagnostic; flips in the header's reserved bytes
  // (offsets 6-7 and 12-15, not covered by the checksum) are framing no-ops
  // and must restore to the exact uninterrupted result. Either way: never a
  // silent divergence, never a crash.
  const SimResult full = replay(rc_);
  for (std::size_t pos = 0; pos < blob_.size(); pos += 13) {
    std::vector<std::uint8_t> b = blob_;
    b[pos] ^= 0x80;
    std::string error;
    const SimResult resumed = restore_and_continue(rc_, b, &error);
    if (error.empty()) {
      EXPECT_EQ(full, resumed) << "pos=" << pos;
    }
  }
}

// ---------------------------------------------------------------------------
// WindowedMetrics round-trip.
// ---------------------------------------------------------------------------

SlotOutcome synth_outcome(slot_t slot) {
  SlotOutcome out;
  out.slot = slot;
  out.senders = slot % 3;
  out.jammed = slot % 7 == 0;
  out.winner = (out.senders == 1 && !out.jammed) ? slot : kNoNode;
  return out;
}

TEST(WindowedSnapshot, OpenWindowCrossesSnapshotIntact) {
  constexpr slot_t kWindow = 16;
  constexpr slot_t kSlots = 100;  // deliberately not a multiple of 16
  constexpr slot_t kCut = 41;     // mid-window

  const auto drive = [](WindowedMetrics& m, slot_t from, slot_t to) {
    for (slot_t s = from; s <= to; ++s)
      m.on_slot(synth_outcome(s), /*injected=*/s % 2, /*live_nodes=*/3 + s % 5);
  };
  const auto collect_into = [](WindowedMetrics& m, std::vector<WindowStats>& sink) {
    m.set_sink([&sink](const WindowStats& ws) { sink.push_back(ws); });
  };

  std::vector<WindowStats> uninterrupted;
  WindowedMetrics full(kWindow);
  collect_into(full, uninterrupted);
  drive(full, 1, kSlots);
  full.on_run_end(SimResult{});

  std::vector<WindowStats> spliced;
  WindowedMetrics head(kWindow);
  collect_into(head, spliced);
  drive(head, 1, kCut);
  SnapshotWriter w;
  head.save(w);
  const std::vector<std::uint8_t> blob = w.seal(1);

  WindowedMetrics tail(kWindow);
  collect_into(tail, spliced);
  SnapshotReader r(blob, 1);
  tail.load(r);
  ASSERT_TRUE(r.ok()) << r.error();
  r.expect_end();
  ASSERT_TRUE(r.ok()) << r.error();
  drive(tail, kCut + 1, kSlots);
  tail.on_run_end(SimResult{});

  ASSERT_EQ(uninterrupted.size(), spliced.size());
  for (std::size_t i = 0; i < uninterrupted.size(); ++i)
    EXPECT_EQ(uninterrupted[i], spliced[i]) << "window " << i;
  EXPECT_EQ(full.peak_backlog(), tail.peak_backlog());
}

TEST(WindowedSnapshot, WindowWidthMismatchIsNamed) {
  WindowedMetrics src(16);
  src.on_slot(synth_outcome(1), 0, 1);
  SnapshotWriter w;
  src.save(w);
  const std::vector<std::uint8_t> blob = w.seal(1);

  WindowedMetrics dst(32);
  SnapshotReader r(blob, 1);
  dst.load(r);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("window width mismatch"), std::string::npos);
}

}  // namespace
}  // namespace cr

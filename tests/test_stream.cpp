// Streaming service mode (engine/stream.hpp): the SPSC event ring, the feed
// parser, the synthetic generator, and the StreamSim driver's bit-exact
// kill/restore contract — all in-process (the CLI end-to-end byte-diff is
// the golden_stream_kill_restore CTest in tests/golden/stream_diff.cmake).
#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/functions.hpp"
#include "common/rng.hpp"
#include "engine/cjz_core.hpp"
#include "engine/stream.hpp"
#include "metrics/windowed.hpp"

namespace cr {
namespace {

/// The first `count` events of the synthetic feed for `seed`.
std::vector<StreamEvent> synth_events(std::uint64_t seed, std::uint64_t count) {
  SynthStream synth(seed);
  std::vector<StreamEvent> events;
  for (std::uint64_t i = 0; i < count; ++i) events.push_back(synth.next());
  return events;
}

// ---------------------------------------------------------------------------
// EventRing.
// ---------------------------------------------------------------------------

TEST(EventRing, CapacityOneBackpressure) {
  EventRing ring(1);
  const StreamEvent a{1, 1, false};
  const StreamEvent b{2, 2, true};
  EXPECT_TRUE(ring.try_push(a));
  EXPECT_FALSE(ring.try_push(b)) << "capacity-1 ring must refuse a second push";
  StreamEvent out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, a);
  EXPECT_TRUE(ring.try_push(b)) << "pop must free the slot";
  EXPECT_FALSE(ring.exhausted()) << "not closed yet";
  ring.close();
  EXPECT_FALSE(ring.exhausted()) << "closed but not drained";
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, b);
  EXPECT_TRUE(ring.exhausted());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(EventRing, BlockPolicyIsLosslessAtCapacityOne) {
  // Producer thread pushes N events through a capacity-1 ring with the
  // block (spin/yield) policy; the consumer must see every event in order.
  constexpr std::uint64_t kEvents = 2000;
  EventRing ring(1);
  std::thread producer([&ring] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) {
      const StreamEvent ev{i, i, false};
      while (!ring.try_push(ev)) std::this_thread::yield();
    }
    ring.close();
  });
  std::uint64_t received = 0;
  StreamEvent ev;
  while (!ring.exhausted()) {
    if (!ring.try_pop(ev)) {
      std::this_thread::yield();
      continue;
    }
    ++received;
    EXPECT_EQ(ev.slot, received) << "events must arrive in push order";
  }
  producer.join();
  EXPECT_EQ(received, kEvents);
}

TEST(EventRing, DropPolicyCountsEveryLoss) {
  // Same setup with the drop policy: delivered + dropped must equal the
  // total — no event may vanish unaccounted.
  constexpr std::uint64_t kEvents = 2000;
  EventRing ring(1);
  std::atomic<std::uint64_t> dropped{0};
  std::thread producer([&ring, &dropped] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) {
      const StreamEvent ev{i, i, false};
      if (!ring.try_push(ev)) dropped.fetch_add(1, std::memory_order_relaxed);
    }
    ring.close();
  });
  std::uint64_t received = 0;
  std::uint64_t last_slot = 0;
  StreamEvent ev;
  while (!ring.exhausted()) {
    if (!ring.try_pop(ev)) {
      std::this_thread::yield();
      continue;
    }
    ++received;
    EXPECT_GT(ev.slot, last_slot) << "drops must preserve the survivors' order";
    last_slot = ev.slot;
  }
  producer.join();
  EXPECT_EQ(received + dropped.load(), kEvents);
  EXPECT_GE(received, 1u);
}

// The blocking calls: push() sleeps on a full ring, pop() on an empty one.

/// Wait (sleeping, never for long) until `asleep()` says the other thread
/// went to sleep.
template <typename Asleep>
void await_sleep(Asleep asleep) {
  while (!asleep()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(EventRing, HangUpReleasesAProducerAsleepInPush) {
  EventRing ring(2);
  ASSERT_TRUE(ring.push({1, 1, false}));
  ASSERT_TRUE(ring.push({2, 1, false}));
  std::atomic<int> pushed{-1};
  std::thread producer([&] { pushed = ring.push({3, 1, false}) ? 1 : 0; });
  await_sleep([&] { return ring.producer_sleeps() > 0; });
  EXPECT_EQ(pushed.load(), -1) << "push() must wait on a full ring";
  ring.hang_up();
  producer.join();
  EXPECT_EQ(pushed.load(), 0) << "push() must give up once the consumer hangs up";
  EXPECT_EQ(ring.size(), 2u);
}

TEST(EventRing, CloseReleasesAConsumerAsleepInPop) {
  EventRing ring(4);
  std::atomic<int> popped{-1};
  std::thread consumer([&] {
    StreamEvent ev;
    popped = ring.pop(ev) ? 1 : 0;
  });
  await_sleep([&] { return ring.consumer_sleeps() > 0; });
  EXPECT_EQ(popped.load(), -1) << "pop() must wait on an empty ring";
  ring.close();
  consumer.join();
  EXPECT_EQ(popped.load(), 0) << "pop() on a closed, drained ring is EOF";
}

TEST(EventRing, APushWakesAConsumerAsleepInPop) {
  EventRing ring(4);
  StreamEvent got;
  std::thread consumer([&] { EXPECT_TRUE(ring.pop(got)); });
  await_sleep([&] { return ring.consumer_sleeps() > 0; });
  ASSERT_TRUE(ring.try_push({7, 2, true}));
  consumer.join();
  EXPECT_EQ(got, (StreamEvent{7, 2, true}));
}

TEST(EventRing, AProducerSleepsUntilTheRingIsDrainedToHalf) {
  EventRing ring(4);
  for (slot_t s = 1; s <= 4; ++s) ASSERT_TRUE(ring.push({s, 1, false}));
  std::atomic<bool> pushed{false};
  std::thread producer([&] { pushed = ring.push({5, 1, false}); });
  await_sleep([&] { return ring.producer_sleeps() > 0; });
  StreamEvent ev;
  ASSERT_TRUE(ring.pop(ev));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "one free slot is not half drained";
  ASSERT_TRUE(ring.pop(ev));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(ring.size(), 3u);
}

TEST(EventRing, AnIdleConsumerSleepsInsteadOfSpinning) {
  // Fed nothing for 500 ms, the consumer must use (almost) no CPU.
  EventRing ring(1024);
  double cpu_ms = -1;
  std::thread consumer([&] {
    const auto thread_ms = [] {
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
    };
    const double before = thread_ms();
    StreamEvent ev;
    EXPECT_FALSE(ring.pop(ev));
    cpu_ms = thread_ms() - before;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ring.close();
  consumer.join();
  EXPECT_GE(cpu_ms, 0.0);
  EXPECT_LT(cpu_ms, 50.0);
}

/// The lossless and drop-counting handoffs again, through pop() and (for
/// the block policy) push(), at capacities 1 and 3.
class RingHandoff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingHandoff, BlockPolicyIsLossless) {
  constexpr std::uint64_t kEvents = 20000;
  EventRing ring(GetParam());
  std::thread producer([&ring] {
    for (std::uint64_t i = 1; i <= kEvents; ++i) EXPECT_TRUE(ring.push({i, i, false}));
    ring.close();
  });
  std::uint64_t received = 0;
  StreamEvent ev;
  while (ring.pop(ev)) {
    ++received;
    EXPECT_EQ(ev.slot, received) << "events must arrive in push order";
    EXPECT_EQ(ev.inject, received);
  }
  producer.join();
  EXPECT_EQ(received, kEvents);
  EXPECT_TRUE(ring.exhausted());
}

TEST_P(RingHandoff, DropPolicyCountsEveryLoss) {
  constexpr std::uint64_t kEvents = 20000;
  EventRing ring(GetParam());
  std::uint64_t dropped = 0;
  std::thread producer([&ring, &dropped] {
    for (std::uint64_t i = 1; i <= kEvents; ++i)
      if (!ring.try_push({i, i, false})) ++dropped;
    ring.close();
  });
  std::uint64_t received = 0;
  std::uint64_t last_slot = 0;
  StreamEvent ev;
  while (ring.pop(ev)) {
    ++received;
    EXPECT_GT(ev.slot, last_slot) << "drops must preserve the survivors' order";
    last_slot = ev.slot;
  }
  producer.join();
  EXPECT_EQ(received + dropped, kEvents);
  EXPECT_GE(received, 1u);
}

INSTANTIATE_TEST_SUITE_P(Capacity, RingHandoff, ::testing::Values(1, 3));

// ---------------------------------------------------------------------------
// Feed parsing and the synthetic generator.
// ---------------------------------------------------------------------------

TEST(StreamParse, AcceptsTwoAndThreeFieldLines) {
  StreamEvent ev;
  std::string error;
  ASSERT_TRUE(parse_stream_event("12 3", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{12, 3, false}));
  ASSERT_TRUE(parse_stream_event("40 1 1", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{40, 1, true}));
  ASSERT_TRUE(parse_stream_event("  7 0 0  # trailing comment", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{7, 0, false}));
}

TEST(StreamParse, SkipsBlankAndCommentLines) {
  StreamEvent ev;
  std::string error;
  EXPECT_FALSE(parse_stream_event("", &ev, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(parse_stream_event("   ", &ev, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(parse_stream_event("# a comment", &ev, &error));
  EXPECT_TRUE(error.empty());
}

TEST(StreamParse, RejectsMalformedLines) {
  StreamEvent ev;
  std::string error;
  EXPECT_FALSE(parse_stream_event("nonsense", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("5", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("5 1 2", &ev, &error));
  EXPECT_NE(error.find("malformed trace line"), std::string::npos);
  EXPECT_FALSE(parse_stream_event("0 1", &ev, &error));
  EXPECT_NE(error.find("slot 0 is invalid"), std::string::npos);
}

TEST(StreamParse, RejectsSignsAndOverflow) {
  // A sign or an out-of-range number is not a count: "-3 1" once parsed as
  // slot 2^64-3 (a stream that never ends), "5 -1" as 2^64-1 nodes.
  StreamEvent ev;
  std::string error;
  for (const char* line : {"-3 1", "5 -1", "+5 1", "5 +1", "5 1 -0", "5 1 +1",
                           "5 99999999999999999999999 0", "18446744073709551616 1"}) {
    EXPECT_FALSE(parse_stream_event(line, &ev, &error)) << line;
    EXPECT_NE(error.find("malformed trace line"), std::string::npos) << line;
  }
}

TEST(StreamParse, RejectsGarbageAfterAField) {
  StreamEvent ev;
  std::string error;
  for (const char* line : {"5 1 x", "12 3abc", "12abc 3", "5 1 1.0", "5 1,1", "5 1 1 1"}) {
    EXPECT_FALSE(parse_stream_event(line, &ev, &error)) << line;
    EXPECT_NE(error.find("malformed trace line"), std::string::npos) << line;
  }
}

TEST(StreamParse, RejectsSlotsPastTheHorizonAndInjectionsPastTheCap) {
  StreamEvent ev;
  std::string error;
  const std::string horizon = std::to_string(kStreamHorizon);
  const std::string cap = std::to_string(SimConfig{}.max_live_nodes);
  ASSERT_TRUE(parse_stream_event(horizon + " " + cap + " 1", &ev, &error)) << error;
  EXPECT_EQ(ev, (StreamEvent{kStreamHorizon, SimConfig{}.max_live_nodes, true}));
  EXPECT_FALSE(parse_stream_event(std::to_string(kStreamHorizon + 1) + " 1", &ev, &error));
  EXPECT_NE(error.find("past the stream horizon " + horizon), std::string::npos) << error;
  EXPECT_FALSE(parse_stream_event("5 " + std::to_string(SimConfig{}.max_live_nodes + 1), &ev,
                                  &error));
  EXPECT_NE(error.find("more than the live-node cap " + cap), std::string::npos) << error;
}

/// What a trace line spells, decided independently of the parser: fields
/// are runs of non-blank characters before any '#'; a line is valid when it
/// has two or three fields of decimal digits whose values fit in 64 bits,
/// with slot in [1, kStreamHorizon], inject at most the live-node cap and
/// jam 0 or 1. Returns 0 for a skipped line, 1 for a valid one (filling
/// *ev) and -1 for a malformed one.
int spelled_event(const std::string& line, StreamEvent* ev) {
  std::vector<std::string> fields;
  std::string field;
  for (const char c : line.substr(0, line.find('#'))) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f') {
      if (!field.empty()) fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  if (!field.empty()) fields.push_back(field);
  if (fields.empty()) return 0;
  if (fields.size() > 3 || fields.size() < 2) return -1;
  std::uint64_t values[3] = {0, 0, 0};
  for (std::size_t f = 0; f < fields.size(); ++f)
    for (const char c : fields[f]) {
      if (c < '0' || c > '9') return -1;
      const auto digit = static_cast<std::uint64_t>(c - '0');
      if (values[f] > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) return -1;
      values[f] = values[f] * 10 + digit;
    }
  if (values[0] == 0 || values[0] > kStreamHorizon) return -1;
  if (values[1] > SimConfig{}.max_live_nodes || values[2] > 1) return -1;
  *ev = StreamEvent{values[0], values[1], values[2] == 1};
  return 1;
}

TEST(StreamParse, MutatedTraceLinesParseAsSpelledOrFailNamed) {
  // Seeded mutation fuzz over valid trace lines: every mutant either parses
  // to exactly the numbers it spells or is refused with a diagnostic (and
  // only a blank or comment line is skipped without one).
  const std::string seeds[] = {"123 4 1", "7 0", "  99 2 0  # comment", "1 1\r", "40\t1\t0",
                               "1 10000000", "4611686018427387904 10000000 1"};
  const std::string alphabet = "0123456789 \t-+#x.\r9";
  Rng rng(0x5EED7ACEu);
  for (int i = 0; i < 20000; ++i) {
    std::string line = seeds[rng.uniform_u64(std::size(seeds))];
    for (std::uint64_t m = 1 + rng.uniform_u64(3); m > 0; --m) {
      const char c = alphabet[rng.uniform_u64(alphabet.size())];
      const std::size_t at = rng.uniform_u64(line.size() + 1);
      switch (rng.uniform_u64(4)) {
        case 0: line.insert(at, 1, c); break;
        case 1: if (at < line.size()) line[at] = c; break;
        case 2: if (at < line.size()) line.erase(at, 1); break;
        default: line.insert(at, std::string(1 + rng.uniform_u64(20), '9')); break;
      }
    }
    StreamEvent want;
    const int verdict = spelled_event(line, &want);
    StreamEvent got;
    std::string error;
    const bool parsed = parse_stream_event(line, &got, &error);
    EXPECT_EQ(parsed, verdict == 1) << "line \"" << line << "\"";
    if (verdict == 1) {
      EXPECT_EQ(got, want) << "line \"" << line << "\"";
    }
    EXPECT_EQ(error.empty(), verdict >= 0) << "line \"" << line << "\": " << error;
  }
}

TEST(StreamSynth, DeterministicAndStrictlyIncreasing) {
  const auto a = synth_events(7, 500);
  const auto b = synth_events(7, 500);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b) << "same (seed, count) must reproduce the same feed";
  slot_t last = 0;
  for (const StreamEvent& ev : a) {
    EXPECT_GT(ev.slot, last);
    last = ev.slot;
  }
  const auto c = synth_events(8, 500);
  EXPECT_NE(a, c) << "different seeds must differ";
}

// ---------------------------------------------------------------------------
// StreamSim: determinism and kill/restore.
// ---------------------------------------------------------------------------

struct DrainResult {
  std::string jsonl;
  StreamRunSummary summary;
  std::vector<std::uint8_t> last_checkpoint;
};

/// Preload every event (minus the first `skip`) into a ring sized to hold
/// them all, close it, and drain through `sim` — single-threaded and fully
/// deterministic.
DrainResult drain(StreamSim& sim, const std::vector<StreamEvent>& events, std::uint64_t skip) {
  DrainResult out;
  sim.set_checkpoint_sink(
      [&out](const std::vector<std::uint8_t>& blob) { out.last_checkpoint = blob; });
  EventRing ring(events.size() + 1);
  for (std::size_t i = static_cast<std::size_t>(skip); i < events.size(); ++i)
    EXPECT_TRUE(ring.try_push(events[i]));
  ring.close();
  std::ostringstream os;
  out.summary = sim.run(ring, os);
  out.jsonl = os.str();
  return out;
}

StreamOptions test_options() {
  StreamOptions opts;
  opts.seed = 5;
  opts.window = 64;
  return opts;
}

TEST(StreamSim, RerunIsByteIdentical) {
  const auto events = synth_events(5, 400);
  StreamSim a(test_options());
  StreamSim b(test_options());
  const DrainResult ra = drain(a, events, 0);
  const DrainResult rb = drain(b, events, 0);
  ASSERT_TRUE(ra.summary.ok()) << ra.summary.error;
  EXPECT_EQ(ra.jsonl, rb.jsonl);
  EXPECT_GT(ra.summary.windows, 4u);
  EXPECT_EQ(ra.summary.events_applied, events.size());
  EXPECT_NE(ra.jsonl.find("\"done\":true"), std::string::npos);
}

TEST(StreamSim, LastWindowLiveEndMatchesTheDoneLine) {
  // One node arriving in a window's last slot sends there at once and
  // departs: the feed ends on the boundary with a success, and the closing
  // window's backlog must be the run's backlog at its end.
  StreamSim sim(test_options());
  const DrainResult out = drain(sim, {{64, 1, false}}, 0);
  ASSERT_TRUE(out.summary.ok()) << out.summary.error;
  EXPECT_EQ(out.summary.slots, 64u);
  EXPECT_EQ(out.summary.successes, 1u);
  EXPECT_EQ(out.summary.live_at_end, 0u);
  EXPECT_NE(out.jsonl.find("\"end\":64,\"arrivals\":1,\"successes\":1,"), std::string::npos)
      << out.jsonl;
  EXPECT_NE(out.jsonl.find("\"live_end\":0,"), std::string::npos) << out.jsonl;
  EXPECT_NE(out.jsonl.find("\"live_at_end\":0,"), std::string::npos) << out.jsonl;
}

TEST(StreamSim, KillAtWindowRestoreIsByteIdentical) {
  const auto events = synth_events(5, 400);

  StreamSim full(test_options());
  const DrainResult whole = drain(full, events, 0);
  ASSERT_TRUE(whole.summary.ok()) << whole.summary.error;
  ASSERT_GT(whole.summary.windows, 6u) << "need enough windows to kill mid-run";

  // Kill after 3 windows anywhere in the run...
  StreamOptions head_opts = test_options();
  head_opts.max_windows = 3;
  StreamSim head(head_opts);
  const DrainResult head_out = drain(head, events, 0);
  ASSERT_TRUE(head_out.summary.ok()) << head_out.summary.error;
  EXPECT_TRUE(head_out.summary.stopped_by_max_windows);
  ASSERT_FALSE(head_out.last_checkpoint.empty()) << "max_windows stop must cut a checkpoint";

  // ...restore, re-feed the SAME events minus the consumed prefix, run to EOF.
  StreamSim tail(test_options());
  std::string error;
  ASSERT_TRUE(tail.restore(head_out.last_checkpoint, &error)) << error;
  const DrainResult tail_out = drain(tail, events, tail.feed_skip());
  ASSERT_TRUE(tail_out.summary.ok()) << tail_out.summary.error;

  EXPECT_EQ(head_out.jsonl + tail_out.jsonl, whole.jsonl)
      << "head+tail must concatenate to the uninterrupted output byte for byte";
}

TEST(StreamSim, PeriodicCheckpointsAllRestoreExactly) {
  const auto events = synth_events(9, 300);
  StreamOptions opts = test_options();
  opts.seed = 9;
  opts.checkpoint_every = 128;

  // Collect EVERY periodic checkpoint, then verify each one resumes to the
  // same final output tail.
  StreamSim full(opts);
  std::vector<std::vector<std::uint8_t>> checkpoints;
  full.set_checkpoint_sink(
      [&checkpoints](const std::vector<std::uint8_t>& blob) { checkpoints.push_back(blob); });
  EventRing ring(events.size() + 1);
  for (const StreamEvent& ev : events) ASSERT_TRUE(ring.try_push(ev));
  ring.close();
  std::ostringstream os;
  const StreamRunSummary summary = full.run(ring, os);
  ASSERT_TRUE(summary.ok()) << summary.error;
  const std::string whole = os.str();
  ASSERT_GT(checkpoints.size(), 3u);

  for (std::size_t ci = 0; ci + 1 < checkpoints.size(); ci += 2) {
    StreamOptions tail_opts = opts;
    tail_opts.checkpoint_every = 0;
    StreamSim tail(tail_opts);
    std::string error;
    ASSERT_TRUE(tail.restore(checkpoints[ci], &error)) << "checkpoint " << ci << ": " << error;
    const DrainResult tail_out = drain(tail, events, tail.feed_skip());
    ASSERT_TRUE(tail_out.summary.ok()) << tail_out.summary.error;
    EXPECT_TRUE(whole.ends_with(tail_out.jsonl)) << "checkpoint " << ci;
  }
}

// ---------------------------------------------------------------------------
// StreamSim's idle fold against stepping every slot.
// ---------------------------------------------------------------------------

/// A feed whose gaps run from 1 slot to several hundred (longer than the
/// widest window tested), with bursts, jams, and jam-only events that
/// inject nobody.
std::vector<StreamEvent> gapped_events(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<StreamEvent> events;
  slot_t slot = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.uniform_u64(4);
    slot += kind == 0 ? 1 + rng.uniform_u64(3) : kind == 1 ? 100 + rng.uniform_u64(400)
                                                           : 1 + rng.uniform_u64(40);
    StreamEvent ev;
    ev.slot = slot;
    ev.inject = rng.uniform_u64(8) == 0 ? 0 : 1 + rng.uniform_u64(rng.uniform_u64(6) == 0 ? 12 : 2);
    ev.jam = rng.uniform01() < 0.2;
    events.push_back(ev);
  }
  return events;
}

/// The window line StreamSim writes for window `index`.
std::string window_line(std::uint64_t index, const WindowStats& ws) {
  using ull = unsigned long long;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"window\":%llu,\"start\":%llu,\"end\":%llu,\"arrivals\":%llu,"
                "\"successes\":%llu,\"jammed\":%llu,\"sends\":%llu,\"live_max\":%llu,"
                "\"live_end\":%llu,\"live_mean\":%.6f}\n",
                static_cast<ull>(index), static_cast<ull>(ws.start), static_cast<ull>(ws.end),
                static_cast<ull>(ws.arrivals), static_cast<ull>(ws.successes),
                static_cast<ull>(ws.jammed), static_cast<ull>(ws.sends),
                static_cast<ull>(ws.live_max), static_cast<ull>(ws.live_end), ws.live_mean);
  return buf;
}

/// What a plain loop that steps the core at every slot, with a
/// WindowedMetrics observer, produces for `events`: the window lines, the
/// slots a checkpoint would be cut after (periodic ones, then the final one
/// at EOF), and the core's counters.
struct SteppedRun {
  std::string windows;
  std::vector<slot_t> checkpoints;
  SimResult result;
};

SteppedRun step_every_slot(const std::vector<StreamEvent>& events, const StreamOptions& opts) {
  FunctionSet fs;
  SimConfig config;
  config.horizon = kStreamHorizon;
  config.seed = opts.seed;
  config.recording = RecordingConfig::none();
  CjzCore core(&fs, config, CjzOptions{}, Trace::Storage::kDisabled);
  WindowedMetrics windowed(opts.window);
  SteppedRun run;
  // EOF pads the last event's window to its end.
  const slot_t end = (events.back().slot + opts.window - 1) / opts.window * opts.window;
  std::size_t next = 0;
  for (slot_t slot = 1; slot <= end; ++slot) {
    AdversaryAction action;
    if (next < events.size() && events[next].slot == slot) {
      action.inject = events[next].inject;
      action.jam = events[next].jam;
      ++next;
    }
    EXPECT_FALSE(core.step(slot, action, &windowed));
    if (opts.checkpoint_every > 0 && slot % opts.checkpoint_every == 0)
      run.checkpoints.push_back(slot);
  }
  run.checkpoints.push_back(end);
  for (std::size_t i = 0; i < windowed.series().size(); ++i)
    run.windows += window_line(i + 1, windowed.series()[i]);
  run.result = core.partial_result();
  return run;
}

class StreamFold : public ::testing::TestWithParam<std::tuple<slot_t, slot_t>> {};

TEST_P(StreamFold, WindowsAndCheckpointsMatchSteppingEverySlot) {
  StreamOptions opts;
  opts.seed = 11;
  opts.window = std::get<0>(GetParam());
  opts.checkpoint_every = std::get<1>(GetParam());
  const auto events = gapped_events(opts.window * 31 + opts.checkpoint_every, 300);
  const SteppedRun want = step_every_slot(events, opts);

  StreamSim sim(opts);
  std::vector<slot_t> checkpoints;
  sim.set_checkpoint_sink(
      [&](const std::vector<std::uint8_t>&) { checkpoints.push_back(sim.current_slot()); });
  EventRing ring(events.size());
  for (const StreamEvent& ev : events) ASSERT_TRUE(ring.try_push(ev));
  ring.close();
  std::ostringstream os;
  const StreamRunSummary got = sim.run(ring, os);
  ASSERT_TRUE(got.ok()) << got.error;

  const std::string jsonl = os.str();
  EXPECT_EQ(jsonl.substr(0, jsonl.rfind("{\"done\":")), want.windows);
  EXPECT_EQ(checkpoints, want.checkpoints);
  const SimResult& r = sim.partial_result();
  EXPECT_EQ(r.slots, want.result.slots);
  EXPECT_EQ(r.arrivals, want.result.arrivals);
  EXPECT_EQ(r.successes, want.result.successes);
  EXPECT_EQ(r.jammed_slots, want.result.jammed_slots);
  EXPECT_EQ(r.active_slots, want.result.active_slots);
  EXPECT_EQ(r.total_sends, want.result.total_sends);
  // The gaps leave idle runs to fold, and every slot is accounted for once.
  EXPECT_GT(got.folds, 0u);
  EXPECT_GT(got.work.slots_silent, 0u) << "jam-only events with nobody live";
  EXPECT_EQ(got.work.slots_stepped + got.work.slots_silent + got.work.slots_skipped, r.slots);
}

TEST_P(StreamFold, AMaxWindowsStopLandsOnTheSameSlot) {
  StreamOptions opts;
  opts.seed = 11;
  opts.window = std::get<0>(GetParam());
  opts.checkpoint_every = std::get<1>(GetParam());
  const auto events = gapped_events(opts.window * 31 + opts.checkpoint_every, 300);
  const SteppedRun want = step_every_slot(events, opts);

  opts.max_windows = 5;
  StreamSim head(opts);
  const DrainResult out = drain(head, events, 0);
  ASSERT_TRUE(out.summary.stopped_by_max_windows);
  EXPECT_EQ(head.current_slot(), 5 * opts.window);
  EXPECT_EQ(out.jsonl, want.windows.substr(0, want.windows.find("{\"window\":6,")));
}

INSTANTIATE_TEST_SUITE_P(WindowByCheckpoint, StreamFold,
                         ::testing::Combine(::testing::Values<slot_t>(1, 7, 64),
                                            ::testing::Values<slot_t>(1, 5, 100)));

TEST(CjzCore, SkipSilentMovesTheCountersAsSteppingWould) {
  // A traced, fully recording core: skip_silent must leave what stepping
  // the same empty slots leaves, and count them as skipped.
  FunctionSet fs;
  SimConfig config;
  config.horizon = 1 << 12;
  config.seed = 3;
  config.recording = RecordingConfig{RecordingTier::kFullTrace};
  CjzCore stepped(&fs, config, CjzOptions{});
  CjzCore skipped(&fs, config, CjzOptions{});
  AdversaryAction arrive;
  arrive.inject = 2;
  for (CjzCore* core : {&stepped, &skipped}) {
    slot_t slot = 0;
    (void)core->step(++slot, arrive, nullptr);
    while (core->live() > 0) (void)core->step(++slot, AdversaryAction{}, nullptr);
  }
  const slot_t from = stepped.partial_result().slots;
  for (slot_t slot = from + 1; slot <= from + 300; ++slot)
    (void)stepped.step(slot, AdversaryAction{}, nullptr);
  skipped.skip_silent(from + 100);
  skipped.skip_silent(from + 300);

  EXPECT_EQ(skipped.work().slots_skipped, 300u);
  EXPECT_EQ(stepped.work().slots_silent, 300u);
  const SimResult& a = stepped.partial_result();
  const SimResult& b = skipped.partial_result();
  EXPECT_EQ(b.slots, a.slots);
  EXPECT_EQ(b.jammed_slots, a.jammed_slots);
  EXPECT_EQ(b.active_slots, a.active_slots);
  ASSERT_EQ(b.slot_outcomes.size(), a.slot_outcomes.size());
  for (std::size_t i = 0; i < a.slot_outcomes.size(); ++i) {
    EXPECT_EQ(b.slot_outcomes[i].slot, a.slot_outcomes[i].slot);
    EXPECT_EQ(b.slot_outcomes[i].senders, a.slot_outcomes[i].senders);
    EXPECT_EQ(b.slot_outcomes[i].winner, a.slot_outcomes[i].winner);
  }
  EXPECT_EQ(skipped.trace().slots(), stepped.trace().slots());
  EXPECT_EQ(skipped.trace().total_successes(), stepped.trace().total_successes());
}

TEST(StreamSim, AnEarlyStopReleasesAProducerAsleepInPush) {
  // A max_windows stop leaves most of the feed unread; run() must hang up
  // so the producer, asleep on the full ring, returns instead of hanging.
  StreamOptions opts = test_options();
  opts.max_windows = 2;
  StreamSim sim(opts);
  EventRing ring(4);
  const auto events = synth_events(5, 2000);
  std::size_t pushed = 0;
  std::thread producer([&] {
    for (const StreamEvent& ev : events) {
      if (!ring.push(ev)) break;
      ++pushed;
    }
    ring.close();
  });
  std::ostringstream os;
  const StreamRunSummary summary = sim.run(ring, os);
  producer.join();
  EXPECT_TRUE(summary.stopped_by_max_windows);
  EXPECT_TRUE(ring.hung_up());
  EXPECT_LT(pushed, events.size());
}

TEST(StreamSim, NonMonotoneFeedIsANamedError) {
  const std::vector<StreamEvent> events = {{10, 1, false}, {10, 1, false}};
  StreamSim sim(test_options());
  const DrainResult r = drain(sim, events, 0);
  EXPECT_FALSE(r.summary.ok());
  EXPECT_NE(r.summary.error.find("strictly increasing"), std::string::npos);
}

TEST(StreamSim, RestoreRejectsForeignAndCorruptBlobs) {
  StreamSim sim(test_options());
  std::string error;
  EXPECT_FALSE(sim.restore(std::vector<std::uint8_t>{1, 2, 3}, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos);

  // A stream snapshot corrupted in transit must name the checksum.
  const auto events = synth_events(5, 100);
  StreamOptions opts = test_options();
  opts.max_windows = 1;
  StreamSim head(opts);
  DrainResult head_out = drain(head, events, 0);
  ASSERT_FALSE(head_out.last_checkpoint.empty());
  head_out.last_checkpoint[head_out.last_checkpoint.size() / 2] ^= 0x10;
  StreamSim tail(test_options());
  EXPECT_FALSE(tail.restore(head_out.last_checkpoint, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
}

// A checkpoint of schema version 1 keyed backoff-stage draws to the slot's
// shared stream; continuing it with today's draws would diverge silently.
TEST(StreamSim, RefusesAVersionOneCheckpoint) {
  StreamOptions opts = test_options();
  opts.max_windows = 1;
  StreamSim head(opts);
  const DrainResult head_out = drain(head, synth_events(5, 100), 0);
  ASSERT_FALSE(head_out.last_checkpoint.empty());
  // Version 2 carried a node-table echo byte that version 3 dropped.
  for (const std::uint32_t version : {1u, 2u}) {
    std::vector<std::uint8_t> blob = head_out.last_checkpoint;
    std::memcpy(blob.data() + 8, &version, sizeof(version));
    StreamSim tail(test_options());
    std::string error;
    EXPECT_FALSE(tail.restore(blob, &error));
    EXPECT_NE(error.find("schema version mismatch (blob v" + std::to_string(version)),
              std::string::npos)
        << error;
  }
}

}  // namespace
}  // namespace cr

/// \file
/// Long-lived streaming simulation driver (`cr stream`).
///
/// Where every other engine runs a horizon-bounded closed experiment, the
/// stream driver turns the simulator into a service: arrival events flow in
/// through a fixed-capacity SPSC ring buffer (stdin, a trace file, or a
/// synthetic generator on the producer side), the CJZ cohort core advances
/// slot by slot with no horizon, and completed metric windows leave as JSON
/// lines the moment they close. Either side of the ring sleeps when it
/// cannot go on (full or empty) and is woken by the other, so an idle feed
/// costs no CPU. A run of slots with nobody live and no feed event is folded
/// in one call (CjzCore::skip_silent plus WindowedMetrics::on_empty_slots),
/// cut at window ends and checkpoint slots so both land where stepping each
/// slot puts them. Nothing in the pipeline grows with run length: the node
/// table recycles departed nodes, so resident state is O(peak backlog), the
/// ring is fixed, and windows are published instead of accumulated.
///
/// Checkpoint/restore. snapshot() serializes the complete simulation state —
/// cohort core (nodes, cohorts, pending calendar events), the open metrics
/// window, and the feed cursor (events applied + the one popped-but-pending
/// event) — into a versioned CRSNAP blob (common/snapshot.hpp). The RNG
/// needs no serialization at all: the core's Philox streams are rebound as
/// a pure function of (seed, slot) or of (seed, node, phase, stage).
/// Restoring a checkpoint and re-feeding the same trace (skipping
/// feed_skip() events) continues BIT-IDENTICALLY to the uninterrupted run —
/// determinism rule 8 in docs/ARCHITECTURE.md, enforced end-to-end by the
/// `stream`-labelled tests and byte-compared goldens in tests/golden/.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "channel/types.hpp"
#include "common/check.hpp"
#include "common/functions.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "engine/cjz_core.hpp"
#include "metrics/windowed.hpp"

namespace cr {

/// Current CRSNAP schema version for stream snapshots. Bump on ANY layout
/// change (docs/ARCHITECTURE.md has the add-a-snapshot-field recipe), and on
/// any change to the draws a restored run would continue with.
inline constexpr std::uint32_t kStreamSnapshotVersion = 3;

/// Effectively-unbounded horizon for streaming runs (the cohort core bounds
/// calendar insertions by the config horizon; 2^62 keeps every shift in
/// range while never being reached).
inline constexpr slot_t kStreamHorizon = slot_t{1} << 62;

/// One arrival-feed record: `inject` nodes arrive at the beginning of
/// `slot`, which the adversary may also jam. Slots absent from the feed are
/// simulated as empty, unjammed slots.
struct StreamEvent {
  slot_t slot = 0;
  std::uint64_t inject = 0;
  bool jam = false;

  friend bool operator==(const StreamEvent&, const StreamEvent&) = default;
};

/// What the producer does when the ring is full.
enum class OverflowPolicy : std::uint8_t {
  kBlock = 0,  ///< push(): sleep until the consumer drains the ring to half (lossless)
  kDrop = 1,   ///< try_push(): discard the event and count it (lossy, bounded latency)
};

/// Fixed-capacity single-producer/single-consumer ring buffer of feed
/// events, after FastForward (Giacomoni et al., PPoPP '08): the producer's
/// index and the consumer's sit on separate cache lines, and each side
/// keeps its own copy of the other's index, refreshed only when that copy
/// says the ring is full (producer) or empty (consumer).
///
/// The blocking calls sleep instead of spinning. A producer that finds the
/// ring full sleeps until the consumer has drained it to half; a consumer
/// that finds it empty sleeps until the next push or close(). Each side
/// wakes the other only when the other's flag says it is asleep, and a
/// sleeper sets its flag before it checks the ring again, so no wake-up is
/// lost: the flag store and the index stores are sequentially consistent,
/// so either the sleeper's re-check sees the new index or the waker sees
/// the flag.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : buf_(capacity), capacity_(capacity) {
    CR_CHECK(capacity >= 1);
  }

  /// Producer side. False when full — the caller applies its
  /// OverflowPolicy (push() to sleep, or count the drop). Wakes a consumer
  /// asleep in pop().
  bool try_push(const StreamEvent& ev) {
    const std::uint64_t tail = producer_.index.load(std::memory_order_relaxed);
    if (tail - producer_.other == capacity_) {
      producer_.other = consumer_.index.load(std::memory_order_acquire);
      if (tail - producer_.other == capacity_) return false;
    }
    buf_[tail % capacity_] = ev;
    producer_.index.store(tail + 1, std::memory_order_seq_cst);
    wake(consumer_asleep_);
    return true;
  }

  /// Producer side, blocking: sleeps on a full ring until the consumer has
  /// drained it to half. False, with `ev` not pushed, once the consumer has
  /// hung up.
  bool push(const StreamEvent& ev) {
    while (!try_push(ev)) {
      sleep_until(producer_asleep_, producer_.sleeps, [&] {
        if (hung_up()) return true;
        producer_.other = consumer_.index.load(std::memory_order_seq_cst);
        return producer_.index.load(std::memory_order_relaxed) - producer_.other <=
               capacity_ / 2;
      });
      if (hung_up()) return false;
    }
    return true;
  }

  /// Consumer side. False when currently empty (which is not EOF — poll
  /// exhausted() to distinguish). Wakes a producer asleep in push() once
  /// the ring is drained to half.
  bool try_pop(StreamEvent& out) {
    const std::uint64_t head = consumer_.index.load(std::memory_order_relaxed);
    if (consumer_.other == head) {
      consumer_.other = producer_.index.load(std::memory_order_acquire);
      if (consumer_.other == head) return false;
    }
    out = buf_[head % capacity_];
    // The copy of the tail only lags, so this test holds at the latest from
    // the pop that drains the ring to half onward. A producer whose flag is
    // up pushes nothing, so the fresh tail says whether it is drained yet.
    if (consumer_.other - (head + 1) <= capacity_ / 2) {
      consumer_.index.store(head + 1, std::memory_order_seq_cst);
      if (producer_asleep_.load(std::memory_order_seq_cst) != 0) {
        consumer_.other = producer_.index.load(std::memory_order_acquire);
        if (consumer_.other - (head + 1) <= capacity_ / 2) wake(producer_asleep_);
      }
    } else {
      consumer_.index.store(head + 1, std::memory_order_release);
    }
    return true;
  }

  /// Consumer side, blocking: sleeps on an empty ring until a push or
  /// close(). False once the ring is closed and drained.
  bool pop(StreamEvent& out) {
    for (;;) {
      if (try_pop(out)) return true;
      if (closed()) return try_pop(out);  // close() follows the last push
      sleep_until(consumer_asleep_, consumer_.sleeps, [&] {
        if (closed()) return true;
        consumer_.other = producer_.index.load(std::memory_order_seq_cst);
        return consumer_.other != consumer_.index.load(std::memory_order_relaxed);
      });
    }
  }

  /// Producer: no further pushes will ever happen. Call strictly after the
  /// last push.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    wake(consumer_asleep_);
  }
  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  /// Consumer: no further pops will ever happen. Releases a producer asleep
  /// in push(), and makes every later push() that finds the ring full
  /// return false. StreamSim::run() hangs up when it returns.
  void hang_up() {
    hung_up_.store(true, std::memory_order_seq_cst);
    wake(producer_asleep_);
  }
  bool hung_up() const { return hung_up_.load(std::memory_order_seq_cst); }

  /// Consumer: the feed is finished AND fully drained. Reading closed_
  /// first makes the subsequent emptiness check definitive: a visible close
  /// happens-after the producer's last push.
  bool exhausted() const {
    if (!closed()) return false;
    return producer_.index.load(std::memory_order_acquire) ==
           consumer_.index.load(std::memory_order_relaxed);
  }

  std::size_t size() const {
    return static_cast<std::size_t>(producer_.index.load(std::memory_order_acquire) -
                                    consumer_.index.load(std::memory_order_acquire));
  }
  std::size_t capacity() const { return capacity_; }

  /// How often each side went to sleep in push() or pop().
  std::uint64_t producer_sleeps() const { return producer_.sleeps.load(std::memory_order_relaxed); }
  std::uint64_t consumer_sleeps() const { return consumer_.sleeps.load(std::memory_order_relaxed); }

 private:
  /// One side's cache line: its own index (push or pop count), its copy of
  /// the other side's index, and its sleep count.
  struct alignas(64) Side {
    std::atomic<std::uint64_t> index{0};
    std::uint64_t other = 0;
    std::atomic<std::uint64_t> sleeps{0};
  };

  /// Raise `asleep`, then sleep until ready() holds. ready() re-reads the
  /// ring after the flag is up, so a waker either sees the flag or changed
  /// the ring before the re-read.
  template <typename Ready>
  static void sleep_until(std::atomic<std::uint32_t>& asleep, std::atomic<std::uint64_t>& sleeps,
                          Ready ready) {
    for (;;) {
      asleep.store(1, std::memory_order_seq_cst);
      if (ready()) break;
      sleeps.fetch_add(1, std::memory_order_relaxed);
      asleep.wait(1, std::memory_order_seq_cst);
    }
    asleep.store(0, std::memory_order_relaxed);
  }

  /// Wake the side whose flag is `asleep`, if it is asleep. Call after the
  /// sequentially consistent store that changed the ring.
  static void wake(std::atomic<std::uint32_t>& asleep) {
    if (asleep.load(std::memory_order_seq_cst) != 0) wake_sleeper(asleep);
  }
  /// wake()'s rare half, out of line: lower the flag and, if it was still
  /// up, notify the sleeper.
  static void wake_sleeper(std::atomic<std::uint32_t>& asleep);

  std::vector<StreamEvent> buf_;
  std::size_t capacity_;
  Side producer_;  ///< index: push count; other: the consumer's, as last read
  Side consumer_;  ///< index: pop count; other: the producer's, as last read
  /// Written only around sleeps, close() and hang_up(), so reading them on
  /// every push and pop stays a cache hit.
  alignas(64) std::atomic<std::uint32_t> producer_asleep_{0};
  std::atomic<std::uint32_t> consumer_asleep_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> hung_up_{false};
};

struct StreamOptions {
  std::uint64_t seed = 1;
  slot_t window = 1024;            ///< metrics window width (slots)
  std::uint64_t max_windows = 0;   ///< stop after this many windows (0 = run to EOF)
  /// Cut a checkpoint after every slot divisible by this (0 = only the
  /// final checkpoint at stop). Checkpoints also require a sink.
  slot_t checkpoint_every = 0;
};

/// Final accounting of a streaming run.
struct StreamRunSummary {
  slot_t slots = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t successes = 0;
  std::uint64_t live_at_end = 0;
  std::uint64_t windows = 0;
  std::uint64_t events_applied = 0;
  bool stopped_by_max_windows = false;
  /// The core's work counts since construction or restore: slots_skipped
  /// counts the slots folded in runs, `folds` the runs.
  CjzCoreWork work;
  std::uint64_t folds = 0;
  std::string error;  ///< empty on success

  bool ok() const { return error.empty(); }
};

/// The streaming driver: one instance per (possibly restored) run.
class StreamSim {
 public:
  explicit StreamSim(const StreamOptions& opts);

  /// Receives every cut checkpoint blob (periodic and final). Set before
  /// run(); without a sink no checkpoints are cut.
  void set_checkpoint_sink(std::function<void(const std::vector<std::uint8_t>&)> sink) {
    checkpoint_sink_ = std::move(sink);
  }

  /// Drain `ring` until EOF (producer closed + empty) or max_windows,
  /// writing one JSON line per completed window to `out`. At EOF the open
  /// window is completed by padding with empty slots, a final checkpoint is
  /// cut, and a `{"done":...}` summary line is written; a max_windows stop
  /// cuts the final checkpoint but pads and summarizes nothing, so a
  /// restored continuation's output concatenates byte-identically. Sleeps in
  /// EventRing::pop() while the ring is empty, and hangs the ring up when it
  /// returns, so a producer asleep in push() is released.
  StreamRunSummary run(EventRing& ring, std::ostream& out);

  /// Serialize the full simulation state (valid between slots — run() only
  /// cuts at slot boundaries).
  std::vector<std::uint8_t> snapshot() const;

  /// Load a snapshot() blob into a freshly-constructed sim whose options
  /// match the original run. False + named diagnostic in *error on any
  /// corrupt, truncated, version-mismatched, or mis-configured blob (never
  /// UB; the sim must then be discarded).
  bool restore(const std::uint8_t* data, std::size_t size, std::string* error);
  bool restore(const std::vector<std::uint8_t>& blob, std::string* error) {
    return restore(blob.data(), blob.size(), error);
  }

  /// After restore(): how many leading feed events the producer must skip
  /// when re-reading the same trace (events already applied, plus the one
  /// pending event carried inside the snapshot).
  std::uint64_t feed_skip() const { return events_applied_ + (has_pending_ ? 1 : 0); }

  slot_t current_slot() const { return cur_slot_; }
  const SimResult& partial_result() const { return core_.partial_result(); }
  CjzCoreMemoryStats memory_stats() const { return core_.memory_stats(); }

 private:
  void emit_window(const WindowStats& ws);
  void step_slot(slot_t slot, const AdversaryAction& action);
  void fold_silent(slot_t last);
  void cut_due_checkpoint();

  StreamOptions opts_;
  FunctionSet fs_;  ///< paper-default functions; must outlive core_
  CjzCore core_;
  WindowedMetrics windowed_;
  slot_t cur_slot_ = 0;
  std::uint64_t windows_emitted_ = 0;
  std::uint64_t events_applied_ = 0;
  bool has_pending_ = false;   ///< a popped event not yet applied
  StreamEvent pending_{};
  /// The next slot after which run() cuts a periodic checkpoint.
  slot_t next_checkpoint_ = 0;
  std::uint64_t folds_ = 0;
  std::function<void(const std::vector<std::uint8_t>&)> checkpoint_sink_;
  std::ostream* out_ = nullptr;  ///< bound while run() is active
};

/// Parse one feed line: "slot inject [jam01]", '#' starts a comment, blank
/// lines skipped. Fields are unsigned decimal digits, with the slot in
/// [1, kStreamHorizon] and the injection at most SimConfig::max_live_nodes.
/// Returns false for skipped lines; a malformed line sets *error (empty
/// otherwise).
bool parse_stream_event(std::string_view line, StreamEvent* ev, std::string* error);

/// Deterministic synthetic feed, one event at a time: uniform slot gaps in
/// [1, 20], single-node injections and Bernoulli(0.15) jams, drawn from the
/// kStreamSynth fork of `seed` — reproducible for a given seed, independent
/// of every engine stream, and holding nothing but its cursor.
class SynthStream {
 public:
  explicit SynthStream(std::uint64_t seed);
  StreamEvent next();

 private:
  Rng rng_;
  slot_t slot_ = 0;
};

}  // namespace cr

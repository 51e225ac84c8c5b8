/// \file
/// Long-lived streaming simulation driver (`cr stream`).
///
/// Where every other engine runs a horizon-bounded closed experiment, the
/// stream driver turns the simulator into a service: arrival events flow in
/// through a fixed-capacity SPSC ring buffer (stdin, a trace file, or a
/// synthetic generator on the producer side), the CJZ cohort core advances
/// slot by slot with no horizon, and completed metric windows leave as JSON
/// lines the moment they close. Nothing in the pipeline grows with run
/// length: the node table recycles departed nodes, so resident state is
/// O(peak backlog), the ring is fixed, and windows are published instead of
/// accumulated.
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
  kBlock = 0,  ///< spin/yield until the consumer frees a slot (lossless)
  kDrop = 1,   ///< discard the event and count it (lossy, bounded latency)
};

/// Fixed-capacity single-producer/single-consumer ring buffer of feed
/// events. Lock-free: the producer owns tail_, the consumer owns head_,
/// and close() publishes "no more pushes ever" (strictly after the last
/// push, so exhausted() == closed && empty is race-free for the consumer).
class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : buf_(capacity), capacity_(capacity) {
    CR_CHECK(capacity >= 1);
  }

  /// Producer side. False when full — the caller applies its
  /// OverflowPolicy (block/retry or count the drop).
  bool try_push(const StreamEvent& ev) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == capacity_) return false;
    buf_[tail % capacity_] = ev;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when currently empty (which is not EOF — poll
  /// exhausted() to distinguish).
  bool try_pop(StreamEvent& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    out = buf_[head % capacity_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer: no further pushes will ever happen. Call strictly after the
  /// last push.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Consumer: the feed is finished AND fully drained. Reading closed_
  /// first (acquire) makes the subsequent emptiness check definitive: a
  /// visible close happens-after the producer's last push.
  bool exhausted() const {
    if (!closed()) return false;
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_relaxed);
  }

  std::size_t size() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::vector<StreamEvent> buf_;
  std::size_t capacity_;
  std::atomic<std::uint64_t> head_{0};  ///< pop count (consumer-owned)
  std::atomic<std::uint64_t> tail_{0};  ///< push count (producer-owned)
  std::atomic<bool> closed_{false};
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
  /// restored continuation's output concatenates byte-identically.
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

  StreamOptions opts_;
  FunctionSet fs_;  ///< paper-default functions; must outlive core_
  CjzCore core_;
  WindowedMetrics windowed_;
  slot_t cur_slot_ = 0;
  std::uint64_t windows_emitted_ = 0;
  std::uint64_t events_applied_ = 0;
  bool has_pending_ = false;   ///< a popped event not yet applied
  StreamEvent pending_{};
  std::function<void(const std::vector<std::uint8_t>&)> checkpoint_sink_;
  std::ostream* out_ = nullptr;  ///< bound while run() is active
};

/// Parse one feed line: "slot inject [jam01]", '#' starts a comment, blank
/// lines skipped. Fields are unsigned decimal digits, with the slot in
/// [1, kStreamHorizon] and the injection at most SimConfig::max_live_nodes.
/// Returns false for skipped lines; a malformed line sets *error (empty
/// otherwise).
bool parse_stream_event(const std::string& line, StreamEvent* ev, std::string* error);

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

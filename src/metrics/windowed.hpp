// Streaming windowed metrics: throughput / backlog / jamming over time.
//
// Attached to any engine as a SlotObserver, WindowedMetrics folds the run
// into fixed-width slot windows — O(1) state per slot, one WindowStats row
// per window — so benches can plot "successes per window" and "queue depth
// over time" on runs far too long to record per-slot traces for. The final
// partial window (a run stopping early or a horizon not divisible by the
// width) is flushed by on_run_end(), which every engine calls.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/snapshot.hpp"
#include "engine/sim_result.hpp"

namespace cr {

struct WindowStats {
  slot_t start = 0;  ///< first slot of the window (inclusive)
  slot_t end = 0;    ///< last slot of the window (inclusive)
  std::uint64_t arrivals = 0;
  std::uint64_t successes = 0;
  std::uint64_t jammed = 0;
  std::uint64_t sends = 0;      ///< transmissions incl. collisions
  std::uint64_t live_max = 0;   ///< peak backlog inside the window
  std::uint64_t live_end = 0;   ///< backlog when the window closed
  double live_mean = 0.0;       ///< mean backlog over the window's slots

  slot_t width() const { return end - start + 1; }
  double throughput() const {
    return width() ? static_cast<double>(successes) / static_cast<double>(width()) : 0.0;
  }

  friend bool operator==(const WindowStats&, const WindowStats&) = default;
};

class WindowedMetrics final : public SlotObserver {
 public:
  /// `window` >= 1: number of slots folded into each WindowStats row.
  explicit WindowedMetrics(slot_t window);

  void on_slot(const SlotOutcome& out, std::uint64_t injected, std::uint64_t live_nodes) override;
  void on_run_end(const SimResult& result) override;

  /// Fold `count` empty slots starting at `first` (no arrival, sender or
  /// jam, nobody live) in O(windows closed): the same as `count` on_slot()
  /// calls for them.
  void on_empty_slots(slot_t first, slot_t count);

  const std::vector<WindowStats>& series() const { return series_; }
  slot_t window() const { return window_; }

  /// Max live population over the whole run (0 before any slot).
  std::uint64_t peak_backlog() const { return peak_backlog_; }

  /// Streaming mode: deliver each completed window to `sink` instead of
  /// accumulating it in series() — an unbounded run must not grow an
  /// unbounded series vector. Set once, before the first slot.
  void set_sink(std::function<void(const WindowStats&)> sink) { sink_ = std::move(sink); }

  /// Serialize the open (partial) window and running aggregates. Completed
  /// windows are NOT serialized — in streaming mode they were already
  /// published through the sink before any checkpoint is cut.
  void save(SnapshotWriter& w) const;
  /// Inverse of save(); fails the reader on a window-width mismatch.
  void load(SnapshotReader& r);

 private:
  void flush();

  slot_t window_;
  std::vector<WindowStats> series_;
  WindowStats cur_;
  std::uint64_t live_sum_ = 0;
  std::uint64_t slots_in_window_ = 0;
  std::uint64_t peak_backlog_ = 0;
  std::function<void(const WindowStats&)> sink_;
};

}  // namespace cr

#include "metrics/windowed.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cr {

WindowedMetrics::WindowedMetrics(slot_t window) : window_(window) { CR_CHECK(window >= 1); }

void WindowedMetrics::on_slot(const SlotOutcome& out, std::uint64_t injected,
                              std::uint64_t live_nodes) {
  if (slots_in_window_ == 0) cur_.start = out.slot;
  cur_.end = out.slot;
  cur_.arrivals += injected;
  cur_.successes += out.success() ? 1 : 0;
  cur_.jammed += out.jammed ? 1 : 0;
  cur_.sends += out.senders;
  cur_.live_max = std::max(cur_.live_max, live_nodes);
  // `live_nodes` counts this slot's winner, which departs as the slot ends.
  cur_.live_end = live_nodes - (out.success() ? 1 : 0);
  live_sum_ += live_nodes;
  peak_backlog_ = std::max(peak_backlog_, live_nodes);
  if (++slots_in_window_ == window_) flush();
}

void WindowedMetrics::on_empty_slots(slot_t first, slot_t count) {
  while (count > 0) {
    const slot_t take = std::min<slot_t>(count, window_ - slots_in_window_);
    if (slots_in_window_ == 0) cur_.start = first;
    first += take;
    count -= take;
    cur_.end = first - 1;
    cur_.live_end = 0;
    slots_in_window_ += take;
    if (slots_in_window_ == window_) flush();
  }
}

void WindowedMetrics::on_run_end(const SimResult&) {
  if (slots_in_window_ > 0) flush();
}

void WindowedMetrics::flush() {
  cur_.live_mean = static_cast<double>(live_sum_) / static_cast<double>(slots_in_window_);
  if (sink_) {
    sink_(cur_);
  } else {
    series_.push_back(cur_);
  }
  cur_ = WindowStats{};
  live_sum_ = 0;
  slots_in_window_ = 0;
}

void WindowedMetrics::save(SnapshotWriter& w) const {
  w.u64(window_);
  w.u64(cur_.start);
  w.u64(cur_.end);
  w.u64(cur_.arrivals);
  w.u64(cur_.successes);
  w.u64(cur_.jammed);
  w.u64(cur_.sends);
  w.u64(cur_.live_max);
  w.u64(cur_.live_end);
  w.f64(cur_.live_mean);
  w.u64(live_sum_);
  w.u64(slots_in_window_);
  w.u64(peak_backlog_);
}

void WindowedMetrics::load(SnapshotReader& r) {
  const std::uint64_t window = r.u64("windowed.window");
  if (r.ok() && window != window_) {
    r.fail("snapshot: window width mismatch (blob " + std::to_string(window) + ", run " +
           std::to_string(window_) + ")");
    return;
  }
  cur_.start = r.u64("windowed.cur.start");
  cur_.end = r.u64("windowed.cur.end");
  cur_.arrivals = r.u64("windowed.cur.arrivals");
  cur_.successes = r.u64("windowed.cur.successes");
  cur_.jammed = r.u64("windowed.cur.jammed");
  cur_.sends = r.u64("windowed.cur.sends");
  cur_.live_max = r.u64("windowed.cur.live_max");
  cur_.live_end = r.u64("windowed.cur.live_end");
  cur_.live_mean = r.f64("windowed.cur.live_mean");
  live_sum_ = r.u64("windowed.live_sum");
  slots_in_window_ = r.u64("windowed.slots_in_window");
  peak_backlog_ = r.u64("windowed.peak_backlog");
}

}  // namespace cr

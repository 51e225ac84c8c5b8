#include "engine/stream.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>

#include "common/rng.hpp"
#include "common/stream_tags.hpp"

namespace cr {

namespace {

SimConfig stream_config(const StreamOptions& o) {
  SimConfig c;
  c.horizon = kStreamHorizon;
  c.seed = o.seed;
  c.recording = RecordingConfig::none();
  return c;
}

using ull = unsigned long long;

bool is_blank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A whole field of decimal digits: no sign, no overflow, nothing after.
bool parse_digits(std::string_view field, std::uint64_t* out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void EventRing::wake_sleeper(std::atomic<std::uint32_t>& asleep) {
  if (asleep.exchange(0, std::memory_order_seq_cst) != 0) asleep.notify_one();
}

StreamSim::StreamSim(const StreamOptions& opts)
    : opts_(opts),
      core_(&fs_, stream_config(opts), CjzOptions{}, Trace::Storage::kDisabled),
      windowed_(opts.window) {
  windowed_.set_sink([this](const WindowStats& ws) { emit_window(ws); });
}

void StreamSim::emit_window(const WindowStats& ws) {
  ++windows_emitted_;
  if (out_ == nullptr) return;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"window\":%llu,\"start\":%llu,\"end\":%llu,\"arrivals\":%llu,"
                "\"successes\":%llu,\"jammed\":%llu,\"sends\":%llu,\"live_max\":%llu,"
                "\"live_end\":%llu,\"live_mean\":%.6f}",
                static_cast<ull>(windows_emitted_), static_cast<ull>(ws.start),
                static_cast<ull>(ws.end), static_cast<ull>(ws.arrivals),
                static_cast<ull>(ws.successes), static_cast<ull>(ws.jammed),
                static_cast<ull>(ws.sends), static_cast<ull>(ws.live_max),
                static_cast<ull>(ws.live_end), ws.live_mean);
  *out_ << buf << '\n';
  out_->flush();
}

void StreamSim::step_slot(slot_t slot, const AdversaryAction& action) {
  // No stop flags are set in streaming configs, so step() never trips.
  (void)core_.step(slot, action, &windowed_);
  cur_slot_ = slot;
  cut_due_checkpoint();
}

void StreamSim::fold_silent(slot_t last) {
  core_.skip_silent(last);
  windowed_.on_empty_slots(cur_slot_ + 1, last - cur_slot_);
  cur_slot_ = last;
  ++folds_;
  cut_due_checkpoint();
}

void StreamSim::cut_due_checkpoint() {
  if (cur_slot_ != next_checkpoint_) return;
  next_checkpoint_ += opts_.checkpoint_every;
  checkpoint_sink_(snapshot());
}

StreamRunSummary StreamSim::run(EventRing& ring, std::ostream& out) {
  out_ = &out;
  StreamRunSummary s;
  // The first slot divisible by checkpoint_every after the cursor; none
  // without a sink. Slots stay below 2^62, so the sums cannot wrap.
  const slot_t every = opts_.checkpoint_every;
  next_checkpoint_ = checkpoint_sink_ && every > 0 ? cur_slot_ - cur_slot_ % every + every
                                                   : std::numeric_limits<slot_t>::max();
  bool stop_max = false;
  bool eof = false;
  for (;;) {
    if (!eof) {
      if (opts_.max_windows > 0 && windows_emitted_ >= opts_.max_windows) {
        stop_max = true;
        break;
      }
      if (!has_pending_) {
        has_pending_ = ring.pop(pending_);
        eof = !has_pending_;
      }
    }
    // At EOF the open window is padded to its boundary with empty slots,
    // which flushes it through the sink.
    if (eof && cur_slot_ % opts_.window == 0) break;
    if (has_pending_ && pending_.slot <= cur_slot_) {
      s.error = "feed slot " + std::to_string(pending_.slot) +
                " is not ahead of the simulation (at slot " + std::to_string(cur_slot_) +
                "); feed slots must be strictly increasing";
      break;
    }
    const slot_t next = cur_slot_ + 1;
    if (has_pending_ && pending_.slot == next) {
      AdversaryAction action;
      action.inject = pending_.inject;
      action.jam = pending_.jam;
      // Mark the event applied BEFORE stepping: a checkpoint cut inside
      // step_slot must already account for it in the feed cursor.
      has_pending_ = false;
      ++events_applied_;
      step_slot(next, action);
    } else if (core_.live() > 0) {
      step_slot(next, AdversaryAction{});
    } else {
      // Nobody live and no event before `last`: fold the run of silent
      // slots, ending it at the window's last slot and at the next
      // checkpoint slot so windows, checkpoints and a max_windows stop land
      // on the slots that stepping each slot puts them on.
      slot_t last = std::min(cur_slot_ - cur_slot_ % opts_.window + opts_.window,
                             next_checkpoint_);
      if (has_pending_) last = std::min(last, pending_.slot - 1);
      fold_silent(last);
    }
  }
  ring.hang_up();

  if (s.error.empty() && !stop_max) {
    // EOF: cut the final checkpoint and write the summary line. A
    // max_windows stop does neither and pads nothing — the restored tail
    // re-enters the loop at the true EOF, so head + tail output concatenates
    // byte-identically with the uninterrupted run.
    if (checkpoint_sink_) checkpoint_sink_(snapshot());
    const SimResult& pr = core_.partial_result();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"done\":true,\"slots\":%llu,\"arrivals\":%llu,\"successes\":%llu,"
                  "\"live_at_end\":%llu,\"windows\":%llu,\"events\":%llu}",
                  static_cast<ull>(pr.slots), static_cast<ull>(pr.arrivals),
                  static_cast<ull>(pr.successes), static_cast<ull>(core_.live()),
                  static_cast<ull>(windows_emitted_), static_cast<ull>(events_applied_));
    out << buf << '\n';
    out.flush();
  } else if (stop_max && checkpoint_sink_) {
    checkpoint_sink_(snapshot());
  }

  const SimResult& pr = core_.partial_result();
  s.slots = pr.slots;
  s.arrivals = pr.arrivals;
  s.successes = pr.successes;
  s.live_at_end = core_.live();
  s.windows = windows_emitted_;
  s.events_applied = events_applied_;
  s.stopped_by_max_windows = stop_max;
  s.work = core_.work();
  s.folds = folds_;
  out_ = nullptr;
  return s;
}

std::vector<std::uint8_t> StreamSim::snapshot() const {
  SnapshotWriter w;
  core_.save(w);
  windowed_.save(w);
  w.u64(cur_slot_);
  w.u64(windows_emitted_);
  w.u64(events_applied_);
  w.u8(has_pending_ ? 1 : 0);
  w.u64(pending_.slot);
  w.u64(pending_.inject);
  w.u8(pending_.jam ? 1 : 0);
  return w.seal(kStreamSnapshotVersion);
}

bool StreamSim::restore(const std::uint8_t* data, std::size_t size, std::string* error) {
  SnapshotReader r(data, size, kStreamSnapshotVersion);
  core_.load(r);
  windowed_.load(r);
  cur_slot_ = r.u64("stream.cur_slot");
  windows_emitted_ = r.u64("stream.windows_emitted");
  events_applied_ = r.u64("stream.events_applied");
  has_pending_ = r.u8("stream.has_pending") != 0;
  pending_.slot = r.u64("stream.pending.slot");
  pending_.inject = r.u64("stream.pending.inject");
  pending_.jam = r.u8("stream.pending.jam") != 0;
  r.expect_end();
  if (r.ok() && cur_slot_ != core_.partial_result().slots)
    r.fail("snapshot: stream cursor disagrees with the engine slot count");
  if (!r.ok()) {
    if (error != nullptr) *error = r.error();
    return false;
  }
  return true;
}

bool parse_stream_event(std::string_view line, StreamEvent* ev, std::string* error) {
  if (error != nullptr) error->clear();
  const std::string_view text = line.substr(0, line.find('#'));
  std::string_view fields[4];
  std::size_t count = 0;
  for (std::size_t i = 0; count < 4;) {
    while (i < text.size() && is_blank(text[i])) ++i;
    if (i == text.size()) break;
    const std::size_t start = i;
    while (i < text.size() && !is_blank(text[i])) ++i;
    fields[count++] = text.substr(start, i - start);
  }
  if (count == 0) return false;  // blank / comment-only line

  std::uint64_t slot = 0;
  std::uint64_t inject = 0;
  std::uint64_t jam = 0;
  const auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (count < 2 || count > 3 || !parse_digits(fields[0], &slot) ||
      !parse_digits(fields[1], &inject) ||
      (count == 3 && (!parse_digits(fields[2], &jam) || jam > 1)))
    return fail("malformed trace line \"" + std::string(line) +
                "\" (want: slot inject [jam01])");
  if (slot == 0) return fail("trace slot 0 is invalid (slots are 1-based)");
  if (slot > kStreamHorizon)
    return fail("trace slot " + std::to_string(slot) + " is past the stream horizon " +
                std::to_string(kStreamHorizon));
  if (const std::uint64_t cap = SimConfig{}.max_live_nodes; inject > cap)
    return fail("trace line injects " + std::to_string(inject) +
                " nodes, more than the live-node cap " + std::to_string(cap));
  ev->slot = slot;
  ev->inject = inject;
  ev->jam = jam != 0;
  return true;
}

SynthStream::SynthStream(std::uint64_t seed) : rng_(Rng(seed).fork(streams::kStreamSynth)) {}

StreamEvent SynthStream::next() {
  slot_ += 1 + rng_.uniform_u64(20);  // mean gap 10.5 -> arrival rate ~0.095
  StreamEvent ev;
  ev.slot = slot_;
  ev.inject = 1;
  ev.jam = rng_.uniform01() < 0.15;
  return ev;
}

}  // namespace cr

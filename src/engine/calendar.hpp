/// \file
/// Calendar queue for the fast engines: a bounded hierarchical timing wheel.
///
/// Events carry (slot, kind, node, generation). Stale events (the node
/// transitioned or departed since scheduling) are filtered by the consumer via
/// the generation check, which is cheaper than removing them from a bucket.
///
/// Layout (Varghese & Lauck's hierarchical timing wheel): eleven levels of 64
/// buckets, one 6-bit digit of the slot number per level, so every slot below
/// 2^66 fits. An event sits at the level of the highest digit in which its
/// slot differs from the wheel's clock, in the bucket that digit names; level
/// 0 therefore holds one slot per bucket. Moving the clock forward cascades
/// the one bucket per level whose range it enters down to the levels below.
/// A push or a pop is O(1) and an event cascades at most once per level. A
/// bucket is a chain of 32-event blocks drawn from one pool, so a cascade
/// moves events without reallocating and a block freed by one bucket is
/// reused by the next; the memory is the peak of pending events, in blocks,
/// plus 704 bucket heads at any horizon.
///
/// Pop order within a slot is unspecified, and nothing may depend on it:
/// CjzCore keys each backoff stage's draws by (node, phase, stage), and a
/// slot's senders are counted, not ordered. So the wheel's layout is not part
/// of the state: save() writes the events sorted by their packed words, and
/// load() lets the wheel place them afresh.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/types.hpp"
#include "common/check.hpp"
#include "common/snapshot.hpp"

namespace cr {

struct CalendarEvent {
  enum class Kind : std::uint8_t { kStageBegin = 0, kSend = 1 };

  slot_t slot = 0;          ///< absolute slot the event fires in
  Kind kind = Kind::kSend;
  std::uint32_t node = 0;   ///< owning node's table index in the engine
  std::uint32_t gen = 0;    ///< owner's generation at scheduling time (staleness check)
};

/// Timing wheel of calendar events, popped slot by slot.
class Calendar {
 public:
  Calendar() = default;
  // Blocks link to each other by address, so a moved-from wheel would still
  // point into the blocks it gave away.
  Calendar(Calendar&&) = delete;
  Calendar& operator=(Calendar&&) = delete;

  /// Schedule an event (no dedup; consumers filter stale generations). Its
  /// slot must not be earlier than the slot last passed to pop_due().
  void push(const CalendarEvent& ev) {
    CR_DCHECK(ev.slot >= now_);
    place(Packed{(static_cast<std::uint64_t>(ev.slot) << 1) | static_cast<std::uint64_t>(ev.kind),
                 (static_cast<std::uint64_t>(ev.gen) << 32) | ev.node});
    ++size_;
  }

  /// Pop an event scheduled at `slot`, in no particular order; nullopt once
  /// none is left. Events pushed for `slot` while it drains are popped too.
  /// Successive calls pass non-decreasing slots, and no pending event may be
  /// due before `slot` (the engine visits every slot that has one).
  std::optional<CalendarEvent> pop_due(slot_t slot) {
    if (slot != now_) advance(slot);
    const auto idx = static_cast<unsigned>(slot & kDigitMask);
    Block* block = head_[idx];
    if (block == nullptr) return std::nullopt;
    const Packed p = block->events[--block->count];
    if (block->count == 0) {
      head_[idx] = block->next;
      release(block);
      if (head_[idx] == nullptr) occupied_[0] &= ~(std::uint64_t{1} << idx);
    }
    --size_;
    CalendarEvent ev;
    ev.slot = static_cast<slot_t>(p.key >> 1);
    ev.kind = static_cast<CalendarEvent::Kind>(p.key & 1);
    ev.node = static_cast<std::uint32_t>(p.payload);
    ev.gen = static_cast<std::uint32_t>(p.payload >> 32);
    return ev;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// A lower bound on the earliest scheduled slot (stale entries included):
  /// the first slot of the earliest occupied bucket, exact when that bucket is
  /// on level 0. Callers treat it as a wake-up hint, never as ground truth.
  /// 0 when the calendar is empty; slots themselves start at 1.
  slot_t next_due_slot() const {
    if (size_ == 0) return 0;
    int level = 0;
    while (occupied_[level] == 0) ++level;
    const unsigned shift = kDigitBits * static_cast<unsigned>(level);
    const unsigned above = shift + kDigitBits;
    const slot_t high = above >= 64 ? 0 : (now_ >> above) << above;
    return high | (static_cast<slot_t>(std::countr_zero(occupied_[level])) << shift);
  }

  /// Discard every event, visiting only occupied buckets.
  void clear() {
    for (int level = 0; level < kLevels; ++level) {
      for (std::uint64_t m = occupied_[level]; m != 0; m &= m - 1) {
        const std::size_t i = at(level, static_cast<unsigned>(std::countr_zero(m)));
        for (Block* b = head_[i]; b != nullptr;) {
          Block* next = b->next;
          release(b);
          b = next;
        }
        head_[i] = nullptr;
      }
      occupied_[level] = 0;
    }
    size_ = 0;
  }

  /// Serialize the pending events sorted by (key, payload): the same event
  /// set always writes the same bytes, whatever the wheel's layout.
  void save(SnapshotWriter& w) const {
    std::vector<Packed> events;
    events.reserve(size_);
    for (int level = 0; level < kLevels; ++level)
      for (std::uint64_t m = occupied_[level]; m != 0; m &= m - 1)
        for (const Block* b = head_[at(level, static_cast<unsigned>(std::countr_zero(m)))];
             b != nullptr; b = b->next)
          events.insert(events.end(), b->events, b->events + b->count);
    std::sort(events.begin(), events.end(), [](const Packed& a, const Packed& b) {
      return a.key != b.key ? a.key < b.key : a.payload < b.payload;
    });
    w.u64(events.size());
    for (const Packed& p : events) {
      w.u64(p.key);
      w.u64(p.payload);
    }
  }

  /// Inverse of save(). `from` (at least 1) is the first slot the restored
  /// run will pop, so the clock resumes just before it; an event due earlier
  /// could never fire, and the blob is refused.
  void load(SnapshotReader& r, slot_t from) {
    const std::uint64_t n = r.u64("calendar.size");
    if (!r.check_count(n, 16, "calendar.events")) return;
    clear();
    now_ = from - 1;
    for (std::uint64_t i = 0; i < n; ++i) {
      Packed p;
      p.key = r.u64("calendar.event.key");
      p.payload = r.u64("calendar.event.payload");
      if (!r.ok()) return;
      if (static_cast<slot_t>(p.key >> 1) < from) {
        r.fail("snapshot: calendar event at slot " + std::to_string(p.key >> 1) +
               " precedes the resume slot " + std::to_string(from));
        return;
      }
      place(p);
      ++size_;
    }
  }

 private:
  struct Packed {
    std::uint64_t key = 0;      ///< (slot << 1) | kind
    std::uint64_t payload = 0;  ///< (gen << 32) | node
  };
  static constexpr unsigned kDigitBits = 6;
  static constexpr std::uint64_t kDigitMask = 63;
  static constexpr int kLevels = 11;  ///< 11 digits of 6 bits cover any slot_t
  static constexpr std::uint32_t kBlockEvents = 32;
  static constexpr std::size_t kChunkBlocks = 16;  ///< blocks the pool allocates at once
  struct Block {
    Block* next = nullptr;  ///< the header shares a cache line with events[0]
    std::uint32_t count = 0;
    Packed events[kBlockEvents];
  };

  /// Level of the highest 6-bit digit set in `diff` (0 for diff < 64).
  static int level_of(std::uint64_t diff) {
    return (static_cast<int>(std::bit_width(diff | 1)) - 1) / static_cast<int>(kDigitBits);
  }
  /// Index into head_ of bucket `idx` on `level`.
  static std::size_t at(int level, unsigned idx) {
    return static_cast<std::size_t>(level) * 64 + idx;
  }

  void place(const Packed& p) {
    const auto s = static_cast<slot_t>(p.key >> 1);
    const int level = level_of(s ^ now_);
    const auto idx = static_cast<unsigned>((s >> (kDigitBits * level)) & kDigitMask);
    Block*& head = head_[at(level, idx)];
    if (head == nullptr || head->count == kBlockEvents) {
      Block* b = acquire();
      b->next = head;
      head = b;
    }
    head->events[head->count++] = p;
    occupied_[level] |= std::uint64_t{1} << idx;
  }

  Block* acquire() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Block[]>(kChunkBlocks));
      for (std::size_t i = 0; i < kChunkBlocks; ++i) release(&chunks_.back()[i]);
    }
    Block* b = free_;
    free_ = b->next;
    b->count = 0;
    return b;
  }
  void release(Block* b) {
    b->next = free_;
    free_ = b;
  }

  /// Move the clock to `slot`. Only the levels from the highest digit that
  /// changes down to 1 can hold events that are now nearer: on each, the
  /// bucket the new clock's digit names moves down a level or more.
  void advance(slot_t slot) {
    CR_DCHECK(slot > now_);
    const int top = level_of(now_ ^ slot);
    now_ = slot;
    for (int level = top; level >= 1; --level) {
      const auto idx = static_cast<unsigned>((slot >> (kDigitBits * level)) & kDigitMask);
      if ((occupied_[level] >> idx & 1) == 0) continue;
      occupied_[level] &= ~(std::uint64_t{1} << idx);
      Block* b = head_[at(level, idx)];
      head_[at(level, idx)] = nullptr;
      while (b != nullptr) {
        for (std::uint32_t i = 0; i < b->count; ++i) {
          CR_DCHECK(static_cast<slot_t>(b->events[i].key >> 1) >= slot);
          place(b->events[i]);
        }
        Block* next = b->next;
        release(b);
        b = next;
      }
    }
  }

  std::vector<std::unique_ptr<Block[]>> chunks_;  ///< the pool; blocks never move
  Block* free_ = nullptr;
  std::array<Block*, kLevels * 64> head_ = {};
  std::array<std::uint64_t, kLevels> occupied_ = {};
  slot_t now_ = 0;  ///< the wheel's clock: the slot last popped
  std::size_t size_ = 0;
};

}  // namespace cr

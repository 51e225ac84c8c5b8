/// \file
/// Calendar queue for the fast engines.
///
/// A min-heap of (slot, kind) events carrying a node index and a generation
/// counter. Stale events (the node transitioned or departed since
/// scheduling) are filtered by the consumer via the generation check —
/// cheaper than removing from the middle of a heap.
///
/// Kind ordering matters: all kStageBegin events of a slot are delivered
/// before any kSend event of the same slot, because beginning a backoff
/// stage may schedule a send in that very slot (offset 0).
///
/// Storage note: events are packed into two words — the (slot, kind) sort
/// key in one and the (gen, node) payload in the other — so heap sifts move
/// 16 bytes and compare a single integer. The comparator is value-equivalent
/// to the old (slot, kind) field comparison, and std::push_heap/pop_heap
/// move elements purely by comparator outcomes, so the pop order — ties
/// included — is identical to the unpacked representation. (Plan-path
/// bit-exactness and the golden CSVs depend on that order.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "channel/types.hpp"
#include "common/snapshot.hpp"

namespace cr {

struct CalendarEvent {
  /// kStageBegin sorts before kSend within a slot (see file comment).
  enum class Kind : std::uint8_t { kStageBegin = 0, kSend = 1 };

  slot_t slot = 0;          ///< absolute slot the event fires in
  Kind kind = Kind::kSend;
  std::uint32_t node = 0;   ///< owning node's dense index in the engine
  std::uint32_t gen = 0;    ///< owner's generation at scheduling time (staleness check)
};

/// Min-heap of calendar events keyed by (slot, kind).
class Calendar {
 public:
  /// Schedule an event (no dedup; consumers filter stale generations).
  void push(const CalendarEvent& ev) {
    heap_.push_back(Packed{(static_cast<std::uint64_t>(ev.slot) << 1) |
                               static_cast<std::uint64_t>(ev.kind),
                           (static_cast<std::uint64_t>(ev.gen) << 32) | ev.node});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pop the next event scheduled at or before `slot` (stage-begins first
  /// within a slot); nullopt when none remain for this slot.
  std::optional<CalendarEvent> pop_due(slot_t slot) {
    if (heap_.empty()) return std::nullopt;
    const Packed& top = heap_.front();
    // The engine visits every slot in order, so nothing can be overdue.
    CR_DCHECK(static_cast<slot_t>(top.key >> 1) >= slot);
    if (static_cast<slot_t>(top.key >> 1) > slot) return std::nullopt;
    CalendarEvent ev;
    ev.slot = static_cast<slot_t>(top.key >> 1);
    ev.kind = static_cast<CalendarEvent::Kind>(top.key & 1);
    ev.node = static_cast<std::uint32_t>(top.payload);
    ev.gen = static_cast<std::uint32_t>(top.payload >> 32);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return ev;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Slot of the earliest scheduled event (stale entries included — callers
  /// treat this as a conservative wake-up hint, never as ground truth).
  /// 0 when the calendar is empty; slots themselves start at 1.
  slot_t next_due_slot() const {
    return heap_.empty() ? 0 : static_cast<slot_t>(heap_.front().key >> 1);
  }

  /// Pop and discard every event scheduled strictly before `slot`. The plan
  /// path jumps over spans where every pending event is provably stale (no
  /// node is alive); discarding them with the same pop_heap sequence the
  /// per-slot loop would have used keeps the heap array — and therefore the
  /// pop order of later TIED events — identical to stepping every slot,
  /// which is what the plan path's bit-exactness rests on.
  void drain_below(slot_t slot) {
    while (!heap_.empty() && static_cast<slot_t>(heap_.front().key >> 1) < slot) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// Pre-size the backing store.
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Serialize the heap ARRAY verbatim, in storage order — never re-heapified
  /// on load. Equal-key elements can sit in several valid heap arrangements;
  /// preserving the exact arrangement preserves the pop order of tied events,
  /// which restore-then-continue bit-identity (determinism rule 8) rests on.
  void save(SnapshotWriter& w) const {
    w.u64(heap_.size());
    for (const Packed& p : heap_) {
      w.u64(p.key);
      w.u64(p.payload);
    }
  }

  void load(SnapshotReader& r) {
    const std::uint64_t n = r.u64("calendar.size");
    if (!r.check_count(n, 16, "calendar.events")) return;
    heap_.clear();
    heap_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Packed p;
      p.key = r.u64("calendar.event.key");
      p.payload = r.u64("calendar.event.payload");
      heap_.push_back(p);
    }
  }

 private:
  struct Packed {
    std::uint64_t key = 0;      ///< (slot << 1) | kind — the full sort key
    std::uint64_t payload = 0;  ///< (gen << 32) | node
  };
  struct Later {
    bool operator()(const Packed& a, const Packed& b) const { return a.key > b.key; }
  };
  std::vector<Packed> heap_;
};

}  // namespace cr

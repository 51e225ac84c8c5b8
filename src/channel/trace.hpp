// Feedback history.
//
// Trace keeps the running counters of a run's feedback history (slots,
// successes, jams, last success). PublicHistory is a read-only facade over a
// Trace exposing exactly the information the model makes public. Adversary
// strategies receive PublicHistory only — the type system enforces the
// paper's "Eve has no collision detection either" rule. Per-slot outcomes
// are not kept here: a run that wants them asks for
// RecordingConfig::full_trace(), which fills SimResult::slot_outcomes.
#pragma once

#include <cstdint>

#include "channel/types.hpp"

namespace cr {

class Trace {
 public:
  /// Storage policy: kCounting keeps the running counters — everything the
  /// registry's composed adversaries consult. kDisabled keeps nothing at
  /// all: the owner promises no component ever reads the history (the
  /// snapshot-bearing stream core), and the engine skips record() entirely —
  /// the Trace is a dead field.
  /// Calling record() on a disabled trace is a bug.
  enum class Storage : std::uint8_t { kCounting, kDisabled };

  Trace() = default;
  explicit Trace(Storage storage) : storage_(storage) {}

  /// Record the outcome of the next slot. Outcomes must arrive in slot order
  /// starting at slot 1.
  void record(const SlotOutcome& out);

  slot_t slots() const { return slots_; }
  Storage storage() const { return storage_; }

  std::uint64_t total_successes() const { return total_successes_; }
  std::uint64_t total_jammed() const { return total_jammed_; }
  /// 0 when no success yet.
  slot_t last_success_slot() const { return last_success_slot_; }

 private:
  Storage storage_ = Storage::kCounting;
  slot_t slots_ = 0;
  std::uint64_t total_successes_ = 0;
  std::uint64_t total_jammed_ = 0;
  slot_t last_success_slot_ = 0;
};

/// The adversary's (and conceptually every node's) view of the past.
class PublicHistory {
 public:
  explicit PublicHistory(const Trace& trace) : trace_(&trace) {}

  /// Number of completed slots (the upcoming slot is slots()+1).
  slot_t slots() const { return trace_->slots(); }

  std::uint64_t total_successes() const { return trace_->total_successes(); }
  slot_t last_success_slot() const { return trace_->last_success_slot(); }

 private:
  const Trace* trace_;
};

}  // namespace cr

// The paper's h-backoff subroutine (§2.1).
//
// A node running h-backoff from (channel-local) slot 0 partitions time into
// stages: stage k covers virtual slots [2^k − 1, 2^{k+1} − 1), i.e. has
// length 2^k. Within stage k it broadcasts in h(2^k) slots chosen uniformly
// at random *with replacement* from the stage (duplicate draws collapse into
// a single transmission — sending twice in one slot is just sending).
//
// BackoffProcess implements the subroutine in virtual (channel-local) time;
// the owner advances it exactly once per slot of the channel it runs on.
// This is the adaptive component Theorem 4.2 proves necessary: the set of
// send slots is re-drawn per stage rather than fixed in advance, and the
// per-stage send *count* stays h(stage length) no matter how early slots
// went.
#pragma once

#include <cstdint>
#include <vector>

#include "common/functions.hpp"
#include "common/rng.hpp"

namespace cr {

class BackoffProcess {
 public:
  /// `fs` supplies h := max(1, f/a) via FunctionSet::backoff_sends. The
  /// FunctionSet must outlive the process.
  explicit BackoffProcess(const FunctionSet* fs);

  /// Restart from virtual slot 0 (stage 0). Stage-0 send slots are drawn
  /// lazily on the first step() so resets need no rng (they happen inside
  /// feedback handlers).
  void reset();

  /// Play the next virtual slot; returns true if the node broadcasts in it.
  bool step(Rng& rng);

  /// Virtual slots consumed so far (== number of step() calls since reset).
  std::uint64_t virtual_slots() const { return vslot_; }
  std::uint64_t stage() const { return stage_; }
  std::uint64_t stage_length() const { return stage_len_; }
  std::uint64_t total_sends() const { return total_sends_; }

 private:
  void begin_stage(std::uint64_t k, Rng& rng);

  const FunctionSet* fs_;
  bool stage_ready_ = false;      // send_offsets_ drawn for current stage?
  std::uint64_t vslot_ = 0;       // next virtual slot index to play
  std::uint64_t stage_ = 0;       // current stage k
  std::uint64_t stage_start_ = 0; // virtual slot where current stage begins
  std::uint64_t stage_len_ = 1;
  std::uint64_t total_sends_ = 0;
  std::vector<std::uint64_t> send_offsets_;  // sorted unique offsets within stage
  std::size_t next_offset_ = 0;
};

/// Stand-alone protocol: runs h-backoff on *every* slot (single-channel
/// setting) until its own message gets through. Used by the E5/E6 benches to
/// demonstrate Theorem 4.2 (adaptive beats non-adaptive under prefix
/// jamming) and the Lemma 4.1 send-count lower bound.
class BackoffProtocolFactory;

}  // namespace cr

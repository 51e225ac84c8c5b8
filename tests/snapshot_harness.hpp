/// \file
/// Reusable stop/restore differential harness (determinism rule 8 in
/// docs/ARCHITECTURE.md).
///
/// The contract under test: stepping a CjzCore to slot k, serializing it,
/// loading the blob into a fresh core and continuing must produce a
/// SimResult BIT-IDENTICAL to never having stopped. The harness factors the
/// moving parts every such test needs:
///
///   1. materialize(): run the scenario's REAL adversary against a live core
///      (counting trace, so history-reading adversaries see real feedback) and
///      record the per-slot AdversaryAction sequence. Replays feed the
///      recorded actions, which (a) decouples the differential from
///      PublicHistory — snapshot-bearing cores run trace-disabled — and
///      (b) makes the interrupted and uninterrupted runs see the identical
///      feed by construction.
///   2. replay(): the recorded actions end-to-end on a fresh core.
///   3. snapshot_at() / restore_and_continue(): replay to slot k, save and
///      seal; load the blob into a fresh core and play out the remaining
///      actions.
///
/// The same sealed-blob shape is what tests/test_snapshot.cpp corrupts to
/// exercise every SnapshotReader failure mode.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "channel/trace.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/stream_tags.hpp"
#include "engine/cjz_core.hpp"
#include "exp/scenarios.hpp"

namespace cr::snaptest {

/// Version stamped on harness blobs (independent of kStreamSnapshotVersion —
/// these blobs carry a bare core, not a stream driver).
inline constexpr std::uint32_t kHarnessSnapshotVersion = 1;

/// Everything a replay needs, with the stateful adversary already consumed:
/// the scenario's protocol parameters plus the per-slot action sequence its
/// adversary produced against a live core.
struct ReplayCase {
  FunctionSet fs;
  SimConfig config;
  CjzOptions options;
  std::vector<AdversaryAction> actions;  ///< actions[i] drives slot i+1
};

/// Record `sc`'s adversary against a live core. Consumes the scenario's
/// adversary — build a fresh Scenario per call. The recording stops where the
/// run stops (horizon or a tripped stop condition), so actions.size() is the
/// uninterrupted run's slot count.
inline ReplayCase materialize(Scenario& sc) {
  ReplayCase rc;
  rc.fs = sc.protocol.fs;
  rc.config = sc.config;
  rc.options = sc.protocol.cjz_options;
  Rng rng_adv = Rng(rc.config.seed).fork(streams::kAdversary);
  CjzCore core(&rc.fs, rc.config, rc.options);
  PublicHistory history(core.trace());
  for (slot_t slot = 1; slot <= rc.config.horizon; ++slot) {
    const AdversaryAction action = sc.adversary->on_slot(slot, history, rng_adv);
    rc.actions.push_back(action);
    if (core.step(slot, action, nullptr)) break;
  }
  return rc;
}

/// The recorded actions end-to-end on a fresh trace-disabled core — the
/// reference every interrupted run must reproduce bit for bit.
inline SimResult replay(const ReplayCase& rc, SlotObserver* observer = nullptr) {
  CjzCore core(&rc.fs, rc.config, rc.options, Trace::Storage::kDisabled);
  for (std::size_t i = 0; i < rc.actions.size(); ++i)
    if (core.step(static_cast<slot_t>(i + 1), rc.actions[i], observer)) break;
  return core.finish(observer);
}

/// Replay to slot k (clamped to the recorded run length) and seal the core
/// state into a CRSNAP blob.
inline std::vector<std::uint8_t> snapshot_at(const ReplayCase& rc, slot_t k) {
  CjzCore core(&rc.fs, rc.config, rc.options, Trace::Storage::kDisabled);
  for (std::size_t i = 0; i < rc.actions.size() && static_cast<slot_t>(i + 1) <= k; ++i)
    if (core.step(static_cast<slot_t>(i + 1), rc.actions[i], nullptr)) break;
  SnapshotWriter w;
  core.save(w);
  return w.seal(kHarnessSnapshotVersion);
}

/// Load `blob` into a fresh core configured per `rc` and play out the
/// remaining recorded actions. On any reader failure, *error carries the
/// named diagnostic and the (meaningless) default SimResult is returned.
inline SimResult restore_and_continue(const ReplayCase& rc,
                                      const std::vector<std::uint8_t>& blob,
                                      std::string* error) {
  error->clear();
  CjzCore core(&rc.fs, rc.config, rc.options, Trace::Storage::kDisabled);
  SnapshotReader r(blob, kHarnessSnapshotVersion);
  core.load(r);
  if (r.ok()) r.expect_end();
  if (!r.ok()) {
    *error = r.error();
    return {};
  }
  // Resume at the slot after the last one the blob has seen. If the head run
  // tripped a stop condition, it did so at the final recorded slot (the
  // recording stopped there too), so this loop is then empty.
  const auto resume = static_cast<std::size_t>(core.partial_result().slots);
  for (std::size_t i = resume; i < rc.actions.size(); ++i)
    if (core.step(static_cast<slot_t>(i + 1), rc.actions[i], nullptr)) break;
  return core.finish(nullptr);
}

/// stop-at-k → snapshot → fresh core → restore → continue, in one call.
inline SimResult stop_restore_replay(const ReplayCase& rc, slot_t k, std::string* error) {
  return restore_and_continue(rc, snapshot_at(rc, k), error);
}

/// The slot sweep for a recorded run: coarse fractions of the run length
/// (mid-cohort / mid-calendar positions land here) plus the slots around the
/// first and last successes (cohort birth and the pre-tail/tail boundary),
/// clamped to [1, slots] and deduplicated.
inline std::vector<slot_t> sweep_points(const SimResult& full) {
  const slot_t last = std::max<slot_t>(full.slots, 1);
  std::vector<slot_t> ks = {1, last / 4, last / 2, last - 1, last};
  if (full.first_success > 0) {
    ks.push_back(full.first_success - 1);
    ks.push_back(full.first_success);
    ks.push_back(full.first_success + 1);
  }
  if (full.last_success > 0) {
    ks.push_back(full.last_success - 1);
    ks.push_back(full.last_success);
  }
  for (slot_t& k : ks) k = std::clamp<slot_t>(k, 1, last);
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  return ks;
}

}  // namespace cr::snaptest

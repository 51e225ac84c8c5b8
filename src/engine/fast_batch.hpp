/// \file
/// Fast simulator for probability-profile protocols (h-batch and friends)
/// and the cd-backon controller.
///
/// Nodes sharing an arrival slot are exchangeable under both laws — under a
/// SendProfile the sending probability depends only on age, under cd-backon
/// only on the public feedback heard since arrival — so each arrival slot
/// becomes a cohort that carries one sending probability, and the per-slot
/// sender count is one Binomial draw per cohort. A cd-backon cohort moves
/// its probability by cd_backon_next after every slot it is live in, its
/// arrival slot included, exactly as each CdBackonNode does on the generic
/// engine.
///
/// Best suited to batch workloads (one or few arrival slots); with one cohort
/// per slot of a long arrival stream the per-slot cost degrades to O(live
/// cohorts), which is still far below the generic engine's O(live nodes).
///
/// Under RecordingTier::kNodeStats each cohort materialises per-member send
/// counters and every binomial count is attributed to a uniformly sampled
/// member subset (the exact conditional law) drawn from a dedicated
/// attribution RNG stream — latency and energy reports work here, and the
/// trajectory is bit-identical across recording tiers.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "adversary/adversary.hpp"
#include "engine/attribution.hpp"
#include "engine/sim_result.hpp"
#include "protocols/batch.hpp"
#include "protocols/cd_backon.hpp"

namespace cr {

/// Cohort-per-arrival-slot engine for probability-profile protocols and
/// cd-backon. One instance per run.
class FastBatchSimulator {
 public:
  /// `adversary` must outlive run(); `law` is the per-age profile or the
  /// cd-backon options (valid ones: cd_backon_protocol checks them).
  FastBatchSimulator(std::variant<SendProfile, CdBackonOptions> law, Adversary& adversary,
                     SimConfig config);

  /// Optional per-slot metrics hook (not owned).
  void set_observer(SlotObserver* observer) { observer_ = observer; }

  /// Execute the run described by the constructor arguments.
  SimResult run();

 private:
  struct Cohort {
    slot_t arrival = 0;
    std::uint64_t count = 0;
    double p = 0.0;  ///< cd-backon: the members' shared sending probability
    /// kNodeStats tier only: one send counter per live member (size ==
    /// count); members are anonymous otherwise.
    std::vector<std::uint64_t> member_sends;
  };

  template <typename Law>
  SimResult run_law(const Law& law);

  std::variant<SendProfile, CdBackonOptions> law_;
  Adversary& adversary_;
  SimConfig config_;
  SlotObserver* observer_ = nullptr;
  SubsetScratch attr_scratch_;
};

/// Convenience one-shot runner.
SimResult run_fast_batch(std::variant<SendProfile, CdBackonOptions> law, Adversary& adversary,
                         const SimConfig& config, SlotObserver* observer = nullptr);

}  // namespace cr

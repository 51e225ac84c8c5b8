// The quiet tail (engine/fast_cjz.hpp): replicate_workload attaches each
// seed's quiet-tail certificate (QuietTail, adversary/adversary.hpp) to its
// adversary, and fast_cjz leaves its per-slot loop at the first slot past
// quiet_after with nobody live, drawing the rest of the horizon's jams at
// once. A sweep must reproduce the per-seed single runs (fast_cjz without a
// certificate; "generic" in the test names below) field for field, except
// that jammed_slots matches only in distribution where the tail can fire.
// It must not depend on the thread count, must call Engine::run once per
// seed, and must step every slot whenever the run wants them all. The
// certificate is unit-tested against the component facts it encodes.
//
// The Lockstep*/Plan* suite names are older than the quiet tail: they date
// from the sweep plan path these tests first covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/component_registry.hpp"
#include "engine/engine.hpp"
#include "engine/fast_cjz.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"

namespace cr {
namespace {

const Engine& fast_cjz() { return *EngineRegistry::instance().at("fast_cjz"); }

WorkloadSpec make_spec(ComponentSpec arrival, ComponentSpec jammer, slot_t horizon = 4096) {
  WorkloadSpec spec;
  spec.arrival = std::move(arrival);
  spec.jammer = std::move(jammer);
  spec.horizon = horizon;
  return spec;
}

std::string label(const WorkloadSpec& spec) {
  return spec.arrival.name + "+" + spec.jammer.name;
}

SimConfig recording_config(RecordingConfig recording) {
  SimConfig cfg;
  cfg.recording = recording;
  return cfg;
}

/// One single fast_cjz run of `spec` at `seed`: it carries no certificate,
/// so it never takes the quiet tail.
SimResult run_seed(const WorkloadSpec& spec, std::uint64_t seed, const SimConfig& config) {
  WorkloadSpec per = spec;
  per.seed = seed;
  Scenario sc = build_workload(per);
  sc.config = config;
  sc.config.horizon = spec.horizon;
  sc.config.seed = seed;
  return run_scenario(fast_cjz(), sc);
}

/// Can the quiet tail draw jams in place of coins before the horizon?
bool tail_may_fire(const WorkloadSpec& spec) {
  const std::optional<QuietTail> tail = workload_quiet_tail(spec);
  return tail && tail->tail_jam > 0.0 && tail->quiet_after < spec.horizon;
}

/// replicate_workload of `spec` on fast_cjz against one per-slot run per
/// seed: every field must match, jammed_slots too unless `tail` says the
/// quiet tail may have replaced its coins.
void expect_sweep_equals_runs(const WorkloadSpec& spec, const SimConfig& cfg, int reps,
                              std::uint64_t base, bool tail = false) {
  const auto sweep = replicate_workload(fast_cjz(), spec, reps, base, 2, cfg);
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(reps)) << label(spec);
  for (int r = 0; r < reps; ++r) {
    const SimResult single = run_seed(spec, base + static_cast<std::uint64_t>(r), cfg);
    SimResult got = sweep[static_cast<std::size_t>(r)];
    if (tail) got.jammed_slots = single.jammed_slots;
    EXPECT_EQ(got, single) << label(spec) << " rep " << r;
  }
}

/// `spec`'s sweep against its per-slot runs, node stats recorded.
void expect_sweep_matches_single_runs(const WorkloadSpec& spec,
                                      std::uint64_t base_seed = 60600) {
  expect_sweep_equals_runs(spec, recording_config(RecordingConfig::node_stats()), 12, base_seed,
                           tail_may_fire(spec));
}

/// Sweeps fan seeds over replicate()'s pool; results must not depend on how
/// many workers ran them. 10 reps / 4 threads exercises uneven claims.
void expect_thread_count_invariant(const WorkloadSpec& spec, const SimConfig& cfg,
                                   std::uint64_t base) {
  EXPECT_EQ(replicate_workload(fast_cjz(), spec, 10, base, 1, cfg),
            replicate_workload(fast_cjz(), spec, 10, base, 4, cfg))
      << label(spec);
}

const WorkloadSpec kBatchIid =
    make_spec({"batch", {{"n", "64"}}}, {"iid", {{"fraction", "0.25"}}});

TEST(Lockstep, SingleRunIsDeterministic) {
  // Single runs never carry a certificate: the per-slot loop on the counter
  // substrate, bit-identical on a re-run, full slot trace included.
  const SimConfig cfg = recording_config(RecordingConfig::full_trace());
  const SimResult a = run_seed(kBatchIid, 99, cfg);
  EXPECT_EQ(a, run_seed(kBatchIid, 99, cfg));
  EXPECT_EQ(a.slots, 4096);
  EXPECT_EQ(a.slot_outcomes.size(), 4096u);
  EXPECT_GT(a.successes, 0u);
}

TEST(Lockstep, ManyMatchesSingleExact) {
  // A sweep that records the full slot trace wants every slot, so it never
  // takes the tail and equals the single runs exactly.
  expect_sweep_equals_runs(kBatchIid, recording_config(RecordingConfig::full_trace()), 8, 4242);
}

TEST(Lockstep, ThreadCountInvariance) {
  expect_thread_count_invariant(kBatchIid, recording_config(RecordingConfig::node_stats()), 777);
}

TEST(Lockstep, AnalyticTailPreservesNonJamCounters) {
  // The tail replaces per-slot i.i.d. jam coins on provably-empty slots
  // with one Binomial draw. Everything the protocol does happens before the
  // tail fires, so every counter except jammed_slots must be EXACTLY the
  // per-slot loop's value; jammed_slots matches in distribution (checked on
  // the mean below).
  const int kReps = 32;
  const std::uint64_t kBase = 31337;
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  ASSERT_TRUE(tail_may_fire(kBatchIid));
  const auto tail = replicate_workload(fast_cjz(), kBatchIid, kReps, kBase, 1, cfg);
  double jam_exact = 0.0, jam_tail = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const SimResult a = run_seed(kBatchIid, kBase + static_cast<std::uint64_t>(r), cfg);
    SimResult b = tail[static_cast<std::size_t>(r)];
    EXPECT_EQ(b.slots, kBatchIid.horizon) << "rep " << r;
    jam_exact += static_cast<double>(a.jammed_slots);
    jam_tail += static_cast<double>(b.jammed_slots);
    b.jammed_slots = a.jammed_slots;
    EXPECT_EQ(a, b) << "rep " << r;
  }
  // Means over 32 reps of ~Binomial(4096, 0.25): sd of each mean ≈ 4.9, so
  // 35 is a ~5-sigma band on the difference — loose but regression-sensitive.
  EXPECT_NEAR(jam_exact / kReps, jam_tail / kReps, 35.0);
}

TEST(Lockstep, AnalyticTailDisabledUnderFullTrace) {
  // A full slot trace wants every slot's outcome, so the tail may not run:
  // the sweep is bit-exact to the single runs.
  const WorkloadSpec spec = make_spec({"batch", {{"n", "64"}}},
                                      {"iid", {{"fraction", "0.25"}}}, 1024);
  ASSERT_TRUE(tail_may_fire(spec));
  expect_sweep_equals_runs(spec, recording_config(RecordingConfig::full_trace()), 6, 555);
}

TEST(Lockstep, TailStartsAtTheFirstQuietSlotWithNobodyLive) {
  // A batch at slot 1 drains at its last success, so the tail takes over at
  // the next slot: every slot up to the last success is stepped (nobody is
  // silent before the drain), and every slot after it is skipped.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    WorkloadSpec per = kBatchIid;
    per.seed = seed;
    Scenario sc = build_workload(per, /*attach_quiet_tail=*/true);
    FastCjzSimulator sim(sc.protocol.fs, *sc.adversary, sc.config, sc.protocol.cjz_options);
    const SimResult res = sim.run();
    ASSERT_EQ(res.live_at_end, 0u) << "seed " << seed;
    const CjzCoreWork work = sim.work();
    EXPECT_EQ(work.slots_stepped, res.last_success) << "seed " << seed;
    EXPECT_EQ(work.slots_silent, 0u) << "seed " << seed;
    EXPECT_EQ(work.slots_skipped, kBatchIid.horizon - res.last_success) << "seed " << seed;
    EXPECT_EQ(res.slots, kBatchIid.horizon) << "seed " << seed;
  }
}

TEST(Lockstep, RegistryEntryAndPreference) {
  // No separate sweep engine: sweeps reach the quiet tail through fast_cjz,
  // which is also what preferred() picks for CJZ.
  EXPECT_EQ(EngineRegistry::instance().find("lockstep"), nullptr);
  const ProtocolSpec spec = cjz_protocol(functions_for_regime("const", 4.0));
  EXPECT_EQ(EngineRegistry::instance().preferred(spec).name(), "fast_cjz");
}

TEST(Lockstep, ReplicateScenarioStatParityWithFastCjz) {
  // End-to-end through the preset layer: a batch sweep via
  // replicate_scenario (quiet tail on) against fast_cjz run once per seed
  // through ScenarioRegistry. Batch of 256 nodes, 25% jamming: every node
  // succeeds well before the horizon, so successes are exactly 256 and every
  // field but the tail's jam count agrees seed for seed.
  ScenarioParams params;
  params.horizon = 1 << 14;
  const auto sweep = replicate_scenario(fast_cjz(), "batch", params, 24, 8800, 2);
  ASSERT_EQ(sweep.size(), 24u);
  for (std::size_t r = 0; r < sweep.size(); ++r) {
    params.seed = 8800 + r;
    Scenario sc = ScenarioRegistry::instance().build("batch", params);
    const SimResult single = run_scenario(fast_cjz(), sc);
    SimResult got = sweep[r];
    EXPECT_EQ(got.successes, 256u) << "rep " << r;
    got.jammed_slots = single.jammed_slots;
    EXPECT_EQ(got, single) << "rep " << r;
  }
}

TEST(Lockstep, DefaultSweepMatchesPinnedQuietTailRows) {
  // The quiet_tail benchmark shape on the preferred engine: batch of 256,
  // 25% jamming, 2^20 slots, 16 seeds. Pinned per seed (jammed slots,
  // sends, last success), so any change to the default sweep's output, the
  // quiet tail's jam draw included, shows here by seed.
  struct Pinned {
    std::uint64_t jammed, sends, last;
  };
  const Pinned want[] = {
      {261750, 36356, 3024}, {261797, 36923, 3386}, {262147, 37488, 3201},
      {261875, 37337, 3302}, {262568, 33289, 3027}, {261920, 38658, 3039},
      {262496, 36614, 3432}, {262367, 34548, 3070}, {262425, 34861, 3211},
      {261946, 39607, 3136}, {261651, 36244, 3165}, {261426, 33927, 3285},
      {262610, 37890, 3297}, {261596, 35245, 3094}, {262228, 38912, 2920},
      {262908, 34766, 2870}};
  ScenarioParams params;
  params.n = 256;
  params.jam = 0.25;
  params.horizon = slot_t{1} << 20;
  const ProtocolSpec protocol = ScenarioRegistry::instance().build("batch", params).protocol;
  const Engine& preferred = EngineRegistry::instance().preferred(protocol);
  const auto sweep = replicate_scenario(preferred, "batch", params, 16, 1000, 4);
  ASSERT_EQ(sweep.size(), std::size(want));
  for (std::size_t r = 0; r < sweep.size(); ++r) {
    EXPECT_EQ(sweep[r].slots, params.horizon) << "rep " << r;
    EXPECT_EQ(sweep[r].successes, 256u) << "rep " << r;
    EXPECT_EQ(sweep[r].jammed_slots, want[r].jammed) << "rep " << r;
    EXPECT_EQ(sweep[r].total_sends, want[r].sends) << "rep " << r;
    EXPECT_EQ(sweep[r].last_success, want[r].last) << "rep " << r;
    EXPECT_EQ(sweep[r].active_slots, want[r].last) << "rep " << r;
  }
}

/// Forwards every call to `inner` and records, per run, its seed and whether
/// its adversary carried a certificate — the shape of a timing wrapper.
class RecordingEngine final : public Engine {
 public:
  explicit RecordingEngine(const Engine& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool supports(const ProtocolSpec& spec) const override { return inner_.supports(spec); }
  int speed_rank() const override { return inner_.speed_rank(); }
  SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                SlotObserver* observer) const override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      runs.emplace_back(config.seed, adversary.quiet_tail().has_value());
    }
    return inner_.run(spec, adversary, config, observer);
  }

  /// (seed, adversary carried a certificate) per run, in call order.
  mutable std::vector<std::pair<std::uint64_t, bool>> runs;

 private:
  const Engine& inner_;
  mutable std::mutex mu_;
};

TEST(Lockstep, ForwardingEngineSeesOneRunPerSeed) {
  // The tail is taken inside Engine::run, so a wrapper that only forwards
  // run() — a timer, say — sees exactly one call per seed, every one
  // carrying the certificate, and changes no result.
  const WorkloadSpec spec = make_spec({"batch", {{"n", "64"}}},
                                      {"iid", {{"fraction", "0.25"}}}, 1 << 16);
  const RecordingEngine wrapped(fast_cjz());
  EXPECT_EQ(replicate_workload(wrapped, spec, 8, 500, 4),
            replicate_workload(fast_cjz(), spec, 8, 500, 4));
  std::vector<std::pair<std::uint64_t, bool>> want;
  for (std::uint64_t seed = 500; seed < 508; ++seed) want.emplace_back(seed, true);
  std::sort(wrapped.runs.begin(), wrapped.runs.end());
  EXPECT_EQ(wrapped.runs, want);
}

/// Counts slots seen through the observer hook.
struct SlotCounter final : SlotObserver {
  std::uint64_t slots = 0;
  void on_slot(const SlotOutcome&, std::uint64_t, std::uint64_t) override { ++slots; }
};

TEST(Lockstep, ObservedRunsIgnoreThePlan) {
  // An observer wants every slot, which the tail skips: a run with an
  // observer steps every slot even when its adversary carries a
  // certificate, and equals the certificate-free run exactly, jammed_slots
  // included.
  ASSERT_TRUE(tail_may_fire(kBatchIid));
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    WorkloadSpec per = kBatchIid;
    per.seed = seed;
    Scenario sc = build_workload(per, /*attach_quiet_tail=*/true);
    sc.config.recording = cfg.recording;
    SlotCounter counter;
    const SimResult observed = run_scenario(fast_cjz(), sc, &counter);
    EXPECT_EQ(counter.slots, kBatchIid.horizon) << "seed " << seed;
    EXPECT_EQ(observed, run_seed(kBatchIid, seed, cfg)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The certificate: workload_quiet_tail's quiet_after/tail_jam.

TEST(LockstepCertificate, BatchPlusIidUsesBatchSlotAndFraction) {
  EXPECT_EQ(workload_quiet_tail(make_spec({"batch", {{"n", "32"}, {"at", "7"}}},
                                          {"iid", {{"fraction", "0.3"}}})),
            (QuietTail{7, 0.3}));
}

TEST(LockstepCertificate, NonePlusNoneIsTriviallyQuiet) {
  EXPECT_EQ(workload_quiet_tail(make_spec({"none", {}}, {"none", {}})), (QuietTail{0, 0.0}));
}

TEST(LockstepCertificate, BernoulliWindowAndPrefixTakeTheMax) {
  // Arrivals stop at to=100 but the prefix jammer is only provably silent
  // past count=500 — the certificate must wait for both.
  EXPECT_EQ(workload_quiet_tail(make_spec({"bernoulli", {{"rate", "0.1"}, {"to", "100"}}},
                                          {"prefix", {{"count", "500"}}})),
            (QuietTail{500, 0.0}));
}

TEST(LockstepCertificate, OpenBernoulliWindowKeepsHorizon) {
  // to=0 means "until the horizon": the certificate stays correct (quiet ==
  // horizon) and the tail simply never fires.
  EXPECT_EQ(workload_quiet_tail(make_spec({"bernoulli", {{"rate", "0.1"}}}, {"none", {}}, 9999)),
            (QuietTail{9999, 0.0}));
}

TEST(LockstepCertificate, HistoryCoupledJammerIsIneligible) {
  for (const char* jammer : {"reactive", "periodic", "budget_paced"})
    EXPECT_FALSE(workload_quiet_tail(make_spec({"batch", {}}, {jammer, {}}))) << jammer;
}

TEST(LockstepCertificate, UnboundedArrivalKeepsHorizon) {
  // Arrivals whose last slot only a run can tell state none, so there is no
  // certificate and the run steps to the horizon.
  for (const char* arrival : {"uniform_random", "paced", "bursty"})
    EXPECT_FALSE(workload_quiet_tail(make_spec({arrival, {}}, {"iid", {}}, 2048))) << arrival;
}

// ---------------------------------------------------------------------------
// Sweeps against their single runs, one component shape per spec: with and
// without a certificate, a tail that fires and one that cannot, and the
// stateful components.

TEST(LockstepPlanPath, BatchPlusNoneMatchesGeneric) {
  expect_sweep_matches_single_runs(
      make_spec({"batch", {{"n", "48"}, {"at", "3"}}}, {"none", {}}, 2048));
}

TEST(LockstepPlanPath, BatchPlusPrefixMatchesGeneric) {
  expect_sweep_matches_single_runs(
      make_spec({"batch", {{"n", "32"}}}, {"prefix", {{"count", "200"}}}, 2048));
}

TEST(LockstepPlanPath, BatchPlusPeriodicMatchesGeneric) {
  expect_sweep_matches_single_runs(make_spec(
      {"batch", {{"n", "32"}}}, {"periodic", {{"period", "7"}, {"burst", "2"}}}, 2048));
}

TEST(LockstepPlanPath, PacedPlusIidMatchesGeneric) {
  // Stateful arrivals (paced ignores history and rng but carries internal
  // state) against per-seed i.i.d. jam coins.
  expect_sweep_matches_single_runs(make_spec(
      {"paced", {{"margin", "2"}}}, {"iid", {{"fraction", "0.25"}}}, 2048));
}

TEST(LockstepPlanPath, BurstyPlusBudgetPacedMatchesGeneric) {
  expect_sweep_matches_single_runs(make_spec({"bursty", {{"period", "64"}, {"burst", "4"}}},
                                             {"budget_paced", {{"margin", "2"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliPlusIidMatchesGeneric) {
  // Both axes i.i.d. — the bernoulli_stream shape, whose certificate sits at
  // the horizon.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "0.15"}}}, {"iid", {{"fraction", "0.25"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliWindowMatchesGeneric) {
  // A closed arrival window [from, to]: no tail before the window shuts.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "0.3"}, {"from", "100"}, {"to", "700"}}},
      {"iid", {{"fraction", "0.1"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliFromZeroMatchesGeneric) {
  // A window opening at from=0 (its first coin is slot 1's) ends at its
  // `to` slot like any other.
  expect_sweep_matches_single_runs(
      make_spec({"bernoulli", {{"rate", "0.05"}, {"from", "0"}, {"to", "500"}}},
                {"iid", {{"fraction", "0.2"}}}, 2048),
      100);
  // Integral rate: certain arrivals, no coins — the same last slot.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "2"}, {"from", "0"}, {"to", "40"}}}, {"none", {}}, 1024));
}

void expect_tail_fires_and_matches(const WorkloadSpec& spec) {
  ASSERT_TRUE(tail_may_fire(spec)) << label(spec);
  expect_sweep_matches_single_runs(spec, 61600);
}

TEST(LockstepPlanPath, TailSkipMatchesGenericTailBatchIid) {
  // The perf-critical batch shape: quiet_after is the batch slot, so once
  // the cohort drains almost the whole horizon is tail.
  expect_tail_fires_and_matches(make_spec(
      {"batch", {{"n", "48"}, {"at", "3"}}}, {"iid", {{"fraction", "0.25"}}}, 4096));
}

TEST(LockstepPlanPath, TailSkipMatchesGenericTailBernoulliWindow) {
  // Closed arrival window: the tail fires only after the window shuts AND
  // the last cohort drains, whichever is later.
  expect_tail_fires_and_matches(make_spec(
      {"bernoulli", {{"rate", "0.3"}, {"from", "100"}, {"to", "700"}}},
      {"iid", {{"fraction", "0.1"}}}, 4096));
}

TEST(LockstepPlanPath, TailSkipMatchesGenericTailNoArrivals) {
  // Degenerate certificate: no arrivals at all, quiet_after = 0 — the tail
  // fires at slot 1 and the whole run is one binomial.
  expect_tail_fires_and_matches(make_spec({"none", {}}, {"iid", {{"fraction", "0.5"}}}, 4096));
}

TEST(LockstepPlanPath, ThreadCountInvariance) {
  expect_thread_count_invariant(make_spec({"bernoulli", {{"rate", "0.15"}}},
                                          {"iid", {{"fraction", "0.25"}}}, 1024),
                                SimConfig{}, 9090);
}

TEST(LockstepPlanPath, IneligibleComponentsFallBack) {
  // History-reading (reactive) and seed-dependent (uniform_random)
  // components state no tail fact, so their sweeps step every slot — equal
  // to the single runs, jams included.
  const WorkloadSpec reactive = make_spec({"batch", {}}, {"reactive", {}}, 2048);
  const WorkloadSpec uniform =
      make_spec({"uniform_random", {{"total", "16"}}}, {"iid", {}}, 2048);
  EXPECT_FALSE(workload_quiet_tail(reactive));
  EXPECT_FALSE(workload_quiet_tail(uniform));
  EXPECT_TRUE(workload_quiet_tail(make_spec({"none", {}}, {"none", {}})));
  for (const WorkloadSpec& spec : {reactive, uniform}) expect_sweep_equals_runs(spec, {}, 4, 70);
}

// ---------------------------------------------------------------------------
// The certificate over the registries: which pairs take the tail is up to
// the components' stated facts, and every sweep must reproduce its per-slot
// runs.

TEST(PlanContract, EveryRegisteredPairSweepsLikeItsSingleRuns) {
  // Every (arrival, jammer) pair at default parameters (batch at slot 1,
  // bernoulli open to the horizon, prefix over 1024 slots, iid at 0.25).
  // The arrivals none, batch and bernoulli state their last arrival, and
  // the jammers none, iid and prefix their rate past a slot: those 9 pairs
  // carry a certificate, and the 6 whose quiet point falls before the
  // horizon take the tail. Every sweep equals its single runs.
  const slot_t horizon = 4096;
  const std::map<std::string, QuietTail> want = {
      {"none+none", {0, 0.0}},          {"none+iid", {0, 0.25}},
      {"none+prefix", {1024, 0.0}},     {"batch+none", {1, 0.0}},
      {"batch+iid", {1, 0.25}},         {"batch+prefix", {1024, 0.0}},
      {"bernoulli+none", {horizon, 0.0}}, {"bernoulli+iid", {horizon, 0.25}},
      {"bernoulli+prefix", {horizon, 0.0}}};
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  std::size_t certified = 0, tailed = 0;
  for (const ArrivalEntry& arrival : ArrivalRegistry::instance().entries())
    for (const JammerEntry& jammer : JammerRegistry::instance().entries()) {
      const WorkloadSpec spec = make_spec({arrival.name, {}}, {jammer.name, {}}, horizon);
      const std::optional<QuietTail> tail = workload_quiet_tail(spec);
      const auto it = want.find(label(spec));
      if (it == want.end()) {
        EXPECT_FALSE(tail) << label(spec);
      } else {
        EXPECT_EQ(tail, it->second) << label(spec);
      }
      certified += tail ? 1 : 0;
      tailed += tail && tail->quiet_after < horizon ? 1 : 0;
      expect_sweep_equals_runs(spec, cfg, 3, 4100, tail_may_fire(spec));
    }
  EXPECT_EQ(certified, want.size());
  EXPECT_EQ(tailed, 6u);
}

/// Arrivals from outside the built-ins: two nodes every `every` slots up to
/// slot `until`, which is their stated last arrival.
class Trickle final : public ArrivalProcess {
 public:
  Trickle(slot_t every, slot_t until) : every_(every), until_(until) {}
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    return slot <= until_ && slot % every_ == 0 ? 2 : 0;
  }
  std::string name() const override { return "trickle"; }
  std::optional<slot_t> last_arrival() const override { return until_; }

 private:
  slot_t every_, until_;
};

/// A jammer from outside the built-ins that states no tail fact.
class EveryThird final : public Jammer {
 public:
  bool jams(slot_t slot, const PublicHistory&, Rng&) override { return slot % 3 == 0; }
  std::string name() const override { return "every-third"; }
};

void register_outside_components() {
  static const bool registered = [] {
    ArrivalRegistry::instance().add(
        {"test_trickle",
         "two nodes every `every` slots until `until`",
         {{"every", ParamType::kUint, "16", "slots between arrivals"},
          {"until", ParamType::kUint, "600", "last arrival slot"}},
         [](const ParamValues& p, const WorkloadContext&) -> std::unique_ptr<ArrivalProcess> {
           return std::make_unique<Trickle>(p.as_uint("every"), p.as_uint("until"));
         }});
    JammerRegistry::instance().add(
        {"test_every_third", "jams every third slot", {},
         [](const ParamValues&, const WorkloadContext&) -> std::unique_ptr<Jammer> {
           return std::make_unique<EveryThird>();
         }});
    return true;
  }();
  (void)registered;
}

TEST(PlanContract, OutsideComponentsTakeThePlanPath) {
  // Registering a component that states its tail fact is all it takes: its
  // sweeps carry the certificate (the tail fires after its last arrival),
  // and a component that states none keeps its sweeps on every slot. Either
  // way the sweep reproduces the per-slot runs.
  register_outside_components();
  const WorkloadSpec trickle_iid = make_spec({"test_trickle", {}}, {"iid", {}}, 2048);
  EXPECT_EQ(workload_quiet_tail(trickle_iid), (QuietTail{600, 0.25}));
  EXPECT_TRUE(tail_may_fire(trickle_iid));
  for (const WorkloadSpec& spec :
       {trickle_iid, make_spec({"batch", {{"n", "32"}}}, {"test_every_third", {}}, 2048),
        make_spec({"test_trickle", {{"every", "5"}}}, {"test_every_third", {}}, 2048)}) {
    expect_sweep_matches_single_runs(spec);
    const bool certified = workload_quiet_tail(spec).has_value();
    EXPECT_EQ(certified, spec.jammer.name == "iid") << label(spec);
    const RecordingEngine wrapped(fast_cjz());
    replicate_workload(wrapped, spec, 3, 1, 1);
    ASSERT_EQ(wrapped.runs.size(), 3u) << label(spec);
    for (const auto& [seed, carried] : wrapped.runs)
      EXPECT_EQ(carried, certified) << label(spec) << " seed " << seed;
  }
}

}  // namespace
}  // namespace cr

// The plan path (engine/plan_path.hpp): replicate_workload hands every seed's
// adversary one precomputed AdversaryPlan and fast_cjz steps only the slots
// where something happens. A sweep must reproduce the per-slot loop (fast_cjz
// without a plan, one run per seed; "generic" in the test names below) bit
// for bit, except that the analytic tail matches jammed_slots only in
// distribution. It must not depend on the thread count, must call Engine::run
// once per seed, and must fall back to the per-slot loop whenever the plan
// cannot apply. The plan's tail certificate (quiet_after/tail_jam) is
// unit-tested against the component rules it encodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "adversary/component_registry.hpp"
#include "engine/engine.hpp"
#include "engine/plan_path.hpp"
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

/// One fast_cjz run of `spec` at `seed`: the per-slot loop when `plan` is
/// null, the plan path when the run can use it.
SimResult run_seed(const WorkloadSpec& spec, std::uint64_t seed, const SimConfig& config,
                   const AdversaryPlan* plan = nullptr) {
  WorkloadSpec per = spec;
  per.seed = seed;
  Scenario sc = build_workload(per, plan);
  sc.config = config;
  sc.config.horizon = spec.horizon;
  sc.config.seed = seed;
  return run_scenario(fast_cjz(), sc);
}

/// Can the plan's analytic tail replace jam coins before the horizon?
bool tail_may_fire(const AdversaryPlan& plan) {
  return plan.tail_jam > 0.0 && plan.quiet_after < plan.horizon;
}

/// replicate_workload of `spec` on fast_cjz against one per-slot run per
/// seed: every field must match, jammed_slots too unless `tail` says the
/// analytic tail may have replaced its coins.
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

/// A plannable `spec`'s sweep against its per-slot runs, node stats
/// recorded; where the tail can fire, the same plan with its tail switched
/// off must also match the per-slot run exactly, jams included.
void expect_sweep_matches_single_runs(const WorkloadSpec& spec,
                                      std::uint64_t base_seed = 60600) {
  const int kReps = 12;
  const AdversaryPlan plan = adversary_plan(spec);
  ASSERT_TRUE(plan.valid) << label(spec);
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  expect_sweep_equals_runs(spec, cfg, kReps, base_seed, tail_may_fire(plan));
  if (!tail_may_fire(plan)) return;
  AdversaryPlan no_tail = plan;
  no_tail.tail_jam = -1.0;
  for (std::uint64_t seed = base_seed; seed < base_seed + kReps; ++seed)
    EXPECT_EQ(run_seed(spec, seed, cfg, &no_tail), run_seed(spec, seed, cfg))
        << label(spec) << " seed " << seed;
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
  // Single runs never carry a plan: the per-slot loop on the counter
  // substrate, bit-identical on a re-run, full slot trace included.
  const SimConfig cfg = recording_config(RecordingConfig::full_trace());
  const SimResult a = run_seed(kBatchIid, 99, cfg);
  EXPECT_EQ(a, run_seed(kBatchIid, 99, cfg));
  EXPECT_EQ(a.slots, 4096);
  EXPECT_EQ(a.slot_outcomes.size(), 4096u);
  EXPECT_GT(a.successes, 0u);
}

TEST(Lockstep, ManyMatchesSingleExact) {
  // A sweep that records the full slot trace cannot take the plan path; it
  // falls back to the per-slot loop and equals the single runs exactly.
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
  ASSERT_TRUE(tail_may_fire(adversary_plan(kBatchIid)));
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
  // A full slot trace wants every slot's outcome, so neither the plan path
  // nor its tail may run: the sweep is bit-exact to the single runs.
  const WorkloadSpec spec = make_spec({"batch", {{"n", "64"}}},
                                      {"iid", {{"fraction", "0.25"}}}, 1024);
  ASSERT_TRUE(tail_may_fire(adversary_plan(spec)));
  expect_sweep_equals_runs(spec, recording_config(RecordingConfig::full_trace()), 6, 555);
}

TEST(Lockstep, RegistryEntryAndPreference) {
  // No separate sweep engine: sweeps reach the plan path through fast_cjz,
  // which is also what preferred() picks for CJZ.
  EXPECT_EQ(EngineRegistry::instance().find("lockstep"), nullptr);
  const ProtocolSpec spec = cjz_protocol(functions_for_regime("const", 4.0));
  EXPECT_EQ(EngineRegistry::instance().preferred(spec).name(), "fast_cjz");
}

TEST(Lockstep, ReplicateScenarioStatParityWithFastCjz) {
  // End-to-end through the preset layer: a batch sweep via
  // replicate_scenario (plan path, analytic tail on) against fast_cjz run
  // once per seed through ScenarioRegistry. Batch of 256 nodes, 25% jamming:
  // every node succeeds well before the horizon, so successes are exactly
  // 256 and every field but the tail's jam count agrees seed for seed.
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
  // analytic tail's jam draw included, shows here by seed.
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
/// its adversary carried a plan — the shape of a timing wrapper.
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
      runs.emplace_back(config.seed, adversary.plan() != nullptr);
    }
    return inner_.run(spec, adversary, config, observer);
  }

  /// (seed, adversary carried a plan) per run, in call order.
  mutable std::vector<std::pair<std::uint64_t, bool>> runs;

 private:
  const Engine& inner_;
  mutable std::mutex mu_;
};

TEST(Lockstep, ForwardingEngineSeesOneRunPerSeed) {
  // The plan path is chosen inside Engine::run, so a wrapper that only
  // forwards run() — a timer, say — sees exactly one call per seed, every
  // one carrying the plan, and changes no result.
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
  // An observer wants every slot, which the plan path skips: a run with an
  // observer keeps the per-slot loop even when its adversary carries a
  // plan, and equals the plan-free run exactly, jammed_slots included.
  const AdversaryPlan plan = adversary_plan(kBatchIid);
  ASSERT_TRUE(plan.valid);
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    WorkloadSpec per = kBatchIid;
    per.seed = seed;
    Scenario sc = build_workload(per, &plan);
    sc.config.recording = cfg.recording;
    SlotCounter counter;
    const SimResult observed = run_scenario(fast_cjz(), sc, &counter);
    EXPECT_EQ(counter.slots, kBatchIid.horizon) << "seed " << seed;
    EXPECT_EQ(observed, run_seed(kBatchIid, seed, cfg)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// The analytic-tail certificate: adversary_plan's quiet_after/tail_jam.

TEST(LockstepCertificate, BatchPlusIidUsesBatchSlotAndFraction) {
  const AdversaryPlan plan = adversary_plan(make_spec(
      {"batch", {{"n", "32"}, {"at", "7"}}}, {"iid", {{"fraction", "0.3"}}}));
  EXPECT_EQ(plan.quiet_after, 7);
  EXPECT_DOUBLE_EQ(plan.tail_jam, 0.3);
}

TEST(LockstepCertificate, NonePlusNoneIsTriviallyQuiet) {
  const AdversaryPlan plan = adversary_plan(make_spec({"none", {}}, {"none", {}}));
  EXPECT_EQ(plan.quiet_after, 0);
  EXPECT_DOUBLE_EQ(plan.tail_jam, 0.0);
}

TEST(LockstepCertificate, BernoulliWindowAndPrefixTakeTheMax) {
  // Arrivals stop at to=100 but the prefix jammer is only provably silent
  // past count=500 — the certificate must wait for both.
  const AdversaryPlan plan =
      adversary_plan(make_spec({"bernoulli", {{"rate", "0.1"}, {"to", "100"}}},
                               {"prefix", {{"count", "500"}}}));
  EXPECT_EQ(plan.quiet_after, 500);
  EXPECT_DOUBLE_EQ(plan.tail_jam, 0.0);
}

TEST(LockstepCertificate, OpenBernoulliWindowKeepsHorizon) {
  // to=0 means "until the horizon": the certificate stays correct (quiet ==
  // horizon) and the tail simply never fires.
  const AdversaryPlan plan =
      adversary_plan(make_spec({"bernoulli", {{"rate", "0.1"}}}, {"none", {}}, 9999));
  EXPECT_GE(plan.tail_jam, 0.0);
  EXPECT_EQ(plan.quiet_after, 9999);
}

TEST(LockstepCertificate, HistoryCoupledJammerIsIneligible) {
  for (const char* jammer : {"reactive", "periodic", "budget_paced"})
    EXPECT_LT(adversary_plan(make_spec({"batch", {}}, {jammer, {}})).tail_jam, 0.0) << jammer;
}

TEST(LockstepCertificate, UnboundedArrivalKeepsHorizon) {
  const AdversaryPlan plan =
      adversary_plan(make_spec({"uniform_random", {{"total", "16"}}}, {"iid", {}}, 2048));
  EXPECT_GE(plan.tail_jam, 0.0);
  EXPECT_EQ(plan.quiet_after, 2048);
}

// ---------------------------------------------------------------------------
// Plan shapes — each spec below exercises one: shared schedule × shared jam
// bitmap, shared schedule × i.i.d. coins, i.i.d. arrivals × i.i.d. jams, and
// the stateful-deterministic components.

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
  // Stateful-deterministic arrivals (paced ignores history and rng but
  // carries internal state) against per-seed i.i.d. jam coins.
  expect_sweep_matches_single_runs(make_spec(
      {"paced", {{"margin", "2"}}}, {"iid", {{"fraction", "0.25"}}}, 2048));
}

TEST(LockstepPlanPath, BurstyPlusBudgetPacedMatchesGeneric) {
  expect_sweep_matches_single_runs(make_spec({"bursty", {{"period", "64"}, {"burst", "4"}}},
                                             {"budget_paced", {{"margin", "2"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliPlusIidMatchesGeneric) {
  // Both axes i.i.d. — the bernoulli_stream shape: per-seed batched coin
  // scans on both the arrival and jam sides.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "0.15"}}}, {"iid", {{"fraction", "0.25"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliWindowMatchesGeneric) {
  // A closed arrival window [from, to] — the coin scan must start and stop
  // exactly where the scalar component does.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "0.3"}, {"from", "100"}, {"to", "700"}}},
      {"iid", {{"fraction", "0.1"}}}, 2048));
}

TEST(LockstepPlanPath, BernoulliFromZeroMatchesGeneric) {
  // BernoulliArrivals is first asked at slot 1, so a window opening at
  // from=0 must draw its first coin for slot 1, not slot 0 (every later coin
  // would land one slot early).
  expect_sweep_matches_single_runs(
      make_spec({"bernoulli", {{"rate", "0.05"}, {"from", "0"}, {"to", "500"}}},
                {"iid", {{"fraction", "0.2"}}}, 2048),
      100);
  // Integral rate: certain arrivals, no coins — the same first slot.
  expect_sweep_matches_single_runs(make_spec(
      {"bernoulli", {{"rate", "2"}, {"from", "0"}, {"to", "40"}}}, {"none", {}}, 1024));
}

void expect_tail_fires_and_matches(const WorkloadSpec& spec) {
  ASSERT_TRUE(tail_may_fire(adversary_plan(spec))) << label(spec);
  expect_sweep_matches_single_runs(spec, 61600);
}

TEST(LockstepPlanPath, TailSkipMatchesGenericTailBatchIid) {
  // The perf-critical batch shape: quiet_after is the batch slot, so once
  // the cohort drains almost the whole horizon is tail — the lazy coin fill
  // must stop where the tail takes over.
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
  // components cannot be precomputed; the plan must refuse, and their
  // sweeps run the per-slot loop — equal to the single runs, jams included.
  const WorkloadSpec reactive = make_spec({"batch", {}}, {"reactive", {}}, 2048);
  const WorkloadSpec uniform =
      make_spec({"uniform_random", {{"total", "16"}}}, {"iid", {}}, 2048);
  EXPECT_FALSE(adversary_plan(reactive).valid);
  EXPECT_FALSE(adversary_plan(uniform).valid);
  EXPECT_TRUE(adversary_plan(make_spec({"none", {}}, {"none", {}})).valid);
  for (const WorkloadSpec& spec : {reactive, uniform}) expect_sweep_equals_runs(spec, {}, 4, 70);
}

// ---------------------------------------------------------------------------
// The plan contract over the registries: whether a sweep takes the plan path
// is up to the components (fill_plan), and a component that fills a plan
// must make the sweep reproduce its per-slot runs.

TEST(PlanContract, EveryRegisteredPairSweepsLikeItsSingleRuns) {
  // Every (arrival, jammer) pair at default parameters. A pair is planned
  // exactly when neither side reads the history (reactive) or draws from
  // the run seed (uniform_random) — 25 of the 36 built-in pairs — and every
  // sweep, planned or not, equals its single runs.
  const SimConfig cfg = recording_config(RecordingConfig::node_stats());
  const auto& arrivals = ArrivalRegistry::instance().entries();
  const auto& jammers = JammerRegistry::instance().entries();
  std::size_t planned = 0;
  for (const ArrivalEntry& arrival : arrivals)
    for (const JammerEntry& jammer : jammers) {
      const WorkloadSpec spec = make_spec({arrival.name, {}}, {jammer.name, {}});
      const AdversaryPlan plan = adversary_plan(spec);
      EXPECT_EQ(plan.valid, arrival.name != "uniform_random" && jammer.name != "reactive")
          << label(spec);
      planned += plan.valid ? 1 : 0;
      expect_sweep_equals_runs(spec, cfg, 3, 4100, plan.valid && tail_may_fire(plan));
    }
  EXPECT_EQ(planned, (arrivals.size() - 1) * (jammers.size() - 1));
}

/// Arrivals from outside the built-ins: two nodes every `every` slots up to
/// slot `until`, planned in closed form.
class Trickle final : public ArrivalProcess {
 public:
  Trickle(slot_t every, slot_t until) : every_(every), until_(until) {}
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    return slot <= until_ && slot % every_ == 0 ? 2 : 0;
  }
  std::string name() const override { return "trickle"; }
  bool fill_plan(AdversaryPlan& plan) override {
    for (slot_t s = every_; s <= std::min(until_, plan.horizon); s += every_)
      plan.schedule.emplace_back(s, 2);
    plan.quiet_after = until_;
    return true;
  }

 private:
  slot_t every_, until_;
};

/// A jammer from outside the built-ins, planned by the shared slot walk.
class EveryThird final : public Jammer {
 public:
  bool jams(slot_t slot, const PublicHistory&, Rng&) override { return slot % 3 == 0; }
  std::string name() const override { return "every-third"; }
  bool fill_plan(AdversaryPlan& plan) override { return walk_plan(*this, plan); }
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
  // Registering a component that fills its plan is all it takes: its sweeps
  // carry the plan (the tail included, after its last arrival) and
  // reproduce the per-slot runs.
  register_outside_components();
  for (const WorkloadSpec& spec :
       {make_spec({"test_trickle", {}}, {"iid", {}}, 2048),
        make_spec({"batch", {{"n", "32"}}}, {"test_every_third", {}}, 2048),
        make_spec({"test_trickle", {{"every", "5"}}}, {"test_every_third", {}}, 2048)}) {
    expect_sweep_matches_single_runs(spec);
    const RecordingEngine wrapped(fast_cjz());
    replicate_workload(wrapped, spec, 3, 1, 1);
    ASSERT_EQ(wrapped.runs.size(), 3u) << label(spec);
    for (const auto& [seed, planned] : wrapped.runs)
      EXPECT_TRUE(planned) << label(spec) << " seed " << seed;
  }
  EXPECT_TRUE(tail_may_fire(adversary_plan(make_spec({"test_trickle", {}}, {"iid", {}}))));
}

}  // namespace
}  // namespace cr

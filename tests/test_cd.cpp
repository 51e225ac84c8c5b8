// Tests for the collision-detection contrast model: ternary feedback
// mapping, backon/backoff dynamics, the structural throughput gap the
// paper's introduction describes, and the cohort engine's run of the
// controller against the per-node reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "channel/channel.hpp"
#include "engine/engine.hpp"
#include "engine/generic_sim.hpp"
#include "exp/harness.hpp"
#include "protocols/cd_backon.hpp"
#include "stat_assert.hpp"

namespace cr {
namespace {

/// The controller with its feedback collapsed to binary by hand: the
/// reference that cd_backon_protocol({.collision_detection = false}) must
/// reproduce on the generic engine.
class Degraded final : public NodeProtocol {
 public:
  explicit Degraded(std::unique_ptr<NodeProtocol> inner) : inner_(std::move(inner)) {}
  bool on_slot(slot_t now, Rng& rng) override { return inner_->on_slot(now, rng); }
  void on_feedback(slot_t now, Feedback fb, bool sent, bool own) override {
    inner_->on_feedback(now, fb, sent, own);
  }
  void on_feedback_cd(slot_t now, CdFeedback fb, bool sent, bool own) override {
    inner_->on_feedback(now,
                        fb == CdFeedback::kSuccess ? Feedback::kSuccess
                                                   : Feedback::kSilenceOrCollision,
                        sent, own);
  }

 private:
  std::unique_ptr<NodeProtocol> inner_;
};

class DegradedFactory final : public ProtocolFactory {
 public:
  std::unique_ptr<NodeProtocol> spawn(node_id id, slot_t arrival, Rng& rng) override {
    return std::make_unique<Degraded>(inner_->spawn(id, arrival, rng));
  }
  std::string name() const override { return "degraded"; }

 private:
  std::unique_ptr<ProtocolFactory> inner_ = make_protocol_factory(cd_backon_protocol({}));
};

/// A batch of `n` arriving in slot 1 under i.i.d. jamming at rate `jam`.
SimResult run_batch(const Engine& engine, const ProtocolSpec& spec, std::uint64_t n, double jam,
                    slot_t horizon, std::uint64_t seed, bool stop_when_empty = true) {
  ComposedAdversary adv(batch_arrival(n, 1), jam > 0 ? iid_jammer(jam) : no_jam());
  SimConfig cfg;
  cfg.horizon = horizon;
  cfg.seed = seed;
  cfg.stop_when_empty = stop_when_empty;
  return engine.run(spec, adv, cfg);
}

const Engine& engine_named(const char* name) { return *EngineRegistry::instance().at(name); }

TEST(CdFeedback, TruthTable) {
  EXPECT_EQ(resolve_slot(1, 0, false, kNoNode).cd_feedback(), CdFeedback::kSilence);
  EXPECT_EQ(resolve_slot(1, 1, false, 7).cd_feedback(), CdFeedback::kSuccess);
  EXPECT_EQ(resolve_slot(1, 2, false, kNoNode).cd_feedback(), CdFeedback::kCollision);
  // Jamming always sounds like a collision — even on an empty slot, and
  // even when a lone sender transmitted.
  EXPECT_EQ(resolve_slot(1, 0, true, kNoNode).cd_feedback(), CdFeedback::kCollision);
  EXPECT_EQ(resolve_slot(1, 1, true, 7).cd_feedback(), CdFeedback::kCollision);
}

TEST(CdBackon, MultiplicativeDynamics) {
  CdBackonOptions opts;
  opts.p0 = 0.25;
  CdBackonNode node(opts);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.25);
  node.on_feedback_cd(1, CdFeedback::kCollision, true, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.125);
  node.on_feedback_cd(2, CdFeedback::kSilence, false, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.25);
  node.on_feedback_cd(3, CdFeedback::kSuccess, false, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.25) << "success leaves p unchanged";
  // Backon is capped at p_max.
  node.on_feedback_cd(4, CdFeedback::kSilence, false, false);
  node.on_feedback_cd(5, CdFeedback::kSilence, false, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.5);
}

TEST(CdBackon, FloorGuard) {
  CdBackonOptions opts;
  opts.p0 = 0.5;
  CdBackonNode node(opts);
  for (int i = 0; i < 100; ++i) node.on_feedback_cd(i + 1, CdFeedback::kCollision, true, false);
  EXPECT_GE(node.sending_probability(), opts.p_min);
}

TEST(CdBackon, NoCdPathOnlyDecays) {
  // Through the binary (no-CD) path the controller never hears silence: a
  // wasted slot can only lower p. This is the structural handicap.
  CdBackonOptions opts;
  opts.p0 = 0.5;
  CdBackonNode node(opts);
  node.on_feedback(1, Feedback::kSilenceOrCollision, false, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.25);
  node.on_feedback(2, Feedback::kSuccess, false, false);
  EXPECT_DOUBLE_EQ(node.sending_probability(), 0.25);
}

TEST(CdBackon, WithoutCollisionDetectionSilenceBacksOff) {
  // The one update rule, both models: with CD silence backs on; without it
  // silence is heard as a collision and backs off.
  const CdBackonOptions cd{};
  const CdBackonOptions no_cd{.collision_detection = false};
  EXPECT_DOUBLE_EQ(cd_backon_next(cd, 0.125, CdFeedback::kSilence), 0.25);
  EXPECT_DOUBLE_EQ(cd_backon_next(no_cd, 0.125, CdFeedback::kSilence), 0.0625);
  for (const CdBackonOptions& opts : {cd, no_cd}) {
    EXPECT_DOUBLE_EQ(cd_backon_next(opts, 0.125, CdFeedback::kCollision), 0.0625);
    EXPECT_DOUBLE_EQ(cd_backon_next(opts, 0.125, CdFeedback::kSuccess), 0.125);
    EXPECT_DOUBLE_EQ(cd_backon_next(opts, opts.p_min, CdFeedback::kCollision), opts.p_min);
  }
  EXPECT_DOUBLE_EQ(cd_backon_next(cd, cd.p_max, CdFeedback::kSilence), cd.p_max);
}

TEST(CdBackon, DrainsJammedBatchInLinearTime) {
  // With CD, an n-batch under 25% jamming drains within a small constant
  // multiple of n — the constant-throughput regime of the CD literature —
  // on the per-node reference and on the cohort engine alike.
  const std::uint64_t n = 256;
  for (const Engine* engine : EngineRegistry::instance().compatible(cd_backon_protocol({}))) {
    const SimResult res = run_batch(*engine, cd_backon_protocol({}), n, 0.25, 16 * n, 5);
    EXPECT_EQ(res.successes, n) << engine->name() << ": must finish within 16n slots";
  }
}

TEST(CdBackon, ConstantThroughputAcrossScales) {
  // completion/n roughly flat as n quadruples (vs CJZ's log growth).
  for (const Engine* engine : EngineRegistry::instance().compatible(cd_backon_protocol({}))) {
    auto completion_over_n = [&](std::uint64_t n) {
      const SimResult res = run_batch(*engine, cd_backon_protocol({}), n, 0.0, 32 * n, 11);
      EXPECT_EQ(res.successes, n) << engine->name();
      return static_cast<double>(res.last_success) / static_cast<double>(n);
    };
    const double small = completion_over_n(128);
    const double large = completion_over_n(2048);
    EXPECT_LT(large, 2.0 * small + 2.0)
        << engine->name() << ": completion/n should not grow materially with n";
  }
}

TEST(CdBackon, CollapsesWithoutCollisionDetection) {
  // The identical controller with its feedback collapsed to binary stalls:
  // after the first collisions p decays and, hearing only
  // silence-or-collision, never recovers.
  const std::uint64_t n = 128;
  DegradedFactory factory;
  ComposedAdversary adv(batch_arrival(n, 1), no_jam());
  SimConfig cfg;
  cfg.horizon = 32 * n;
  cfg.seed = 7;
  const SimResult res = run_generic(factory, adv, cfg);
  EXPECT_LT(res.successes, n / 2) << "without CD the controller loses its backon signal";
  for (const Engine* engine : EngineRegistry::instance().compatible(cd_backon_protocol({}))) {
    const SimResult spec_res = run_batch(
        *engine, cd_backon_protocol({.collision_detection = false}), n, 0.0, 32 * n, 7, false);
    EXPECT_LT(spec_res.successes, n / 2) << engine->name();
  }
}

TEST(CdBackon, NoCdSpecIsTheDegradedWrapperExactly) {
  // On the per-node engine, collision_detection = false is the hand-built
  // binary wrapper draw for draw: every SimResult field, the slot trace and
  // the node stats included.
  const Engine& generic = engine_named("generic");
  const ProtocolSpec spec = cd_backon_protocol({.collision_detection = false});
  std::uint64_t successes = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::uint64_t n = 8 + 9 * seed;
    const slot_t arrival = 1 + seed % 3;
    const double jam = seed % 2 == 0 ? 0.25 : 0.0;
    const auto run = [&](const auto& execute) {
      ComposedAdversary adv(batch_arrival(n, arrival), jam > 0 ? iid_jammer(jam) : no_jam());
      SimConfig cfg;
      cfg.horizon = 2048;
      cfg.seed = seed;
      cfg.recording = RecordingConfig::full_trace();
      return execute(adv, cfg);
    };
    DegradedFactory degraded;
    const SimResult want =
        run([&](Adversary& adv, const SimConfig& cfg) { return run_generic(degraded, adv, cfg); });
    const SimResult got =
        run([&](Adversary& adv, const SimConfig& cfg) { return generic.run(spec, adv, cfg); });
    EXPECT_EQ(got, want) << "seed " << seed;
    successes += got.successes;
  }
  EXPECT_GT(successes, 0u) << "the runs must do something before the controller stalls";
}

// ---------------------------------------------------------------------------
// Options are checked once, where the spec is built, whichever engine runs it.
// ---------------------------------------------------------------------------

/// Build the spec from `opts` and run a small batch on `engine`.
void run_options(const char* engine, const CdBackonOptions& opts) {
  run_batch(engine_named(engine), cd_backon_protocol(opts), 8, 0.0, 64, 1);
}

constexpr const char* kEngines[] = {"generic", "fast_batch"};

TEST(CdBackonOptionsDeathTest, BadP0IsNamed) {
  for (const char* engine : kEngines) {
    EXPECT_DEATH(run_options(engine, {.p0 = 0.0}),
                 "cd_backon_protocol: p0 must be in .0, 1., got 0")
        << engine;
    EXPECT_DEATH(run_options(engine, {.p0 = 1.5}),
                 "cd_backon_protocol: p0 must be in .0, 1., got 1.5")
        << engine;
  }
}

TEST(CdBackonOptionsDeathTest, BadPMaxIsNamed) {
  for (const char* engine : kEngines)
    EXPECT_DEATH(run_options(engine, {.p_max = 2.0}),
                 "cd_backon_protocol: p_max must be in .0, 1., got 2")
        << engine;
}

TEST(CdBackonOptionsDeathTest, BadPMinIsNamed) {
  for (const char* engine : kEngines) {
    EXPECT_DEATH(run_options(engine, {.p_min = 0.0}),
                 "cd_backon_protocol: p_min must be in .0, p_max. = .0, 0.5., got 0")
        << engine;
    EXPECT_DEATH(run_options(engine, {.p_min = 0.75}),
                 "cd_backon_protocol: p_min must be in .0, p_max. = .0, 0.5., got 0.75")
        << engine;
  }
}

TEST(CdBackonOptionsDeathTest, BadMultIsNamed) {
  for (const char* engine : kEngines)
    EXPECT_DEATH(run_options(engine, {.mult = 1.0}),
                 "cd_backon_protocol: mult must be > 1, got 1")
        << engine;
}

// ---------------------------------------------------------------------------
// The law: the cohort engine's binomial per cohort per slot, with p moved by
// cd_backon_next after every live slot, is the per-node controller in
// distribution. n = 1024 at p = 1/2 takes binomial's clamped-normal branch.
// ---------------------------------------------------------------------------

TEST(CdBackonLaw, CohortEngineMatchesPerNodeReference) {
  const Engine& generic = engine_named("generic");
  const Engine& fast = engine_named("fast_batch");
  const int kSeeds = 100;
  for (const bool cd : {true, false}) {
    const ProtocolSpec spec = cd_backon_protocol({.collision_detection = cd});
    for (const std::uint64_t n : {64u, 256u, 1024u}) {
      // Without CD the controller is dead within a few hundred slots (p
      // decays to p_min), so a short horizon sees its whole trajectory.
      const slot_t horizon = cd ? 200 * n : 256;
      for (const double jam : {0.0, 0.25}) {
        const std::string tag =
            spec.label + " n=" + std::to_string(n) + " jam=" + std::to_string(jam);
        const auto sample = [&](const Engine& engine) {
          return replicate(kSeeds, 5000 + n, [&](std::uint64_t s) {
            return run_batch(engine, spec, n, jam, horizon, s);
          }, /*threads=*/2);
        };
        const auto ref = sample(generic);
        const auto got = sample(fast);
        const auto agree = [&](const char* what, double (*metric)(const SimResult&)) {
          EXPECT_TRUE(stat::means_agree(collect(ref, metric), collect(got, metric), 3.0))
              << tag << " " << what;
        };
        agree("successes", [](const SimResult& r) { return static_cast<double>(r.successes); });
        agree("total sends",
              [](const SimResult& r) { return static_cast<double>(r.total_sends); });
        agree("completion slot",
              [](const SimResult& r) { return static_cast<double>(r.last_success); });
        if (cd) {
          for (const SimResult& r : got) EXPECT_EQ(r.successes, n) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cr

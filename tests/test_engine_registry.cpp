// The unified Engine interface and its registry: name lookup, capability
// matrix, preferred-engine selection, and spec → factory materialisation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammers.hpp"
#include "engine/engine.hpp"
#include "exp/scenarios.hpp"
#include "protocols/baselines.hpp"
#include "protocols/batch.hpp"

namespace cr {
namespace {

TEST(EngineRegistryTest, KnowsTheBuiltInEngines) {
  const auto names = EngineRegistry::instance().names();
  EXPECT_EQ(names, (std::vector<std::string>{"generic", "fast_cjz", "fast_batch"}));
  EXPECT_EQ(EngineRegistry::instance().find("warp"), nullptr);
}

TEST(EngineRegistryDeathTest, AtRejectsUnknownNames) {
  EXPECT_DEATH(EngineRegistry::instance().at("warp"), "unknown engine");
}

TEST(EngineRegistryTest, CapabilityMatrix) {
  const auto& registry = EngineRegistry::instance();
  const ProtocolSpec cjz = cjz_protocol(functions_constant_g(4.0));
  const ProtocolSpec profile = profile_protocol(profiles::h_data());
  const ProtocolSpec custom =
      factory_protocol("beb", [] { return windowed_backoff_factory({}); });
  const ProtocolSpec cd_backon = cd_backon_protocol({});

  // The reference engine executes everything; each cohort engine exactly its
  // own protocol families.
  EXPECT_TRUE(registry.at("generic")->supports(cjz));
  EXPECT_TRUE(registry.at("generic")->supports(profile));
  EXPECT_TRUE(registry.at("generic")->supports(custom));
  EXPECT_TRUE(registry.at("generic")->supports(cd_backon));
  EXPECT_TRUE(registry.at("fast_cjz")->supports(cjz));
  EXPECT_FALSE(registry.at("fast_cjz")->supports(profile));
  EXPECT_FALSE(registry.at("fast_cjz")->supports(custom));
  EXPECT_FALSE(registry.at("fast_cjz")->supports(cd_backon));
  EXPECT_TRUE(registry.at("fast_batch")->supports(profile));
  EXPECT_TRUE(registry.at("fast_batch")->supports(cd_backon));
  EXPECT_FALSE(registry.at("fast_batch")->supports(cjz));
  EXPECT_FALSE(registry.at("fast_batch")->supports(custom));
}

TEST(EngineRegistryTest, PreferredPicksTheFastestCompatibleEngine) {
  const auto& registry = EngineRegistry::instance();
  EXPECT_EQ(registry.preferred(cjz_protocol(functions_constant_g(4.0))).name(), "fast_cjz");
  EXPECT_EQ(registry.preferred(profile_protocol(profiles::h_data())).name(), "fast_batch");
  EXPECT_EQ(registry.preferred(cd_backon_protocol({})).name(), "fast_batch");
  EXPECT_EQ(registry.preferred(cd_backon_protocol({.collision_detection = false})).name(),
            "fast_batch");
  EXPECT_EQ(registry
                .preferred(factory_protocol("beb",
                                            [] { return windowed_backoff_factory({}); }))
                .name(),
            "generic");
}

TEST(EngineRegistryTest, CompatibleIsOrderedFastestFirst) {
  const auto engines =
      EngineRegistry::instance().compatible(cjz_protocol(functions_constant_g(4.0)));
  ASSERT_EQ(engines.size(), 2u);  // fast_cjz (rank 100) + generic (0)
  EXPECT_EQ(engines[0]->name(), "fast_cjz");
  EXPECT_EQ(engines[1]->name(), "generic");
}

TEST(ProtocolSpecTest, MakeFactoryMaterialisesEveryKind) {
  EXPECT_EQ(make_protocol_factory(cjz_protocol(functions_constant_g(4.0)))->name(),
            "cjz[g=const(4), cf=1, a=1, c3=2]");
  EXPECT_EQ(make_protocol_factory(profile_protocol(profiles::h_data()))->name(),
            "profile[h_data]");
  EXPECT_EQ(make_protocol_factory(cd_backon_protocol({}))->name(), "cd-backon");
  EXPECT_EQ(make_protocol_factory(cd_backon_protocol({.collision_detection = false}))->name(),
            "cd-backon-no-cd");
  const ProtocolSpec custom =
      factory_protocol("beb", [] { return windowed_backoff_factory({}); });
  EXPECT_NE(make_protocol_factory(custom), nullptr);
  // Each call builds a FRESH factory (the contract parallel replication
  // relies on).
  EXPECT_NE(make_protocol_factory(custom), make_protocol_factory(custom));
}

TEST(EngineInterface, AllCompatibleEnginesRunTheSameScenarioShape) {
  // Structural check (statistical agreement lives in test_cross_engine):
  // every compatible engine consumes the same spec/adversary/config and
  // reports the same arrival count.
  const ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
  for (const Engine* engine : EngineRegistry::instance().compatible(spec)) {
    ComposedAdversary adv(batch_arrival(16, 1), no_jam());
    SimConfig cfg;
    cfg.horizon = 50'000;
    cfg.seed = 3;
    cfg.stop_when_empty = true;
    const SimResult res = engine->run(spec, adv, cfg);
    EXPECT_EQ(res.arrivals, 16u) << engine->name();
    EXPECT_EQ(res.successes, 16u) << engine->name();
  }
}

}  // namespace
}  // namespace cr

// Tests for Registry<Entry> (src/common/registry.hpp), the shape every
// name-keyed table shares: entries in registration order, unique non-empty
// names, and one unknown-name diagnostic naming the kind, the name, a close
// hint and the known names — checked here over every registry and table,
// as is `cr list`, which names every entry of each.
#include "common/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/component_registry.hpp"
#include "cli/bench_registry.hpp"
#include "cli/docs_gen.hpp"
#include "engine/engine.hpp"
#include "exp/scenarios.hpp"
#include "exp/workload.hpp"
#include "verify/claim_registry.hpp"

namespace cr {
namespace {

struct Row {
  std::string name;
  int value = 0;
};

TEST(Registry, KeepsEntriesInRegistrationOrder) {
  Registry<Row> table("row", "rows", {{"b", 1}, {"a", 2}});
  table.add({"c", 3});
  EXPECT_EQ(table.names(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(table.joined_names(" | "), "b | a | c");
  ASSERT_NE(table.find("a"), nullptr);
  EXPECT_EQ(table.find("a")->value, 2);
  EXPECT_EQ(&table.at("c"), &table.entries()[2]);
  EXPECT_EQ(table.find("d"), nullptr);
}

TEST(RegistryDeathTest, RejectsEmptyAndDuplicateNames) {
  Registry<Row> table("row", "rows", {{"a", 1}});
  EXPECT_DEATH(table.add({"a", 2}), "CR_CHECK failed");
  EXPECT_DEATH(table.add({"", 2}), "CR_CHECK failed");
}

TEST(RegistryDeathTest, AtPrintsTheUnknownNameDiagnosticAndAborts) {
  EXPECT_DEATH(EngineRegistry::instance().at("generc"),
               "unknown engine \"generc\" \\(did you mean \"generic\"\\?\\); known engines: "
               "generic fast_cjz fast_batch");
}

TEST(Registry, EveryTableSharesTheUnknownNameDiagnostic) {
  EXPECT_EQ(EngineRegistry::instance().unknown("generc"),
            "unknown engine \"generc\" (did you mean \"generic\"?); known engines: generic "
            "fast_cjz fast_batch");
  EXPECT_EQ(ScenarioRegistry::instance().unknown("smoth"),
            "unknown scenario \"smoth\" (did you mean \"smooth\"?); known scenarios: worst_case "
            "batch smooth bernoulli_stream bursty");
  EXPECT_EQ(BenchRegistry::instance().unknown("lantency"),
            "unknown bench \"lantency\" (did you mean \"latency\"?); known benches: tradeoff "
            "worstcase batch_completion batch_robustness nonadaptive lowerbound baselines "
            "first_success latency energy ablation cd_contrast scenario workload stream");
  EXPECT_EQ(ArrivalRegistry::instance().unknown("bernouli"),
            "unknown arrival \"bernouli\" (did you mean \"bernoulli\"?); known arrivals: none "
            "batch bernoulli uniform_random paced bursty");
  EXPECT_EQ(JammerRegistry::instance().unknown("periodc"),
            "unknown jammer \"periodc\" (did you mean \"periodic\"?); known jammers: none iid "
            "prefix periodic budget_paced reactive");
  EXPECT_EQ(g_regimes().unknown("lg"),
            "unknown g regime \"lg\" (did you mean \"log\"?); known g regimes: const log "
            "exp_sqrt_log");
  EXPECT_EQ(workload_protocols().unknown("sawtoth"),
            "unknown protocol \"sawtoth\" (did you mean \"sawtooth\"?); known protocols: cjz "
            "h_backoff h_data beb sawtooth poly");
  // Claims are keyed by id; with nothing close there is no hint.
  std::string ids;
  for (const verify::ClaimSpec& spec : verify::ClaimRegistry::instance().entries())
    ids += " " + spec.id;
  EXPECT_EQ(verify::ClaimRegistry::instance().unknown("thm1.2-tradeof"),
            "unknown claim \"thm1.2-tradeof\" (did you mean \"thm1.2-tradeoff\"?); known "
            "claims:" + ids);
  EXPECT_EQ(verify::ClaimRegistry::instance().unknown("zzz"),
            "unknown claim \"zzz\"; known claims:" + ids);
}

TEST(Registry, ListingNamesEveryEntryOfEveryTable) {
  // `cr list` prints one section per table and one line per entry, each
  // starting with two spaces and the entry's name.
  const std::string text = registry_listing_text();
  const auto expect_section = [&](const std::string& header,
                                  const std::vector<std::string>& names) {
    const std::size_t begin = text.find(header);
    ASSERT_NE(begin, std::string::npos) << "no section \"" << header << "\" in:\n" << text;
    const std::size_t end = text.find("\n\n", begin);
    const std::string section = text.substr(begin, end - begin) + "\n";
    ASSERT_FALSE(names.empty()) << header;
    for (const std::string& name : names)
      EXPECT_TRUE(section.find("\n  " + name + " ") != std::string::npos ||
                  section.find("\n  " + name + "\n") != std::string::npos)
          << header << " does not list " << name << ":\n" << section;
  };
  std::vector<std::string> benches, claims;
  for (const BenchSpec& spec : BenchRegistry::instance().entries()) benches.push_back(spec.name);
  for (const verify::ClaimSpec& spec : verify::ClaimRegistry::instance().entries())
    claims.push_back(spec.id);
  expect_section("benches (", benches);
  expect_section("scenarios (", ScenarioRegistry::instance().names());
  expect_section("arrivals (", ArrivalRegistry::instance().names());
  expect_section("jammers (", JammerRegistry::instance().names());
  expect_section("protocols (", workload_protocols().names());
  expect_section("engines (", EngineRegistry::instance().names());
  expect_section("claims (", claims);
}

}  // namespace
}  // namespace cr

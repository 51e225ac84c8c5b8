// Unit tests for the experiment harness and the bench driver's flag checks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "exp/bench_driver.hpp"
#include "exp/harness.hpp"

namespace cr {
namespace {

SimResult fake_result(std::uint64_t seed) {
  SimResult r;
  r.successes = seed * 10;
  r.slots = 100;
  return r;
}

TEST(Harness, ReplicateUsesSequentialSeeds) {
  const auto results = replicate(5, 10, fake_result);
  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i].successes, (10u + i) * 10);
}

TEST(Harness, CollectAggregates) {
  const auto results = replicate(4, 1, fake_result);  // successes 10,20,30,40
  const Accumulator acc = collect(results, [](const SimResult& r) {
    return static_cast<double>(r.successes);
  });
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 25.0);
  EXPECT_DOUBLE_EQ(acc.min(), 10.0);
  EXPECT_DOUBLE_EQ(acc.max(), 40.0);
}

TEST(Harness, Fraction) {
  const auto results = replicate(4, 1, fake_result);
  const double frac = fraction(results, [](const SimResult& r) { return r.successes >= 30; });
  EXPECT_DOUBLE_EQ(frac, 0.5);
  EXPECT_DOUBLE_EQ(fraction({}, [](const SimResult&) { return true; }), 0.0);
}

TEST(Harness, MeanSdFormat) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_EQ(mean_sd(acc, 1), "2.0±1.4");
}

TEST(Harness, ParallelReplicateMatchesSerial) {
  const auto serial = replicate(17, 10, fake_result, /*threads=*/1);
  for (const int threads : {2, 5, 8}) {
    const auto parallel = replicate(17, 10, fake_result, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(parallel[i], serial[i]);
  }
}

TEST(Harness, ReplicateMapCarriesArbitraryTypes) {
  const auto results = replicate_map(
      4, 7, [](std::uint64_t seed) { return std::to_string(seed); }, /*threads=*/2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], "7");
  EXPECT_EQ(results[3], "10");
}

TEST(BenchDriverDeathTest, UnwritableCsvPathExitsFromTheConstructor) {
  // The constructor runs before any replication, so a path write_output
  // would refuse fails the bench before its run, not after it.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("cr_bench_driver_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink(dir / "target.csv", dir / "link.csv");
  BenchSpec spec;
  spec.name = "probe";
  spec.csv_columns = {"x"};
  const auto construct = [&](const std::string& csv_flag) {
    const char* argv[] = {"cr bench probe", csv_flag.c_str()};
    BenchDriver(spec, 2, argv);
  };
  EXPECT_EXIT(construct("--csv=" + (dir / "no" / "x.csv").string()),
              ::testing::ExitedWithCode(2),
              "cr bench probe: cannot write .*/no/x\\.csv: cannot use directory");
  EXPECT_EXIT(construct("--csv=" + (dir / "link.csv").string()), ::testing::ExitedWithCode(2),
              "cr bench probe: cannot write .*/link\\.csv: not a regular file");
  // A writable path, and a bare --csv (its default name is the bench's),
  // pass the constructor.
  construct("--csv=" + (dir / "ok.csv").string());
  construct("--csv");
  EXPECT_FALSE(fs::exists(dir / "no"));
  EXPECT_FALSE(fs::exists(dir / "target.csv"));
  fs::remove_all(dir);
}

TEST(BenchDriverDeathTest, FlagsAreCheckedAgainstTheRows) {
  BenchSpec spec;
  spec.name = "probe";
  ParamDef max_n{"max_n", ParamType::kUint, "64", "largest size"};
  max_n.bound.min = 16;
  max_n.quick_text = "32";
  spec.flags = {max_n, reps_flag(4, 2)};
  const auto construct = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "cr bench probe");
    return BenchDriver(spec, static_cast<int>(args.size()), args.data());
  };
  // Defaults, quick defaults and passed values come back validated.
  EXPECT_EQ(construct({}).flags().as_uint("max_n"), 64u);
  EXPECT_EQ(construct({"--quick"}).flags().as_uint("reps"), 2u);
  EXPECT_EQ(construct({"--quick", "--max_n=20"}).flags().as_uint("max_n"), 20u);
  EXPECT_EXIT(construct({"--max_n=8"}), ::testing::ExitedWithCode(2),
              "cr bench probe: parameter \"max_n\" must be >= 16, got \"8\"");
  EXPECT_EXIT(construct({"--reps=-1"}), ::testing::ExitedWithCode(2),
              "cr bench probe: parameter \"reps\" expects a uint, got \"-1\"");
  EXPECT_EXIT(construct({"--rep=3"}), ::testing::ExitedWithCode(2),
              "unknown flag --rep \\(did you mean --reps\\?\\)");
}

TEST(BenchFlag, SeedAndThreadsHelpSaysWhetherTheBenchReplicates) {
  // A bench without a reps row (cr stream) runs one seed and no replication
  // workers, and its --help must not promise either.
  BenchSpec single;
  single.name = "probe";
  BenchSpec replicated = single;
  replicated.flags = {reps_flag(4, 2)};
  std::map<std::string, std::pair<std::string, std::string>> help;
  for (const BenchFlag& flag : BenchDriver::standard_flags())
    help[flag.name] = {flag.help_for(replicated), flag.help_for(single)};
  using Pair = std::pair<std::string, std::string>;
  EXPECT_EQ(help["seed"], Pair("base seed; seeds S..S+reps-1 are used",
                               "seed of the one run; this bench takes no --reps"));
  EXPECT_EQ(help["threads"],
            Pair("parallel replication workers (default: all cores; results identical)",
                 "unused: this bench runs no replications"));
  for (const char* same : {"quick", "csv", "quiet", "help"})
    EXPECT_EQ(help[same].first, help[same].second) << same;
}

}  // namespace
}  // namespace cr

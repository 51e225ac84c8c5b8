// Tests for the manifest-driven suite runner (src/cli/suite.hpp):
// grid-expansion counts and ordering, manifest validation against the
// BenchRegistry, deterministic sharding (disjoint cover), and the
// resume/bit-identical-output contract of run_suite.
#include "cli/suite.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cli/bench_registry.hpp"
#include "common/json.hpp"

namespace cr {
namespace {

namespace fs = std::filesystem;

SuiteLoadResult parse(const std::string& text) {
  const JsonParseResult json = JsonValue::parse(text);
  EXPECT_TRUE(json.ok()) << json.error;
  return parse_suite(*json.value, "test-manifest");
}

TEST(SuiteParse, MinimalManifest) {
  const auto loaded = parse(R"({"name": "s", "cells": [{"bench": "latency"}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.spec.name, "s");
  EXPECT_EQ(loaded.spec.output_dir, "out/s");  // default
  ASSERT_EQ(loaded.spec.blocks.size(), 1u);
  // No "seeds" key = run at the bench's own canonical base seeds: the cell
  // carries no --seed (a forced seed would collapse multi-base benches).
  EXPECT_TRUE(loaded.spec.blocks[0].seeds.empty());
  const auto cells = expand_suite(loaded.spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].has_seed);
  EXPECT_EQ(cells[0].id, "latency__seed-default");
}

TEST(SuiteParse, RejectsUnknownBench) {
  const auto loaded = parse(R"({"name": "s", "cells": [{"bench": "latencyy"}]})");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("unknown bench"), std::string::npos) << loaded.error;
}

TEST(SuiteParse, RejectsUnknownGridAxis) {
  const auto loaded = parse(
      R"({"name": "s", "cells": [{"bench": "latency", "grid": {"max_n": [64]}}]})");
  EXPECT_FALSE(loaded.ok());  // latency declares max_exp, not max_n
  EXPECT_NE(loaded.error.find("max_n"), std::string::npos) << loaded.error;
}

TEST(SuiteParse, RejectsReservedFlags) {
  for (const std::string axis : {"seed", "csv", "quiet", "threads", "quick"}) {
    const auto loaded = parse(R"({"name": "s", "cells": [{"bench": "latency",
                                 "grid": {")" + axis + R"(": [1]}}]})");
    EXPECT_FALSE(loaded.ok()) << axis;
  }
  const auto defaults = parse(
      R"({"name": "s", "defaults": {"seed": 1}, "cells": [{"bench": "latency"}]})");
  EXPECT_FALSE(defaults.ok());
}

TEST(SuiteParse, RejectsNonIntegerAndOverflowingSeeds) {
  // Fractional and negative seeds must fail loudly rather than truncate
  // through a double cast, and anything past INT64_MAX must fail HERE —
  // the bench-side --seed goes through Cli::get_int (strtoll), so a larger
  // value would pass validation only to abort the cell at run time.
  for (const std::string bad :
       {"1.9", "-1", "1e3", "9223372036854775808", "18446744073709551615"}) {
    const auto loaded = parse(
        R"({"name": "s", "cells": [{"bench": "latency", "seeds": [)" + bad + "]}]}");
    EXPECT_FALSE(loaded.ok()) << bad;
  }
  const auto max_ok = parse(
      R"({"name": "s", "cells": [{"bench": "latency", "seeds": [9223372036854775807]}]})");
  ASSERT_TRUE(max_ok.ok()) << max_ok.error;
  EXPECT_EQ(max_ok.spec.blocks[0].seeds[0], static_cast<std::uint64_t>(INT64_MAX));
}

TEST(SuiteParse, RejectsDefaultNoBenchDeclares) {
  const auto loaded = parse(
      R"({"name": "s", "defaults": {"max_n": 64}, "cells": [{"bench": "latency"}]})");
  EXPECT_FALSE(loaded.ok());  // no bench in this suite takes --max_n
}

TEST(SuiteParse, RejectsDuplicateCells) {
  const auto loaded = parse(R"({"name": "s", "cells": [
      {"bench": "latency", "seeds": [7]}, {"bench": "latency", "seeds": [7]}]})");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("duplicate cell"), std::string::npos) << loaded.error;
}

TEST(SuiteParse, DiagnosesSanitizationCollisionsAsSuch) {
  // "a/b" and "a:b" are DIFFERENT values that both sanitize to "a_b" in the
  // cell id; the error must name the id clash, not claim the cells are
  // duplicates.
  const auto loaded = parse(R"({"name": "s", "cells": [
      {"bench": "scenario", "grid": {"scenario": ["a/b", "a:b"]}}]})");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("cell id collision"), std::string::npos) << loaded.error;
  EXPECT_EQ(loaded.error.find("duplicate cell"), std::string::npos) << loaded.error;
}

TEST(SuiteExpand, GridTimesSeedsCounts) {
  // All three presets consume --jam (bursty would fail the consumed-param
  // validation, by design).
  const auto loaded = parse(R"({"name": "s", "cells": [
      {"bench": "scenario",
       "grid": {"scenario": ["batch", "worst_case", "bernoulli_stream"], "jam": [0.0, 0.25]},
       "seeds": [1, 2, 3, 4]},
      {"bench": "energy", "grid": {"max_n": [64, 128]}}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const auto cells = expand_suite(loaded.spec);
  EXPECT_EQ(cells.size(), 3u * 2u * 4u + 2u);
  // Row-major in manifest order: rightmost axis (jam) fastest, seeds fastest
  // of all; indices are the expansion positions.
  EXPECT_EQ(cells[0].id, "scenario__scenario-batch__jam-0.0__seed-1");
  EXPECT_EQ(cells[4].id, "scenario__scenario-batch__jam-0.25__seed-1");
  EXPECT_EQ(cells[8].id, "scenario__scenario-worst_case__jam-0.0__seed-1");
  EXPECT_EQ(cells[24].id, "energy__max_n-64__seed-default");
  EXPECT_FALSE(cells[24].has_seed);
  EXPECT_TRUE(cells[0].has_seed);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(SuiteExpand, DefaultsApplyOnlyWhereDeclared) {
  const auto loaded = parse(R"({"name": "s", "defaults": {"reps": 3, "max_n": 64},
      "cells": [{"bench": "energy"}, {"bench": "latency"}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const auto cells = expand_suite(loaded.spec);
  ASSERT_EQ(cells.size(), 2u);
  const auto flags_of = [](const SuiteCell& cell) {
    std::map<std::string, std::string> out(cell.flags.begin(), cell.flags.end());
    return out;
  };
  EXPECT_EQ(flags_of(cells[0]).count("max_n"), 1u);  // energy declares --max_n
  EXPECT_EQ(flags_of(cells[1]).count("max_n"), 0u);  // latency does not
  EXPECT_EQ(flags_of(cells[0]).at("reps"), "3");     // standard flag: everywhere
  EXPECT_EQ(flags_of(cells[1]).at("reps"), "3");
}

TEST(SuiteExpand, RawNumberTextSurvives) {
  const auto loaded = parse(R"({"name": "s", "cells": [
      {"bench": "scenario", "grid": {"jam": [0.25]}}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const auto cells = expand_suite(loaded.spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].flags.back(), (std::pair<std::string, std::string>{"jam", "0.25"}));
}

TEST(Shard, ParseAcceptsValidRejectsMalformed) {
  ShardSpec shard;
  EXPECT_TRUE(parse_shard("1/1", &shard));
  EXPECT_TRUE(parse_shard("2/3", &shard));
  EXPECT_EQ(shard.index, 2);
  EXPECT_EQ(shard.count, 3);
  for (const std::string bad : {"", "1", "/", "0/2", "3/2", "1/0", "a/2", "1/2/3", "-1/2",
                                // would truncate in the int cast and run the wrong subset
                                "4294967298/4294967299", "4294967297/4294967297"})
    EXPECT_FALSE(parse_shard(bad, &shard)) << bad;
}

TEST(Shard, PartitionIsADisjointCover) {
  for (int count = 1; count <= 5; ++count) {
    for (std::size_t cell = 0; cell < 23; ++cell) {
      int owners = 0;
      for (int index = 1; index <= count; ++index)
        owners += cell_in_shard(cell, ShardSpec{index, count}) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "cell " << cell << " of shards /" << count;
    }
  }
}

TEST(Suite, ConfigHashIsShardIndependentButConfigSensitive) {
  const auto a = parse(R"({"name": "s", "cells": [
      {"bench": "scenario", "grid": {"jam": [0.0, 0.25]}}]})");
  const auto b = parse(R"({"name": "s", "cells": [
      {"bench": "scenario", "grid": {"jam": [0.0, 0.5]}}]})");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string hash_a = suite_config_hash(expand_suite(a.spec));
  EXPECT_EQ(hash_a, suite_config_hash(expand_suite(a.spec)));  // deterministic
  EXPECT_NE(hash_a, suite_config_hash(expand_suite(b.spec)));  // config-sensitive
}

/// End-to-end fixture: a tiny two-cell suite run into a temp directory.
class SuiteRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cr_test_suite_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    const auto loaded = parse(R"({"name": "tiny", "defaults": {"reps": 1},
        "cells": [{"bench": "scenario",
                   "grid": {"scenario": ["batch"], "horizon": [512], "n": [16],
                            "jam": [0.0, 0.5]},
                   "seeds": [3]}]})");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    spec_ = loaded.spec;
  }
  void TearDown() override { fs::remove_all(dir_); }

  SuiteRunOptions options() {
    SuiteRunOptions opts;
    opts.output_dir = dir_.string();
    opts.threads = 1;
    return opts;
  }

  std::map<std::string, std::string> csv_contents() const {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() != ".csv") continue;
      std::ifstream in(entry.path());
      std::stringstream buf;
      buf << in.rdbuf();
      out[entry.path().filename().string()] = buf.str();
    }
    return out;
  }

  fs::path dir_;
  SuiteSpec spec_;
};

TEST_F(SuiteRunTest, RunsCellsAndWritesManifest) {
  std::ostringstream log;
  EXPECT_EQ(run_suite(spec_, options(), log), 0);
  const auto csvs = csv_contents();
  EXPECT_EQ(csvs.size(), 2u);
  for (const auto& [name, content] : csvs)
    EXPECT_NE(content.find("scenario,engine"), std::string::npos) << name;
  ASSERT_TRUE(fs::exists(dir_ / "manifest.json"));
  const auto manifest = JsonValue::parse_file((dir_ / "manifest.json").string());
  ASSERT_TRUE(manifest.ok()) << manifest.error;
  EXPECT_EQ(manifest.value->find("suite")->as_string(), "tiny");
  EXPECT_EQ(manifest.value->find("cells")->items().size(), 2u);
  for (const auto& cell : manifest.value->find("cells")->items())
    EXPECT_EQ(cell->find("status")->as_string(), "ok");
}

TEST_F(SuiteRunTest, ResumeSkipsCompletedCellsBitIdentically) {
  std::ostringstream log1;
  EXPECT_EQ(run_suite(spec_, options(), log1), 0);
  const auto first = csv_contents();
  ASSERT_EQ(first.size(), 2u);

  // Second run: everything cached, bytes untouched.
  std::ostringstream log2;
  EXPECT_EQ(run_suite(spec_, options(), log2), 0);
  EXPECT_EQ(csv_contents(), first);
  const auto manifest = JsonValue::parse_file((dir_ / "manifest.json").string());
  ASSERT_TRUE(manifest.ok());
  for (const auto& cell : manifest.value->find("cells")->items())
    EXPECT_EQ(cell->find("status")->as_string(), "cached");

  // Delete one cell's output: only that cell reruns, and its regenerated
  // bytes match the original run exactly.
  const std::string victim = first.begin()->first;
  fs::remove(dir_ / victim);
  std::ostringstream log3;
  EXPECT_EQ(run_suite(spec_, options(), log3), 0);
  EXPECT_EQ(csv_contents(), first);
  EXPECT_NE(log3.str().find("1 ran, 1 cached"), std::string::npos) << log3.str();
}

TEST_F(SuiteRunTest, ShardsAreDisjointAndUnionMatchesUnsharded) {
  std::ostringstream log;
  EXPECT_EQ(run_suite(spec_, options(), log), 0);
  const auto unsharded = csv_contents();
  ASSERT_EQ(unsharded.size(), 2u);
  fs::remove_all(dir_);

  // Shard 1 produces a strict subset…
  SuiteRunOptions opts1 = options();
  opts1.shard = ShardSpec{1, 2};
  std::ostringstream log1;
  EXPECT_EQ(run_suite(spec_, opts1, log1), 0);
  EXPECT_TRUE(fs::exists(dir_ / "manifest.1of2.json"));
  EXPECT_EQ(csv_contents().size(), 1u);

  // …and shard 2 the complement: the union equals the unsharded run, byte
  // for byte (each shard's log confirms it ran exactly one cell).
  SuiteRunOptions opts2 = options();
  opts2.shard = ShardSpec{2, 2};
  std::ostringstream log2;
  EXPECT_EQ(run_suite(spec_, opts2, log2), 0);
  EXPECT_TRUE(fs::exists(dir_ / "manifest.2of2.json"));
  EXPECT_NE(log2.str().find("1 ran, 0 cached"), std::string::npos) << log2.str();
  EXPECT_EQ(csv_contents(), unsharded);
}

TEST_F(SuiteRunTest, RefusesToResumeOverStaleOutputs) {
  std::ostringstream log;
  EXPECT_EQ(run_suite(spec_, options(), log), 0);
  const auto original = csv_contents();

  // Same output dir, different expansion (an extra grid value): the old
  // CSVs are stale for the new configuration, so resume must refuse rather
  // than mix them in.
  const auto changed = parse(R"({"name": "tiny", "defaults": {"reps": 1},
      "cells": [{"bench": "scenario",
                 "grid": {"scenario": ["batch"], "horizon": [512], "n": [16],
                          "jam": [0.0, 0.5, 0.9]},
                 "seeds": [3]}]})");
  ASSERT_TRUE(changed.ok()) << changed.error;
  std::ostringstream log2;
  EXPECT_EQ(run_suite(changed.spec, options(), log2), 1);
  EXPECT_NE(log2.str().find("refusing to resume"), std::string::npos) << log2.str();
  EXPECT_EQ(csv_contents(), original);  // nothing ran, nothing overwritten

  // A --quick flip over the same expansion is just as stale.
  SuiteRunOptions quick_opts = options();
  quick_opts.quick = true;
  std::ostringstream log3;
  EXPECT_EQ(run_suite(spec_, quick_opts, log3), 1);
  EXPECT_NE(log3.str().find("--quick mode differs"), std::string::npos) << log3.str();

  // --force reruns every cell, so it may proceed over the stale outputs.
  SuiteRunOptions force_opts = options();
  force_opts.force = true;
  std::ostringstream log4;
  EXPECT_EQ(run_suite(changed.spec, force_opts, log4), 0);
  EXPECT_EQ(csv_contents().size(), 3u);
}

TEST_F(SuiteRunTest, UnreadableManifestBlocksResumeUntilForced) {
  std::ostringstream log;
  EXPECT_EQ(run_suite(spec_, options(), log), 0);
  const auto original = csv_contents();
  ASSERT_EQ(original.size(), 2u);

  // A kill mid-write leaves a prefix of the manifest, so the checksums it
  // recorded are lost. A CSV altered since then must not resume as "cached"
  // behind it: the unreadable manifest blocks the run instead.
  fs::resize_file(dir_ / "manifest.json", 200);
  const std::string victim = original.begin()->first;
  {
    std::ofstream out(dir_ / victim, std::ios::app);
    out << "tampered\n";
  }
  std::ostringstream log2;
  EXPECT_EQ(run_suite(spec_, options(), log2), 1);
  EXPECT_NE(log2.str().find("unreadable run manifest"), std::string::npos) << log2.str();
  EXPECT_NE(log2.str().find("manifest.json: line "), std::string::npos) << log2.str();
  EXPECT_NE(log2.str().find("refusing to resume"), std::string::npos) << log2.str();
  EXPECT_EQ(log2.str().find("cached"), std::string::npos) << log2.str();
  EXPECT_EQ(csv_contents().at(victim), original.at(victim) + "tampered\n");

  // --force reruns every cell over it and restores the true bytes.
  SuiteRunOptions force_opts = options();
  force_opts.force = true;
  std::ostringstream log3;
  EXPECT_EQ(run_suite(spec_, force_opts, log3), 0) << log3.str();
  EXPECT_EQ(csv_contents(), original);

  // The tmp file a killed atomic write leaves behind is no manifest: it is
  // named after the full manifest name, so resume ignores it.
  {
    std::ofstream out(dir_ / "manifest.json.tmp-1-deadbeef");
    out << "{\"suite\": tru";
  }
  std::ostringstream log4;
  EXPECT_EQ(run_suite(spec_, options(), log4), 0);
  EXPECT_NE(log4.str().find("0 ran, 2 cached"), std::string::npos) << log4.str();
}

TEST_F(SuiteRunTest, FailedCellIsIsolatedAndRemainingCellsStillRun) {
  // "junk" passes name validation (any scalar is legal manifest text) but
  // aborts the bench's Cli::get_int at run time. The forked-child isolation
  // must turn that into one "failed" cell, not a dead suite process.
  const auto loaded = parse(R"({"name": "tiny", "defaults": {"reps": 1},
      "cells": [
        {"bench": "scenario", "grid": {"horizon": ["junk"], "n": [16]}},
        {"bench": "scenario", "grid": {"horizon": [512], "n": [16]}}]})");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  std::ostringstream log;
  EXPECT_EQ(run_suite(loaded.spec, options(), log), 1);
  EXPECT_EQ(csv_contents().size(), 1u);  // the good cell's CSV exists
  EXPECT_NE(log.str().find("failed"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("1 ran, 0 cached, 0 cache hits, 1 failed"), std::string::npos)
      << log.str();
  const auto manifest = JsonValue::parse_file((dir_ / "manifest.json").string());
  ASSERT_TRUE(manifest.ok()) << manifest.error;
  EXPECT_EQ(manifest.value->find("cells")->items()[0]->find("status")->as_string(), "failed");
  EXPECT_EQ(manifest.value->find("cells")->items()[1]->find("status")->as_string(), "ok");
}

TEST_F(SuiteRunTest, DryRunExecutesNothing) {
  SuiteRunOptions opts = options();
  opts.dry_run = true;
  std::ostringstream log;
  EXPECT_EQ(run_suite(spec_, opts, log), 0);
  EXPECT_FALSE(fs::exists(dir_));
  EXPECT_NE(log.str().find("dry run"), std::string::npos);
}

}  // namespace
}  // namespace cr

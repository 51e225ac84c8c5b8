// Tests for the run-manifest format (src/dist/run_manifest.hpp) and the
// shared artifact helpers under it (json_quote, write_file_atomic, hex16,
// fnv1a_hex16, utc_now, unique_suffix):
//
//   * to_json() is pinned to literal manifests the suite, worker and merge
//     writers produced before they shared one emitter (timestamps fixed);
//   * seeded random manifests round-trip exactly through parse(), seeds
//     above 2^53 and escaped control bytes included;
//   * a seeded mutation fuzz: every truncated, bit-flipped or kind-swapped
//     manifest either parses or returns a named diagnostic, and never reaches
//     a CR_CHECK in JsonValue's accessors;
//   * `cr verify` refuses a present but malformed manifest (exit 2).
#include "dist/run_manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/snapshot.hpp"
#include "verify/verify.hpp"

namespace cr {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("cr_test_run_manifest_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::string bytes;
  EXPECT_TRUE(read_file(path.string(), &bytes)) << path;
  return bytes;
}

// ---------------------------------------------------------------------------
// Pinned bytes. Each literal is a manifest the pre-RunManifest writers
// emitted (suite.cpp, worker.cpp, merge.cpp), captured verbatim except for
// the timestamps and worker tokens, which are fixed here.

const char* const kDescription =
    "quote \" backslash \\ tab \t newline \n ctl \x01 utf8 \xC3\xA9 end";
const char* const kCellOk = "scenario__scenario-batch__horizon-512__n-16__jam-0.0__seed-3";
const char* const kCellFailed = "scenario__horizon-junk__n-16__seed-default";

RunManifest pinned_suite_run() {
  RunManifest m;
  m.suite = "pin \"q\" \\ name";
  m.description = kDescription;
  m.git_sha = "unknown";
  m.config_hash = "1583240eeab45a87";
  m.shard = "1/1";
  m.quick = false;
  m.started_utc = "2026-01-02T03:04:05Z";
  m.finished_utc = "2026-01-02T03:04:05Z";
  m.wall_seconds = 0.002;
  m.cells.push_back({kCellOk, "scenario", 3, "ok", 0.001, "ff7f9740c44a0f89"});
  m.cells.push_back({kCellFailed, "scenario", std::nullopt, "failed", 0.001, ""});
  return m;
}

const char* const kPinnedSuiteRun = R"({
  "suite": "pin \"q\" \\ name",
  "description": "quote \" backslash \\ tab \t newline \n ctl \u0001 utf8 )"
                                    "\xC3\xA9"
                                    R"( end",
  "git_sha": "unknown",
  "config_hash": "1583240eeab45a87",
  "shard": "1/1",
  "quick": false,
  "started_utc": "2026-01-02T03:04:05Z",
  "finished_utc": "2026-01-02T03:04:05Z",
  "wall_seconds": 0.002,
  "cells": [
    {"id": "scenario__scenario-batch__horizon-512__n-16__jam-0.0__seed-3", "bench": "scenario", "seed": 3, "status": "ok", "seconds": 0.001, "csv_fnv": "ff7f9740c44a0f89"},
    {"id": "scenario__horizon-junk__n-16__seed-default", "bench": "scenario", "seed": null, "status": "failed", "seconds": 0.001, "csv_fnv": null}
  ]
}
)";

const char* const kPinnedWorker = R"({
  "suite": "pin \"q\" \\ name",
  "description": "quote \" backslash \\ tab \t newline \n ctl \u0001 utf8 )"
                                  "\xC3\xA9"
                                  R"( end",
  "worker": "host-4242-1a2b3c4d",
  "git_sha": "unknown",
  "config_hash": "1583240eeab45a87",
  "shard": "1/1",
  "quick": false,
  "started_utc": "2026-01-02T03:04:05Z",
  "finished_utc": "2026-01-02T03:04:05Z",
  "wall_seconds": 0.002,
  "cells": [
    {"id": "scenario__scenario-batch__horizon-512__n-16__jam-0.0__seed-3", "bench": "scenario", "seed": 3, "status": "ok", "seconds": 0.001, "csv_fnv": "ff7f9740c44a0f89"},
    {"id": "scenario__horizon-junk__n-16__seed-default", "bench": "scenario", "seed": null, "status": "failed", "seconds": 0.001, "csv_fnv": null}
  ]
}
)";

const char* const kPinnedMerged = R"({
  "suite": "dist_smoke",
  "description": "Two fast deterministic cells for the distributed-runner end-to-end test (tests/golden/dist_smoke.cmake): cold/warm CellCache round-trip, cooperative `cr suite work` workers and `cr suite merge` through the real cr binary. Deliberately tiny so the whole flow runs in seconds under sanitizers.",
  "git_sha": "unknown",
  "config_hash": "8547a0b852300088",
  "shard": "1/1",
  "quick": true,
  "started_utc": "2026-01-02T03:04:05Z",
  "finished_utc": "2026-01-02T03:04:05Z",
  "wall_seconds": 0.003,
  "merged_from": ["manifest.work-host-101-0badf00d.json", "manifest.work-host-102-5eedc0de.json"],
  "cells": [
    {"id": "scenario__scenario-batch__horizon-512__n-16__jam-0.0__seed-3", "bench": "scenario", "seed": 3, "status": "ok", "seconds": 0.001, "csv_fnv": "ff7f9740c44a0f89"},
    {"id": "scenario__scenario-batch__horizon-512__n-16__jam-0.5__seed-3", "bench": "scenario", "seed": 3, "status": "ok", "seconds": 0.001, "csv_fnv": "6059ffd749020226"}
  ]
}
)";

TEST(RunManifestBytes, SuiteRunManifestMatchesPinnedLayout) {
  EXPECT_EQ(pinned_suite_run().to_json(), kPinnedSuiteRun);
  const ManifestParse parsed = RunManifest::parse(kPinnedSuiteRun);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.manifest.description, kDescription);
  EXPECT_FALSE(parsed.manifest.cells[1].seed.has_value());
  EXPECT_TRUE(parsed.manifest.cells[1].csv_fnv.empty());
  EXPECT_EQ(parsed.manifest.to_json(), kPinnedSuiteRun);
}

TEST(RunManifestBytes, WorkerManifestMatchesPinnedLayout) {
  RunManifest m = pinned_suite_run();
  m.worker = "host-4242-1a2b3c4d";
  EXPECT_EQ(m.to_json(), kPinnedWorker);
  const ManifestParse parsed = RunManifest::parse(kPinnedWorker);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.manifest.worker, m.worker);
}

TEST(RunManifestBytes, MergedManifestMatchesPinnedLayout) {
  RunManifest m;
  m.suite = "dist_smoke";
  m.description =
      "Two fast deterministic cells for the distributed-runner end-to-end test "
      "(tests/golden/dist_smoke.cmake): cold/warm CellCache round-trip, cooperative `cr "
      "suite work` workers and `cr suite merge` through the real cr binary. Deliberately "
      "tiny so the whole flow runs in seconds under sanitizers.";
  m.git_sha = "unknown";
  m.config_hash = "8547a0b852300088";
  m.quick = true;
  m.started_utc = "2026-01-02T03:04:05Z";
  m.finished_utc = "2026-01-02T03:04:05Z";
  m.wall_seconds = 0.003;
  m.merged_from = std::vector<std::string>{"manifest.work-host-101-0badf00d.json",
                                           "manifest.work-host-102-5eedc0de.json"};
  m.cells.push_back({kCellOk, "scenario", 3, "ok", 0.001, "ff7f9740c44a0f89"});
  m.cells.push_back({"scenario__scenario-batch__horizon-512__n-16__jam-0.5__seed-3", "scenario",
                     3, "ok", 0.001, "6059ffd749020226"});
  EXPECT_EQ(m.to_json(), kPinnedMerged);
  const ManifestParse parsed = RunManifest::parse(kPinnedMerged);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.manifest.merged_from, m.merged_from);
}

// ---------------------------------------------------------------------------
// Round trip

std::string random_text(std::mt19937_64& gen) {
  // Mostly printable, with every byte the escaper treats specially.
  static const std::string special = std::string("\"\\/\n\r\t\b\f\x01\x1f\x7f", 11) +
                                     std::string(1, '\0') + "\xC3\xA9\xFF";
  std::string out;
  for (std::uint64_t n = gen() % 12; n > 0; --n) {
    if (gen() % 4 == 0)
      out += special[gen() % special.size()];
    else
      out += static_cast<char>(' ' + gen() % 95);
  }
  return out;
}

RunManifest random_manifest(std::mt19937_64& gen) {
  const auto maybe = [&gen] { return gen() % 2 == 0; };
  RunManifest m;
  m.suite = random_text(gen);
  m.description = random_text(gen);
  if (maybe()) m.worker = random_text(gen);
  m.git_sha = random_text(gen);
  m.config_hash = hex16(gen());
  m.shard = std::to_string(1 + gen() % 4) + "/" + std::to_string(4 + gen() % 4);
  m.quick = maybe();
  m.started_utc = random_text(gen);
  m.finished_utc = random_text(gen);
  m.wall_seconds = static_cast<double>(gen() % 100000000) / 1000.0;
  if (maybe()) {
    m.merged_from.emplace();
    for (std::uint64_t n = gen() % 4; n > 0; --n) m.merged_from->push_back(random_text(gen));
  }
  static const char* const statuses[] = {"pending", "ok",     "hit",   "cached",
                                         "peer",    "failed", "shard", "planned"};
  for (std::uint64_t n = gen() % 6; n > 0; --n) {
    RunManifest::Cell cell;
    cell.id = random_text(gen);
    cell.bench = random_text(gen);
    switch (gen() % 4) {
      case 0: break;  // null seed
      case 1: cell.seed = gen() % 100000; break;
      case 2: cell.seed = (std::uint64_t{1} << 53) + 1 + gen() % 1000; break;  // not a double
      default: cell.seed = ~std::uint64_t{0} - gen() % 3; break;  // up to 2^64 - 1
    }
    cell.status = statuses[gen() % 8];
    cell.seconds = static_cast<double>(gen() % 10000000) / 1000.0;
    if (maybe()) cell.csv_fnv = hex16(gen());
    m.cells.push_back(std::move(cell));
  }
  return m;
}

TEST(RunManifestRoundTrip, SeededRandomManifestsRoundTripExactly) {
  std::mt19937_64 gen(0x5EED1234ull);
  for (int trial = 0; trial < 300; ++trial) {
    const RunManifest m = random_manifest(gen);
    const std::string text = m.to_json();
    const ManifestParse parsed = RunManifest::parse(text);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial << ": " << parsed.error << "\n" << text;
    EXPECT_EQ(parsed.manifest.to_json(), text) << "trial " << trial;
    // Field by field too: a symmetric bug in both directions would slip
    // past the text comparison.
    const RunManifest& back = parsed.manifest;
    EXPECT_EQ(back.description, m.description);
    EXPECT_EQ(back.worker, m.worker);
    EXPECT_EQ(back.merged_from, m.merged_from);
    ASSERT_EQ(back.cells.size(), m.cells.size());
    for (std::size_t i = 0; i < m.cells.size(); ++i) {
      EXPECT_EQ(back.cells[i].id, m.cells[i].id);
      EXPECT_EQ(back.cells[i].seed, m.cells[i].seed) << "trial " << trial << " cell " << i;
      EXPECT_EQ(back.cells[i].csv_fnv, m.cells[i].csv_fnv);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation fuzz

/// `text` with the first occurrence of `from` replaced by `to`.
std::string swap(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(RunManifestFuzz, KindSwapsAreNamedDiagnostics) {
  const std::string base = kPinnedMerged;
  const std::string cells_begin = "\"cells\": [";
  const std::string whole_cells =
      base.substr(base.find(cells_begin), base.rfind(']') + 1 - base.find(cells_begin));
  struct Case {
    std::string text;
    std::string names;  ///< the diagnostic must mention this
  };
  const std::vector<Case> cases = {
      {swap(base, "\"quick\": true", "\"quick\": \"yes\""), "quick"},
      {swap(base, "\"quick\": true", "\"quick\": 1"), "quick"},
      {swap(base, "  \"quick\": true,\n", ""), "quick"},
      {swap(base, whole_cells, "\"cells\": {}"), "cells"},
      {swap(base, whole_cells, "\"cells\": null"), "cells"},
      {swap(base, whole_cells, "\"cells\": [1]"), "cells[0]"},
      {swap(base, "\"id\": \"scenario", "\"id\": 7, \"x\": \"scenario"), "id"},
      {swap(base, "\"status\": \"ok\"", "\"status\": null"), "status"},
      {swap(base, "\"seed\": 3", "\"seed\": -3"), "seed"},
      {swap(base, "\"seed\": 3", "\"seed\": 3.5"), "seed"},
      {swap(base, "\"seed\": 3", "\"seed\": 3e0"), "seed"},
      {swap(base, "\"seed\": 3", "\"seed\": \"3\""), "seed"},
      {swap(base, "\"seed\": 3", "\"seed\": 18446744073709551616"), "seed"},
      {swap(base, "\"suite\": \"dist_smoke\"", "\"suite\": true"), "suite"},
      {swap(base, "\"config_hash\": \"8547a0b852300088\"", "\"config_hash\": 8547"),
       "config_hash"},
      {swap(base, "\"wall_seconds\": 0.003", "\"wall_seconds\": \"0.003\""), "wall_seconds"},
      {swap(base, "\"merged_from\": [\"manifest", "\"merged_from\": [1, \"manifest"),
       "merged_from"},
      {swap(base, "\"csv_fnv\": \"ff7f", "\"csv_fnv\": 5, \"x\": \"ff7f"), "csv_fnv"},
      {"[]", "object"},
      {"\"manifest\"", "object"},
      {"", "line"},
      {base.substr(0, 200), "line"},
  };
  for (const Case& c : cases) {
    const ManifestParse parsed = RunManifest::parse(c.text);
    EXPECT_FALSE(parsed.ok()) << c.text;
    EXPECT_NE(parsed.error.find(c.names), std::string::npos)
        << "diagnostic \"" << parsed.error << "\" does not name " << c.names;
  }
}

TEST(RunManifestFuzz, RandomMutantsParseOrReturnADiagnostic) {
  std::mt19937_64 gen(0xF022ull);
  const std::vector<std::string> seeds = {kPinnedSuiteRun, kPinnedWorker, kPinnedMerged};
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = seeds[gen() % seeds.size()];
    switch (gen() % 3) {
      case 0:  // truncation
        text.resize(gen() % text.size());
        break;
      case 1:  // byte flips
        for (std::uint64_t n = 1 + gen() % 3; n > 0; --n)
          text[gen() % text.size()] = static_cast<char>(gen() % 256);
        break;
      default:  // a structural byte dropped or duplicated
        static const std::string structural = "{}[]:,\"";
        for (std::size_t at = gen() % text.size(); at < text.size(); ++at) {
          if (structural.find(text[at]) == std::string::npos) continue;
          if (gen() % 2 == 0)
            text.erase(at, 1);
          else
            text.insert(at, 1, text[at]);
          break;
        }
    }
    // Reaching a CR_CHECK would abort the whole binary: surviving the call
    // is half the assertion.
    const ManifestParse parsed = RunManifest::parse(text);
    if (!parsed.ok()) {
      ++rejected;
      EXPECT_FALSE(parsed.error.empty());
      continue;
    }
    // An accepted mutant is a valid manifest: its emission is a fixed point.
    const std::string again = parsed.manifest.to_json();
    const ManifestParse reparsed = RunManifest::parse(again);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    EXPECT_EQ(reparsed.manifest.to_json(), again);
  }
  EXPECT_GT(rejected, 1000);  // the mutations really do break most inputs
}

TEST(RunManifestLoad, DiagnosticsNameTheFile) {
  const fs::path dir = fresh_dir("load");
  const std::string path = (dir / "manifest.json").string();
  std::string error;
  ASSERT_TRUE(write_file_atomic(path, std::string(kPinnedSuiteRun).substr(0, 200), &error))
      << error;
  const ManifestParse truncated = RunManifest::load(path);
  EXPECT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error.rfind(path + ": line ", 0), 0u) << truncated.error;
  const ManifestParse missing = RunManifest::load((dir / "absent.json").string());
  EXPECT_NE(missing.error.find("absent.json: cannot open"), std::string::npos) << missing.error;
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// `cr verify` on a malformed manifest

stat::CheckResult value_is_seven(verify::ClaimContext& ctx) {
  const auto values = ctx.column(ctx.cells().front(), "value");
  return stat::in_range(values.front().value, 7.0, 7.0);
}

TEST(RunManifestVerify, MalformedManifestIsASetupError) {
  const fs::path dir = fresh_dir("verify");
  std::string error;
  ASSERT_TRUE(write_file_atomic((dir / "fixture_cell.csv").string(), "value\n7\n", &error));
  verify::ClaimSpec claim;
  claim.id = "fixture-pass";
  claim.title = claim.statement = "fixture";
  claim.bound = "value == 7";
  claim.cells = {"fixture_cell"};
  claim.columns = {"value"};
  claim.check = &value_is_seven;
  const std::vector<verify::ClaimSpec> claims = {claim};
  verify::VerifyOptions opts;
  opts.out_dir = dir.string();
  opts.claims = &claims;

  const auto verify_with = [&](const std::string& manifest, std::string* out) {
    EXPECT_TRUE(write_file_atomic((dir / "manifest.json").string(), manifest, &error));
    std::ostringstream os;
    const int rc = verify::run_verify(opts, os);
    *out = os.str();
    return rc;
  };
  std::string out;
  // A missing "quick" used to read as false; now the run refuses to guess.
  EXPECT_EQ(verify_with(R"({"suite": "s", "config_hash": "c", "cells": []})", &out), 2);
  EXPECT_NE(out.find("\"quick\""), std::string::npos) << out;
  EXPECT_NE(out.find("manifest.json"), std::string::npos) << out;
  // A truncated manifest: the JSON reader's diagnostic comes through.
  EXPECT_EQ(verify_with(std::string(kPinnedSuiteRun).substr(0, 200), &out), 2);
  EXPECT_NE(out.find("line "), std::string::npos) << out;
  // A well-formed one verifies.
  EXPECT_EQ(verify_with(R"({"suite": "s", "config_hash": "c", "quick": false, "cells": []})",
                        &out),
            0)
      << out;
  // And a missing one stays a warning.
  fs::remove(dir / "manifest.json");
  std::ostringstream os;
  EXPECT_EQ(verify::run_verify(opts, os), 0);
  EXPECT_NE(os.str().find("warning"), std::string::npos) << os.str();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The shared artifact helpers

TEST(ArtifactIo, JsonQuoteEscapesAndEveryByteRoundTrips) {
  EXPECT_EQ(json_quote(std::string("a\"b\\c\nd\re\tf\x01g\x7f\xC3\xA9", 16)),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\x7f\xC3\xA9\"");
  for (int byte = 0; byte < 256; ++byte) {
    std::string text = "<";
    text += static_cast<char>(byte);
    text += '>';
    const JsonParseResult parsed = JsonValue::parse(json_quote(text));
    ASSERT_TRUE(parsed.ok()) << byte << ": " << parsed.error;
    EXPECT_EQ(parsed.value->as_string(), text) << byte;
  }
}

TEST(ArtifactIo, WriteFileAtomicReplacesOrReportsAndKeepsTheTarget) {
  const fs::path dir = fresh_dir("atomic");
  const std::string path = (dir / "out.json").string();
  std::string error;
  ASSERT_TRUE(write_file_atomic(path, "first, and longer\n", &error)) << error;
  ASSERT_TRUE(write_file_atomic(path, "second\n", &error)) << error;
  EXPECT_EQ(slurp(path), "second\n");

  // Missing directory: nothing is created, the reason is named.
  EXPECT_FALSE(write_file_atomic((dir / "no" / "x.json").string(), "x", &error));
  EXPECT_NE(error.find("No such file or directory"), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(dir / "no"));

  // Something that cannot be replaced stands at the path: the rename fails,
  // it survives untouched, and the tmp file is cleaned up.
  fs::create_directories(dir / "taken" / "inside");
  EXPECT_FALSE(write_file_atomic((dir / "taken").string(), "x", &error));
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  EXPECT_TRUE(fs::is_directory(dir / "taken" / "inside"));
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().string().find(".tmp-"), std::string::npos) << entry.path();
  }
  EXPECT_EQ(files, 2u);  // out.json and taken/
  fs::remove_all(dir);
}

TEST(ArtifactIo, StampsSuffixesAndChecksumsHaveTheirShapes) {
  EXPECT_TRUE(std::regex_match(utc_now(), std::regex(R"(\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ)")))
      << utc_now();
  const std::string suffix = unique_suffix();
  EXPECT_TRUE(std::regex_match(suffix, std::regex(std::to_string(::getpid()) + "-[0-9a-f]{8}")))
      << suffix;
  EXPECT_NE(unique_suffix(), unique_suffix());
  EXPECT_EQ(hex16(1), "0000000000000001");
  EXPECT_EQ(fnv1a_hex16(""), "cbf29ce484222325");  // the FNV-1a 64 offset basis
  EXPECT_EQ(fnv1a_hex16("a"), "af63dc4c8601ec8c");
}

}  // namespace
}  // namespace cr

// The verify subsystem's plumbing: the shared CSV reader (round-trip
// against CsvWriter), ClaimContext evidence diagnostics (missing file /
// column / non-numeric cell each produce a distinct message naming the
// claim and the file), the verify_report.json schema (round-trips through
// the in-tree JSON parser), and the exit-code contract (a failing claim
// makes `cr verify` exit nonzero with a "fail" verdict in the report).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/csv_read.hpp"
#include "common/json.hpp"
#include "verify/claim_registry.hpp"
#include "verify/verify.hpp"

namespace cr {
namespace {

namespace fs = std::filesystem;
using verify::ClaimContext;
using verify::ClaimOutcome;
using verify::ClaimSpec;
using verify::EvidenceError;

// ---------------------------------------------------------------------------
// csv_read: the reader half of the CsvWriter contract.

TEST(CsvRead, RoundTripsRowNumericBitExactly) {
  // row_numeric emits std::to_chars shortest-round-trip text; the reader
  // must re-parse every cell to the bit-identical double.
  const std::vector<double> values = {1234567.891011, 1e6 + 0.125, 9876543210.123,
                                      1.0 / 3.0, -2.5e-7, 0.0};
  std::ostringstream os;
  CsvWriter writer(os, {"a", "b", "c", "d", "e", "f"});
  writer.row_numeric(values);
  std::string error;
  const auto table = read_csv(os.str(), &error);
  ASSERT_TRUE(table) << error;
  ASSERT_EQ(table->rows.size(), 1u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto cell = parse_numeric_cell(table->rows[0][i], &error);
    ASSERT_TRUE(cell) << error;
    EXPECT_EQ(cell->value, values[i]) << "cell text: " << table->rows[0][i];
    EXPECT_FALSE(cell->censored);
    EXPECT_FALSE(cell->spread.has_value());
  }
}

TEST(CsvRead, RoundTripsRfc4180Escapes) {
  const std::vector<std::string> specials = {"plain", "a,b", "say \"hi\"", "line\nbreak"};
  std::ostringstream os;
  CsvWriter writer(os, {"w", "x", "y", "z"});
  writer.row(specials);
  std::string error;
  const auto table = read_csv(os.str(), &error);
  ASSERT_TRUE(table) << error;
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0], specials);
}

TEST(CsvRead, HeaderAccessorsAndCrlf) {
  std::string error;
  const auto table = read_csv("n,rate\r\n4,0.5\r\n8,0.25\r\n", &error);
  ASSERT_TRUE(table) << error;
  EXPECT_EQ(table->column("rate"), 1u);
  EXPECT_FALSE(table->column("missing").has_value());
  ASSERT_TRUE(table->cell(1, "rate").has_value());
  EXPECT_EQ(*table->cell(1, "rate"), "0.25");
  EXPECT_FALSE(table->cell(2, "rate").has_value());  // row out of range
}

TEST(CsvRead, DiagnosesMalformedInput) {
  std::string error;
  EXPECT_FALSE(read_csv("", &error));
  EXPECT_NE(error.find("empty CSV"), std::string::npos);
  EXPECT_FALSE(read_csv("a,b\n\"unterminated\n", &error));
  EXPECT_NE(error.find("unterminated"), std::string::npos);
  EXPECT_FALSE(read_csv("a,b\n\"x\"junk,2\n", &error));
  EXPECT_NE(error.find("after closing quote"), std::string::npos);
  EXPECT_FALSE(read_csv("a,b\n1,2,3\n", &error));
  EXPECT_NE(error.find("3 fields"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(CsvRead, ParsesBenchNumericCellForms) {
  std::string error;
  // Plain double.
  auto cell = parse_numeric_cell("0.25", &error);
  ASSERT_TRUE(cell);
  EXPECT_EQ(cell->value, 0.25);
  // mean±sd summary cells (UTF-8 ±, as the scenario/robustness CSVs write).
  cell = parse_numeric_cell("0.512\xC2\xB1"
                            "0.011",
                            &error);
  ASSERT_TRUE(cell);
  EXPECT_EQ(cell->value, 0.512);
  ASSERT_TRUE(cell->spread.has_value());
  EXPECT_EQ(*cell->spread, 0.011);
  // Censored horizon-capped medians (">20.0" in the cd_contrast/baselines
  // tables): the true value is at least 20.
  cell = parse_numeric_cell(">20.0", &error);
  ASSERT_TRUE(cell);
  EXPECT_TRUE(cell->censored);
  EXPECT_EQ(cell->value, 20.0);
  // Errors, each naming the offending text.
  EXPECT_FALSE(parse_numeric_cell("", &error));
  EXPECT_NE(error.find("not numeric"), std::string::npos);
  EXPECT_FALSE(parse_numeric_cell("n/a", &error));
  EXPECT_NE(error.find("n/a"), std::string::npos);
  EXPECT_FALSE(parse_numeric_cell("1.5\xC2\xB1x", &error));
  EXPECT_NE(error.find("spread"), std::string::npos);
}

TEST(CsvRead, RejectsNonFiniteCellsAndADanglingSpread) {
  std::string error;
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", ">inf",
                           "nan\xC2\xB1" "0.1"}) {
    EXPECT_FALSE(parse_numeric_cell(text, &error)) << text;
    EXPECT_NE(error.find("not numeric"), std::string::npos) << text;
  }
  for (const char* text : {"1.0\xC2\xB1", ">1.0\xC2\xB1", "1.0\xC2\xB1nan",
                           "1.0\xC2\xB1inf"}) {
    EXPECT_FALSE(parse_numeric_cell(text, &error)) << text;
    EXPECT_NE(error.find("bad \xC2\xB1 spread"), std::string::npos) << text;
  }
}

TEST(CsvRead, MutatedQuickCsvsFailNamingALineOrRoundTrip) {
  // Shaped like the quick suite's CSVs: mean±sd and censored cells, a
  // quoted field with a comma and doubled quotes, a CRLF row ending.
  const std::string seed_text =
      "scenario,engine,horizon,successes,norm_succ,median\n"
      "batch,fast_cjz,16384,256\xC2\xB1" "0,1.25\xC2\xB1" "0.011,>20.0\n"
      "\"bursty, n=32\",generic,65536,1234.5,0.5,\"say \"\"hi\"\"\"\n"
      "worst_case,fast_cjz,131072,3.5e-07,-2,18\r\n";
  const std::string structural = ",\"\n\r";
  std::mt19937_64 gen(0xC5Full);
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = seed_text;
    for (std::uint64_t edits = 1 + gen() % 3; edits > 0 && !text.empty(); --edits) {
      const std::size_t at = gen() % text.size();
      switch (gen() % 4) {
        case 0:
          text.resize(at);
          break;
        case 1:
          text.erase(at, 1);
          break;
        case 2:
          text.insert(at, 1, structural[gen() % structural.size()]);
          break;
        default:
          text[at] = static_cast<char>(gen() % 256);
      }
    }
    std::string error;
    const auto table = read_csv(text, &error);
    if (!table) {
      ++rejected;
      EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
      EXPECT_GE(std::atoi(error.c_str() + 5), 1) << error;
      continue;
    }
    std::ostringstream os;
    CsvWriter writer(os, table->header);
    for (const auto& row : table->rows) writer.row(row);
    const auto again = read_csv(os.str(), &error);
    ASSERT_TRUE(again) << error << "\nfrom: " << text;
    EXPECT_EQ(again->header, table->header) << text;
    EXPECT_EQ(again->rows, table->rows) << text;
  }
  EXPECT_GT(rejected, 500);  // the mutations really do break many inputs
}

// ---------------------------------------------------------------------------
// ClaimContext / evaluate_claims: evidence diagnostics and verdicts.

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cr_test_verify_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << content;
  }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(VerifyTest, ContextDiagnosticsNameFileColumnAndRow) {
  write_file("cell.csv", "n,rate\n4,0.5\n8,oops\n");
  ClaimContext ctx(dir(), /*quick=*/false);
  // Missing file.
  EXPECT_THROW(
      {
        try {
          ctx.table("nope");
        } catch (const EvidenceError& error) {
          EXPECT_NE(std::string(error.what()).find("nope"), std::string::npos);
          EXPECT_NE(std::string(error.what()).find("cannot open"), std::string::npos);
          throw;
        }
      },
      EvidenceError);
  // Missing column.
  EXPECT_THROW(
      {
        try {
          ctx.column("cell", "ghost");
        } catch (const EvidenceError& error) {
          const std::string what = error.what();
          EXPECT_NE(what.find("cell.csv"), std::string::npos);
          EXPECT_NE(what.find("ghost"), std::string::npos);
          throw;
        }
      },
      EvidenceError);
  // Non-numeric cell, named by row and column.
  EXPECT_THROW(
      {
        try {
          ctx.column("cell", "rate");
        } catch (const EvidenceError& error) {
          const std::string what = error.what();
          EXPECT_NE(what.find("row 2"), std::string::npos);
          EXPECT_NE(what.find("oops"), std::string::npos);
          throw;
        }
      },
      EvidenceError);
  // No matching key row.
  EXPECT_THROW(ctx.column_where("cell", "rate", "n", "99"), EvidenceError);
  // single_where with several matches.
  write_file("dup.csv", "k,v\na,1\na,2\n");
  EXPECT_THROW(ctx.single_where("dup", "v", "k", "a"), EvidenceError);
}

/// Fixture claims against a one-column CSV: `value` is 7 in the evidence.
ClaimSpec fixture_claim(const char* id, stat::CheckResult (*check)(ClaimContext&)) {
  ClaimSpec spec;
  spec.id = id;
  spec.title = "fixture";
  spec.statement = "fixture";
  spec.bound = "value == 7";
  spec.cells = {"fixture_cell"};
  spec.columns = {"value"};
  spec.check = check;
  return spec;
}

stat::CheckResult passing_check(ClaimContext& ctx) {
  const auto values = ctx.column(ctx.cells().front(), "value");
  ctx.observe("value", values.front().value);
  return stat::in_range(values.front().value, 7.0, 7.0);
}

stat::CheckResult failing_check(ClaimContext& ctx) {
  const auto values = ctx.column(ctx.cells().front(), "value");
  ctx.observe("value", values.front().value);
  return stat::in_range(values.front().value, 100.0, 200.0);
}

TEST_F(VerifyTest, VerdictsAndErrorNamesTheClaim) {
  write_file("fixture_cell.csv", "value\n7\n");
  std::vector<ClaimSpec> claims = {fixture_claim("fixture-pass", &passing_check),
                                   fixture_claim("fixture-fail", &failing_check),
                                   fixture_claim("fixture-error", &passing_check)};
  claims[2].cells = {"missing_cell"};
  const std::vector<ClaimOutcome> outcomes =
      verify::evaluate_claims(dir(), /*quick=*/false, &claims);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].verdict, "pass");
  ASSERT_FALSE(outcomes[0].observed.empty());
  EXPECT_EQ(outcomes[0].observed[0].second, "7");
  EXPECT_EQ(outcomes[1].verdict, "fail");
  EXPECT_NE(outcomes[1].detail.find("outside"), std::string::npos);
  EXPECT_EQ(outcomes[2].verdict, "error");
  // The error verdict names the claim AND the missing file.
  EXPECT_NE(outcomes[2].detail.find("fixture-error"), std::string::npos);
  EXPECT_NE(outcomes[2].detail.find("missing_cell"), std::string::npos);
}

// scenario-iid-jam-rate judges the jam rate per cell and `served` on the
// mean over its cells: one quick cell's chance dip passes, a low mean fails.
TEST_F(VerifyTest, JamRateClaimJudgesServedOnTheCellMean) {
  const ClaimSpec* spec = verify::ClaimRegistry::instance().find("scenario-iid-jam-rate");
  ASSERT_NE(spec, nullptr);
  const std::vector<ClaimSpec> claims = {*spec};
  const std::vector<std::string>& cells = spec->evidence_cells(/*quick=*/true);
  ASSERT_EQ(cells.size(), 2u);
  const auto verdict = [&](const char* jammed0, const char* served0, const char* served1) {
    write_file(cells[0] + ".csv", std::string("jammed,slots,served\n") + jammed0 + ",4096," +
                                      served0 + "\n");
    write_file(cells[1] + ".csv", std::string("jammed,slots,served\n1040,4096,") + served1 + "\n");
    const std::vector<ClaimOutcome> outcomes = verify::evaluate_claims(dir(), true, &claims);
    return outcomes.at(0).verdict + ": " + outcomes.at(0).detail;
  };
  EXPECT_EQ(verdict("1042", "0.999", "0.985").rfind("pass", 0), 0u);
  const std::string low_mean = verdict("1042", "0.989", "0.987");
  EXPECT_EQ(low_mean.rfind("fail", 0), 0u) << low_mean;
  EXPECT_NE(low_mean.find("mean served"), std::string::npos) << low_mean;
  const std::string off_rate = verdict("1300", "1.0", "1.0");
  EXPECT_EQ(off_rate.rfind("fail", 0), 0u) << off_rate;
  EXPECT_NE(off_rate.find(cells[0]), std::string::npos) << off_rate;
}

TEST_F(VerifyTest, RunVerifyExitCodesAndReport) {
  write_file("fixture_cell.csv", "value\n7\n");
  write_file("manifest.json",
             R"({"schema": "cr-run-manifest/1", "suite": "fixture", "config_hash": "cafe1234",
                 "quick": false, "cells": []})");
  // All-pass: exit 0.
  std::vector<ClaimSpec> passing = {fixture_claim("fixture-pass", &passing_check)};
  verify::VerifyOptions opts;
  opts.out_dir = dir();
  opts.claims = &passing;
  std::ostringstream out;
  EXPECT_EQ(verify::run_verify(opts, out), 0);
  EXPECT_TRUE(fs::exists(dir_ / "verify_report.json"));
  // A failing claim: exit 1 and a "fail" verdict in the written report.
  std::vector<ClaimSpec> failing = {fixture_claim("fixture-pass", &passing_check),
                                    fixture_claim("fixture-fail", &failing_check)};
  opts.claims = &failing;
  opts.report_path = (dir_ / "custom_report.json").string();
  EXPECT_EQ(verify::run_verify(opts, out), 1);
  const JsonParseResult report = JsonValue::parse_file(opts.report_path);
  ASSERT_TRUE(report.ok()) << report.error;
  const JsonValue* summary = report.value->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("fail")->as_number(), 1.0);
  // Quick flag mismatching the evidence manifest is a setup error: exit 2.
  opts.quick = true;
  EXPECT_EQ(verify::run_verify(opts, out), 2);
}

TEST_F(VerifyTest, ReportJsonRoundTripsItsSchema) {
  write_file("fixture_cell.csv", "value\n7\n");
  std::vector<ClaimSpec> claims = {fixture_claim("fixture-pass", &passing_check),
                                   fixture_claim("fixture-fail", &failing_check)};
  const std::vector<ClaimOutcome> outcomes =
      verify::evaluate_claims(dir(), /*quick=*/false, &claims);
  verify::RunInfo info;
  info.manifest_found = true;
  info.suite = "fixture \"quoted\" name";  // escaping must survive the round trip
  info.config_hash = "deadbeef";
  info.quick = true;
  const std::string json = verify::report_json(info, outcomes);
  const JsonParseResult parsed = JsonValue::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const JsonValue& root = *parsed.value;
  EXPECT_EQ(root.find("schema")->as_string(), "cr-verify-report/1");
  EXPECT_EQ(root.find("suite")->as_string(), info.suite);
  EXPECT_EQ(root.find("config_hash")->as_string(), "deadbeef");
  EXPECT_TRUE(root.find("quick")->as_bool());
  const JsonValue* summary = root.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("claims")->as_number(), 2.0);
  EXPECT_EQ(summary->find("pass")->as_number(), 1.0);
  EXPECT_EQ(summary->find("fail")->as_number(), 1.0);
  EXPECT_EQ(summary->find("error")->as_number(), 0.0);
  const JsonValue* claims_json = root.find("claims");
  ASSERT_NE(claims_json, nullptr);
  ASSERT_EQ(claims_json->items().size(), 2u);
  const JsonValue& first = *claims_json->items()[0];
  EXPECT_EQ(first.find("id")->as_string(), "fixture-pass");
  EXPECT_EQ(first.find("verdict")->as_string(), "pass");
  EXPECT_EQ(first.find("bound")->as_string(), "value == 7");
  EXPECT_EQ(first.find("observed")->find("value")->as_string(), "7");
  ASSERT_EQ(first.find("cells")->items().size(), 1u);
  EXPECT_EQ(first.find("cells")->items()[0]->as_string(), "fixture_cell");
  EXPECT_EQ(claims_json->items()[1]->find("verdict")->as_string(), "fail");
}

TEST_F(VerifyTest, MissingManifestIsAWarningNotAnError) {
  write_file("fixture_cell.csv", "value\n7\n");
  std::vector<ClaimSpec> claims = {fixture_claim("fixture-pass", &passing_check)};
  verify::VerifyOptions opts;
  opts.out_dir = dir();
  opts.claims = &claims;
  std::ostringstream out;
  EXPECT_EQ(verify::run_verify(opts, out), 0);
  EXPECT_NE(out.str().find("no readable manifest.json"), std::string::npos);
  const verify::RunInfo info = verify::load_run_info(dir());
  EXPECT_FALSE(info.manifest_found);
}

}  // namespace
}  // namespace cr

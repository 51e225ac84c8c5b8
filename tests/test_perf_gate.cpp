// The `cr perf` baseline gate over crafted snapshots: rows match on
// (scenario, horizon, engine, threads), unmatched rows are reported missing
// rather than dropped, a gated row regresses past the tolerance, and the
// reference engine never gates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/benches/perf.hpp"
#include "common/json.hpp"

namespace cr::benches {
namespace {

JsonValue snapshot(const std::string& text) {
  const JsonParseResult parsed = JsonValue::parse(text);
  if (!parsed.ok()) {
    ADD_FAILURE() << parsed.error;
    return {};
  }
  return *parsed.value;
}

PerfRow row(const std::string& engine, int threads, double slots_per_sec) {
  PerfRow r;
  r.scenario = "batch";
  r.horizon = 65536;
  r.engine = engine;
  r.threads = threads;
  r.slots_per_sec = slots_per_sec;
  return r;
}

const char* const kBaseline = R"({
  "bench": "perf",
  "cells": [
    {"scenario": "batch", "horizon": 65536, "engine": "generic", "threads": 1,
     "slots_per_sec": 1000.0},
    {"scenario": "batch", "horizon": 65536, "engine": "fast_cjz", "threads": 1,
     "slots_per_sec": 1000.0}
  ]
})";

TEST(PerfGate, WithinToleranceMatchesAndPasses) {
  const std::vector<PerfRow> rows = {row("fast_cjz", 1, 900.0)};
  const auto deltas = perf_deltas(snapshot(kBaseline), rows, 0.15);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_FALSE(deltas[0].missing());
  EXPECT_DOUBLE_EQ(deltas[0].baseline, 1000.0);
  EXPECT_DOUBLE_EQ(deltas[0].delta, -0.1);
  EXPECT_TRUE(deltas[0].gated);
  EXPECT_FALSE(deltas[0].regressed);
}

TEST(PerfGate, RegressionPastToleranceFails) {
  const std::vector<PerfRow> rows = {row("fast_cjz", 1, 800.0)};
  const auto deltas = perf_deltas(snapshot(kBaseline), rows, 0.15);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas[0].regressed);
  EXPECT_EQ(deltas[0].row, &rows[0]);
}

TEST(PerfGate, ThreadMismatchIsNotCompared) {
  // A 4-thread run must not be diffed against a 1-thread baseline, however
  // slow it is: the row is missing, not a regression and not a pass.
  const std::vector<PerfRow> rows = {row("fast_cjz", 4, 10.0)};
  const auto deltas = perf_deltas(snapshot(kBaseline), rows, 0.15);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas[0].missing());
  EXPECT_FALSE(deltas[0].regressed);
}

TEST(PerfGate, MissingRowIsReportedNotDropped) {
  const std::vector<PerfRow> rows = {row("fast_cjz", 1, 1000.0),
                                     row("fast_cjz_sparse", 1, 5000.0)};
  const auto deltas = perf_deltas(snapshot(kBaseline), rows, 0.15);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_FALSE(deltas[0].missing());
  EXPECT_TRUE(deltas[1].missing());
  EXPECT_EQ(deltas[1].row->engine, "fast_cjz_sparse");
}

TEST(PerfGate, GenericEngineIsExempt) {
  const std::vector<PerfRow> rows = {row("generic", 1, 100.0)};
  const auto deltas = perf_deltas(snapshot(kBaseline), rows, 0.15);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_FALSE(deltas[0].missing());
  EXPECT_FALSE(deltas[0].gated);
  EXPECT_FALSE(deltas[0].regressed) << "a 90% slowdown of the reference engine never gates";
}

}  // namespace
}  // namespace cr::benches

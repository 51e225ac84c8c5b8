/// \file
/// The `cr perf` timing row and its baseline gate, split out of the bench so
/// the gate is unit-testable over crafted snapshots (tests/test_perf_gate.cpp).
///
/// A row is keyed by (scenario, horizon, engine, threads): throughput at one
/// thread count says nothing about another, so rows recorded at different
/// thread counts never compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/types.hpp"
#include "common/json.hpp"

namespace cr::benches {

struct PerfRow {
  std::string scenario;
  std::string engine;
  slot_t horizon = 0;
  int reps = 0;
  int threads = 1;
  double seconds = 0.0;
  double slots_per_sec = 0.0;
  double runs_per_sec = 0.0;
  double mean_successes = 0.0;
  double mean_sends = 0.0;

  /// Memory-cell rows only (engine "fast_cjz_sparse"); all zero elsewhere.
  bool memory_cell = false;
  std::uint64_t peak_live_nodes = 0;     ///< max simultaneously live nodes
  std::uint64_t node_table_slots = 0;    ///< resident node-table slots at finish
  std::uint64_t resident_bytes = 0;      ///< node_table_slots * sizeof(Node)
  std::uint64_t dense_extrap_bytes = 0;  ///< arrivals * sizeof(Node) — dense cost
  std::uint64_t peak_rss_kb = 0;         ///< getrusage ru_maxrss after the run
};

/// One current row's standing against a baseline snapshot.
struct PerfDelta {
  const PerfRow* row = nullptr;  ///< into the `rows` given to perf_deltas
  /// Slots/sec of the baseline row with the same key; 0 when it has none.
  double baseline = 0.0;
  double delta = 0.0;      ///< fractional slots/sec change (0 when missing)
  bool gated = false;      ///< false for the reference engine's few-rep cells
  bool regressed = false;  ///< gated and slower than baseline past the tolerance

  bool missing() const { return baseline <= 0.0; }
};

/// Diff `rows` (in order) against a BENCH_<n>.json `snapshot`. A row whose
/// key has no baseline match is reported missing rather than dropped.
std::vector<PerfDelta> perf_deltas(const JsonValue& snapshot, const std::vector<PerfRow>& rows,
                                   double tolerance);

}  // namespace cr::benches

/// \file
/// Declarations of the registered bench specs. Each lives in its own
/// src/cli/benches/<name>.cpp translation unit; BenchRegistry's constructor
/// calls these explicitly (rather than relying on static registrar objects,
/// which a static-library link would silently drop).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "exp/bench_driver.hpp"
#include "exp/workload.hpp"

namespace cr::benches {

BenchSpec tradeoff();          // E1
BenchSpec worstcase();         // E2
BenchSpec batch_completion();  // E3
BenchSpec batch_robustness();  // E4
BenchSpec nonadaptive();       // E5
BenchSpec lowerbound();        // E6
BenchSpec baselines();         // E7
BenchSpec first_success();     // E8
BenchSpec latency();           // E9
BenchSpec energy();            // E10
BenchSpec ablation();          // E12
BenchSpec cd_contrast();       // E13
BenchSpec scenario();          // S1 — generic registry-scenario runner
BenchSpec workload();          // S2 — composable WorkloadSpec runner
BenchSpec stream();            // S3 — streaming service mode (ring feed + snapshots)

// The single-point runner S1 and S2 share (defined with S2). Each runs
// replicate_workload(point_engine(spec), spec, ...) from its own base seed
// and reports point_table(<its key columns>, results).

/// preferred() for `spec`'s protocol.
const Engine& point_engine(const WorkloadSpec& spec);
/// One row: `keys` ({header, cell}), then the seven aggregate columns —
/// means of slots, arrivals, successes, jammed slots, the served fraction
/// and sends, and mean±sd of the backlog at the end.
Table point_table(const std::vector<std::pair<std::string, Cell>>& keys,
                  const std::vector<SimResult>& results);
/// The CSV columns of point_table: `keys`, then the aggregates' names.
std::vector<std::string> point_csv_columns(std::vector<std::string> keys);

}  // namespace cr::benches

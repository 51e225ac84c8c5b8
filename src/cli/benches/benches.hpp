/// \file
/// Declarations of the registered bench specs. Each lives in its own
/// src/cli/benches/<name>.cpp translation unit; BenchRegistry's constructor
/// calls these explicitly (rather than relying on static registrar objects,
/// which a static-library link would silently drop).
#pragma once

#include "cli/bench_registry.hpp"

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

}  // namespace cr::benches

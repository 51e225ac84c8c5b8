/// \file
/// BenchRegistry — every CLI experiment's BenchSpec (src/exp/bench_driver.hpp)
/// in one Registry (src/common/registry.hpp), from which the `cr` tool
/// derives everything else:
///
///   * `cr bench <name> [flags]` builds the entry's BenchDriver and calls
///     its run function;
///   * `cr suite run <manifest>` validates manifest cells against the
///     declared flags before running anything;
///   * `cr list --md` renders docs/EXPERIMENTS.md from these specs, and the
///     `docs`-labelled CTest entry diffs the committed file against that
///     output — so the registry is the single source of truth and the docs
///     cannot drift from the code.
#pragma once

#include <string>
#include <vector>

#include "common/registry.hpp"
#include "exp/bench_driver.hpp"

namespace cr {

/// Name-keyed registry of all CLI benches. Seeded with the 12 paper
/// experiments plus the "scenario", "workload" and "stream" runners.
class BenchRegistry final : public Registry<BenchSpec> {
 public:
  static BenchRegistry& instance();

  /// Run bench `name` on `args` (the flags after the name): builds its
  /// BenchDriver with argv[0] "cr bench <name>" and calls its run function.
  /// An unknown name prints unknown(name) and returns 2 (CLI contract).
  int run(const std::string& name, const std::vector<std::string>& args) const;

 private:
  BenchRegistry();
};

}  // namespace cr

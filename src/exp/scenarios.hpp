/// \file
/// The g regime table and the name-keyed scenario registry shared by
/// benches, examples and tests.
///
/// A scenario preset is a named row that maps a ScenarioParams bundle onto
/// a WorkloadSpec (src/exp/workload.hpp), the one description of a
/// workload; building a preset is build_workload over that mapping:
///
///     Scenario sc = ScenarioRegistry::instance().build("worst_case", params);
///     SimResult r = run_scenario(EngineRegistry::instance().preferred(sc.protocol), sc);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/functions.hpp"
#include "common/registry.hpp"
#include "engine/engine.hpp"
#include "engine/sim_result.hpp"

namespace cr {

struct WorkloadSpec;  // exp/workload.hpp

/// The three g regimes the paper discusses.
FunctionSet functions_constant_g(double gamma = 4.0);
FunctionSet functions_log_g();
FunctionSet functions_exp_sqrt_log_g(double scale = 1.0);

/// One row of the g regime table.
struct GRegime {
  std::string name;
  FunctionSet (*make)(double gamma);
  /// Whether `gamma` sets the regime's scale (const's value, exp_sqrt_log's
  /// scale). A regime without one ignores it, so an explicit gamma there is
  /// rejected as a silent no-op.
  bool takes_scale;
};

/// The regime table: "const", "log", "exp_sqrt_log". Every regime name the
/// workload and scenario layers accept, and every list of them they print,
/// comes from here.
const Registry<GRegime>& g_regimes();

/// Regime by name: `gamma` feeds const's value and exp_sqrt_log's scale; log
/// ignores it. Aborts on unknown names.
FunctionSet functions_for_regime(const std::string& regime, double gamma = 4.0);

struct Scenario {
  FunctionSet fs;
  std::unique_ptr<Adversary> adversary;
  SimConfig config;
  /// What runs on the channel. Workloads default this to their named
  /// protocol on `fs`; callers may swap in any spec to race other protocols
  /// on the same workload.
  ProtocolSpec protocol;
};

/// Execute `scenario` on `engine` (the scenario's adversary is consumed
/// statefully — build a fresh Scenario per run).
SimResult run_scenario(const Engine& engine, Scenario& scenario,
                       SlotObserver* observer = nullptr);

/// Parameter bundle understood by the registered scenario presets. Every
/// field has a sensible default; presets read only the fields they document.
struct ScenarioParams {
  slot_t horizon = 1 << 16;
  std::uint64_t seed = 1;
  std::uint64_t n = 256;           ///< batch / burst size
  double jam = 0.25;               ///< i.i.d. jam fraction (worst_case, batch, bernoulli_stream)
  double arrival_margin = 4.0;     ///< paced-arrival margin (worst_case, smooth)
  double jam_margin = 8.0;         ///< budget-paced jam margin (smooth)
  double rate = 0.1;               ///< Bernoulli arrival rate (bernoulli_stream)
  std::string g_regime = "const";  ///< a g_regimes() name
  double gamma = 4.0;              ///< const-g value / exp_sqrt_log scale
};

struct ScenarioEntry {
  std::string name;
  std::string description;
  /// The preset itself: the WorkloadSpec these params describe, horizon and
  /// seed included.
  WorkloadSpec (*workload)(const ScenarioParams&);
  /// The ScenarioParams fields this preset actually consumes (by flag
  /// name). `cr bench scenario` and the suite validator reject an
  /// explicitly-passed parameter outside this set — a param one scenario
  /// ignores must not be a silent no-op in a sweep over scenarios.
  std::vector<std::string> params;

  bool consumes(const std::string& param) const;
};

/// Name-keyed scenario registry, a Registry (common/registry.hpp). Seeded
/// with the five built-in presets ("worst_case", "batch", "smooth",
/// "bernoulli_stream", "bursty"), each byte-identical to the direct
/// composition it names (parity-tested in tests/test_workload.cpp).
class ScenarioRegistry final : public Registry<ScenarioEntry> {
 public:
  static ScenarioRegistry& instance();

  /// build_workload over the preset's mapping (scenario_preset_workload):
  /// aborts (CR_CHECK) on unknown names, after printing the known set.
  Scenario build(const std::string& name, const ScenarioParams& params = {}) const;

 private:
  ScenarioRegistry();
};

}  // namespace cr

/// \file
/// WorkloadSpec — the composable workload value type: (arrival process ×
/// jammer × g regime × protocol) plus the run-level horizon/seed, with every
/// component resolved by name through the typed ArrivalRegistry /
/// JammerRegistry (src/adversary/component_registry.hpp).
///
/// A WorkloadSpec serializes to and from the flat `key=value` form used by
/// `cr bench workload` flags and suite-manifest cells:
///
///     arrival=bernoulli  arrival.rate=0.2  jammer=iid  jammer.fraction=0.25
///     g=const  gamma=4  protocol=cjz  horizon=65536
///
/// so any (arrival × jammer × g × protocol) combination is runnable and
/// sweepable from JSON without touching C++. Validation is a hard error on
/// anything a component does not consume — an unknown top-level key, a
/// parameter the named component does not declare, or `gamma` under the
/// g=log regime (which ignores it) all fail with a message naming the
/// offending key. Every scenario preset (src/exp/scenarios.cpp) is a
/// mapping onto this type, parity-tested byte-identical in
/// tests/test_workload.cpp.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/param_schema.hpp"
#include "common/registry.hpp"
#include "exp/scenarios.hpp"

namespace cr {

/// One named component with its explicitly-set parameters (raw text, in
/// application order). Unset parameters take their schema defaults.
struct ComponentSpec {
  std::string name = "none";
  std::vector<std::pair<std::string, std::string>> params;

  bool operator==(const ComponentSpec&) const = default;
};

/// The full composable workload. Value type: copyable, comparable, cheap.
struct WorkloadSpec {
  ComponentSpec arrival;
  ComponentSpec jammer;
  std::string g_regime = "const";  ///< a g_regimes() name
  double gamma = 4.0;              ///< const-g value / exp_sqrt_log scale
  bool gamma_set = false;          ///< gamma was given explicitly
  std::string protocol = "cjz";    ///< a workload_protocols() name
  slot_t horizon = 1 << 16;
  std::uint64_t seed = 1;          ///< not part of the flat form (runner-owned)

  bool operator==(const WorkloadSpec&) const = default;
};

/// The top-level keys of the flat form, one row each with its WorkloadSpec
/// default (component parameters ride under "arrival."/"jammer."
/// prefixes). `cr bench workload` declares these rows as its flags; the
/// horizon row's quick default is that bench's.
const ParamSchema& workload_schema();

/// One row of the protocol table: a name and the ProtocolSpec it runs on a
/// FunctionSet (protocols that do not read `fs` ignore it).
struct ProtocolEntry {
  std::string name;
  ProtocolSpec (*make)(const FunctionSet& fs);
};

/// The protocols nameable in a WorkloadSpec: "cjz", "h_backoff", "h_data"
/// and the windowed-backoff baselines "beb", "sawtooth", "poly".
const Registry<ProtocolEntry>& workload_protocols();

struct WorkloadParse {
  WorkloadSpec spec;
  std::string error;  ///< empty on success; names the offending key otherwise

  bool ok() const { return error.empty(); }
};

/// Parse AND validate the flat form: unknown keys, unknown component names,
/// undeclared, ill-typed or out-of-bound parameters, unknown g
/// regime/protocol, horizon < 1, gamma-under-g=log and a gamma <= 0 are all
/// hard errors. `kvs` is every workload key in application order (later
/// duplicates are errors). Checks the top-level keys against
/// workload_schema(), then reads the spec with workload_from_values.
WorkloadParse parse_workload(const std::vector<std::pair<std::string, std::string>>& kvs);

/// The validated spec that `values` — workload_schema() rows, already
/// checked by ParamValidation (under a schema that may hold more rows) —
/// and the "arrival.<param>"/"jammer.<param>" keys among `kvs` describe;
/// `kvs` also says whether gamma was given. Other keys in `kvs` are
/// ignored: they are the rows `values` holds.
WorkloadParse workload_from_values(const ParamValues& values,
                                   const std::vector<std::pair<std::string, std::string>>& kvs);

/// Semantic re-validation of an already-built spec (what parse_workload ran
/// after parsing). Empty string = valid.
std::string validate_workload(const WorkloadSpec& spec);

/// validate_workload's gamma bound: a regime that takes a scale needs
/// gamma > 0. Empty string = valid.
std::string check_gamma(const GRegime& regime, double gamma);

/// Canonical flat form: component names always, other keys only when they
/// differ from the defaults. parse_workload(workload_to_flags(s)).spec == s
/// for every valid spec with the default seed (round-trip test in
/// tests/test_workload.cpp) — the seed is runner-owned and never part of
/// the flat form, so it does not survive the trip.
std::vector<std::pair<std::string, std::string>> workload_to_flags(const WorkloadSpec& spec);

/// Materialise the workload: resolve both components through the registries,
/// compose them into a ComposedAdversary and attach the named protocol on
/// the regime's FunctionSet. CR_CHECKs validate_workload(spec) is clean.
/// With `attach_quiet_tail`, the adversary carries the components'
/// quiet-tail certificate, if they state one (Adversary::quiet_tail()):
/// that is how replicate_workload hands one to each seed.
Scenario build_workload(const WorkloadSpec& spec, bool attach_quiet_tail = false);

/// The WorkloadSpec a registered scenario preset maps `p` onto
/// (ScenarioEntry::workload), so any scenario sweep is also expressible as
/// a workload sweep. CR_CHECKs the scenario name.
WorkloadSpec scenario_preset_workload(const std::string& scenario, const ScenarioParams& p);

/// The quiet-tail certificate of `spec`'s adversary
/// (ComposedAdversary::attach_quiet_tail): present when the arrival
/// process states its last arrival slot (none, batch, bernoulli) and the
/// jammer its i.i.d. rate past some slot (none, iid, prefix). The same for
/// every seed.
std::optional<QuietTail> workload_quiet_tail(const WorkloadSpec& spec);

/// Replicate `spec` over seeds base_seed .. base_seed+reps-1 on `engine` and
/// return the results in seed order. `config_template` supplies the run
/// options other than horizon and seed (recording tier, stop flags, node
/// cap), which are taken from the spec and the seed sweep.
///
/// Every seed runs build_workload + run_scenario on replicate()'s threads, so
/// `engine.run` is called exactly once per seed. Each seed's adversary
/// carries workload_quiet_tail(spec), if there is one; fast_cjz ends a run
/// at its quiet tail when the config lets it (engine/fast_cjz.hpp), and the
/// other engines ignore it.
std::vector<SimResult> replicate_workload(const Engine& engine, const WorkloadSpec& spec,
                                          int reps, std::uint64_t base_seed, int threads,
                                          const SimConfig& config_template = {});

/// replicate_workload over a registered scenario preset, via
/// scenario_preset_workload.
std::vector<SimResult> replicate_scenario(const Engine& engine, const std::string& scenario,
                                          const ScenarioParams& params, int reps,
                                          std::uint64_t base_seed, int threads,
                                          const SimConfig& config_template = {});

}  // namespace cr

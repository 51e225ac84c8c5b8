/// \file
/// ArrivalRegistry and JammerRegistry: every arrival process and jamming
/// strategy registers a name, a description and a ParamSchema, and becomes
/// composable into any WorkloadSpec (src/exp/workload.hpp) without new C++.
///
/// Both are Registry<Entry> instances (src/common/registry.hpp), the shape
/// every name-keyed table shares. Factories receive validated ParamValues
/// plus a WorkloadContext carrying the run-level values components may depend
/// on (the FunctionSet for paced envelopes, the horizon for default windows,
/// the seed for construction-time randomness) — so a component parameter can
/// default to "the run's horizon" without the caller wiring it through by
/// hand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/param_schema.hpp"
#include "common/functions.hpp"
#include "common/registry.hpp"

namespace cr {

/// Run-level values a component factory may consume in addition to its own
/// parameters.
struct WorkloadContext {
  const FunctionSet& fs;  ///< the (f, g) pair the protocol under test runs on
  slot_t horizon = 0;     ///< the run's slot horizon
  std::uint64_t seed = 0;  ///< the run seed (construction-time randomness)
};

/// One registered component: a name, a description, its ParamSchema and the
/// factory that builds it from validated values.
template <typename Component>
struct ComponentEntry {
  std::string name;
  std::string description;
  ParamSchema schema;
  std::unique_ptr<Component> (*make)(const ParamValues&, const WorkloadContext&);
};

using ArrivalEntry = ComponentEntry<ArrivalProcess>;
using JammerEntry = ComponentEntry<Jammer>;

/// Name-keyed registry of arrival processes. Seeded with the built-ins
/// ("none", "batch", "bernoulli", "uniform_random", "paced", "bursty").
class ArrivalRegistry final : public Registry<ArrivalEntry> {
 public:
  static ArrivalRegistry& instance();

 private:
  ArrivalRegistry();
};

/// Name-keyed registry of jamming strategies. Seeded with the built-ins
/// ("none", "iid", "prefix", "periodic", "budget_paced", "reactive").
class JammerRegistry final : public Registry<JammerEntry> {
 public:
  static JammerRegistry& instance();

 private:
  JammerRegistry();
};

}  // namespace cr

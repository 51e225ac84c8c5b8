/// \file
/// ArrivalRegistry and JammerRegistry — the fourth and fifth name-keyed
/// registries (after engines, scenarios and benches): every arrival process
/// and jamming strategy registers a name, a description and a ParamSchema,
/// and becomes composable into any WorkloadSpec (src/exp/workload.hpp)
/// without new C++.
///
/// Both registries share the shape of the other three (find/at,
/// names/entries, register_* as the extension point; registration is
/// explicit and not thread-safe — register before fanning out runs).
/// Factories receive validated ParamValues plus a WorkloadContext carrying
/// the run-level values components may depend on (the FunctionSet for paced
/// envelopes, the horizon for default windows, the seed for construction-time
/// randomness) — so a component parameter can default to "the run's horizon"
/// without the caller wiring it through by hand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/param_schema.hpp"
#include "common/functions.hpp"

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

/// What the two registries below share.
template <typename Component>
class ComponentRegistry {
 public:
  using Entry = ComponentEntry<Component>;

  /// nullptr when unknown.
  const Entry* find(const std::string& name) const;
  /// Aborts (CR_CHECK) on unknown names, after printing the known set;
  /// WorkloadSpec validation reports unknown names gracefully upstream.
  const Entry& at(const std::string& name) const;

  std::vector<std::string> names() const;
  const std::vector<Entry>& entries() const { return entries_; }

 protected:
  /// `kind` names the component kind in diagnostics ("arrival", "jammer").
  explicit ComponentRegistry(const char* kind) : kind_(kind) {}
  void add(Entry entry);

 private:
  const char* kind_;
  std::vector<Entry> entries_;
};

/// Name-keyed registry of arrival processes. Seeded with the built-ins
/// ("none", "batch", "bernoulli", "uniform_random", "paced", "bursty").
class ArrivalRegistry final : public ComponentRegistry<ArrivalProcess> {
 public:
  static ArrivalRegistry& instance();
  void register_arrival(ArrivalEntry entry) { add(std::move(entry)); }

 private:
  ArrivalRegistry();
};

/// Name-keyed registry of jamming strategies. Seeded with the built-ins
/// ("none", "iid", "prefix", "periodic", "budget_paced", "reactive").
class JammerRegistry final : public ComponentRegistry<Jammer> {
 public:
  static JammerRegistry& instance();
  void register_jammer(JammerEntry entry) { add(std::move(entry)); }

 private:
  JammerRegistry();
};

}  // namespace cr

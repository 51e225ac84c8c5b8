/// \file
/// Unified engine layer: every simulator behind one polymorphic interface.
///
/// A ProtocolSpec describes WHAT runs on the channel (the CJZ algorithm, a
/// probability-profile protocol, the collision-detection backon/backoff
/// controller, or an arbitrary ProtocolFactory); an Engine
/// is a strategy for HOW to execute it (reference per-node simulation or one
/// of the cohort-based fast engines). Engines self-describe which specs they
/// can execute, so callers select one through the EngineRegistry instead of
/// hard-coding dispatch:
///
///     ProtocolSpec spec = cjz_protocol(functions_constant_g(4.0));
///     SimResult res = EngineRegistry::instance().preferred(spec)
///                         .run(spec, adversary, config);
///
/// Cross-engine validation enumerates the registry: for each engine with
/// supports(spec), run the same scenario and compare statistics (see
/// tests/test_cross_engine.cpp).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/functions.hpp"
#include "common/registry.hpp"
#include "engine/sim_result.hpp"
#include "protocols/batch.hpp"
#include "protocols/cd_backon.hpp"
#include "protocols/cjz_node.hpp"
#include "protocols/protocol.hpp"

namespace cr {

/// Engine-agnostic description of the protocol under test. Value type:
/// copyable, safe to share across replication threads (engines never mutate
/// the spec; each run builds its own per-run state from it).
struct ProtocolSpec {
  enum class Kind {
    kCjz,       ///< the paper's algorithm, parameterised by a FunctionSet
    kProfile,   ///< fixed per-age probability profile (h-batch family)
    kCdBackon,  ///< backon/backoff controller, with or without its CD signal
    kFactory,   ///< arbitrary ProtocolFactory (reference engine only)
  };

  Kind kind = Kind::kCjz;
  std::string label;                   ///< short human-readable tag for tables
  FunctionSet fs;                      ///< kCjz
  CjzOptions cjz_options;              ///< kCjz
  std::optional<SendProfile> profile;  ///< kProfile
  CdBackonOptions cd_backon;           ///< kCdBackon
  /// kFactory: builds a fresh factory per run (must be re-invocable and
  /// thread-safe — parallel replications call it concurrently).
  std::function<std::unique_ptr<ProtocolFactory>()> make_factory;
};

/// Spec constructors (the only supported way to build one).
ProtocolSpec cjz_protocol(FunctionSet fs, CjzOptions options = {});
ProtocolSpec profile_protocol(SendProfile profile);
/// Checks `options` (cd_backon_options_error) and, when one is bad, prints
/// "cd_backon_protocol: <field> must be ..." and aborts.
ProtocolSpec cd_backon_protocol(CdBackonOptions options);
ProtocolSpec factory_protocol(std::string label,
                              std::function<std::unique_ptr<ProtocolFactory>()> make);

/// Materialise a per-node ProtocolFactory for `spec` (any kind). This is how
/// the reference engine executes every spec; tests use it to pit the fast
/// engines against ground truth.
std::unique_ptr<ProtocolFactory> make_protocol_factory(const ProtocolSpec& spec);

/// Execution strategy. Implementations are stateless (all per-run state is
/// local to run()), so a single registered instance serves concurrent
/// replication threads.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// Can this engine execute `spec` faithfully?
  virtual bool supports(const ProtocolSpec& spec) const = 0;

  /// Higher = faster. preferred() picks the supporting engine with the top
  /// rank; the reference engine ranks 0.
  virtual int speed_rank() const = 0;

  /// Execute one run. `adversary` is stateful and owned by the caller (one
  /// instance per run); `observer` may be null.
  virtual SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                        SlotObserver* observer = nullptr) const = 0;
};

/// Name-keyed engine registry, a Registry (common/registry.hpp) owning its
/// engines. Seeded with the three built-ins ("generic", "fast_cjz",
/// "fast_batch").
class EngineRegistry final : public Registry<std::unique_ptr<Engine>, &Engine::name> {
 public:
  static EngineRegistry& instance();

  /// All engines that can execute `spec`, ordered fastest first.
  std::vector<const Engine*> compatible(const ProtocolSpec& spec) const;
  /// The fastest engine that can execute `spec` (always exists: the
  /// reference engine supports everything).
  const Engine& preferred(const ProtocolSpec& spec) const;

 private:
  EngineRegistry();
};

}  // namespace cr

#include "engine/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.hpp"
#include "engine/fast_batch.hpp"
#include "engine/fast_cjz.hpp"
#include "engine/generic_sim.hpp"

namespace cr {

ProtocolSpec cjz_protocol(FunctionSet fs, CjzOptions options) {
  ProtocolSpec spec;
  spec.kind = ProtocolSpec::Kind::kCjz;
  spec.label = "cjz[" + fs.describe() + "]";
  spec.fs = std::move(fs);
  spec.cjz_options = options;
  return spec;
}

ProtocolSpec profile_protocol(SendProfile profile) {
  ProtocolSpec spec;
  spec.kind = ProtocolSpec::Kind::kProfile;
  spec.label = "profile[" + profile.name() + "]";
  spec.profile = std::move(profile);
  return spec;
}

ProtocolSpec cd_backon_protocol(CdBackonOptions options) {
  const std::string error = cd_backon_options_error(options);
  if (!error.empty()) std::fprintf(stderr, "cd_backon_protocol: %s\n", error.c_str());
  CR_CHECK(error.empty());
  ProtocolSpec spec;
  spec.kind = ProtocolSpec::Kind::kCdBackon;
  spec.label = options.collision_detection ? "cd-backon" : "cd-backon-no-cd";
  spec.cd_backon = options;
  return spec;
}

ProtocolSpec factory_protocol(std::string label,
                              std::function<std::unique_ptr<ProtocolFactory>()> make) {
  CR_CHECK(make != nullptr);
  ProtocolSpec spec;
  spec.kind = ProtocolSpec::Kind::kFactory;
  spec.label = std::move(label);
  spec.make_factory = std::move(make);
  return spec;
}

std::unique_ptr<ProtocolFactory> make_protocol_factory(const ProtocolSpec& spec) {
  switch (spec.kind) {
    case ProtocolSpec::Kind::kCjz:
      return std::make_unique<CjzFactory>(spec.fs, spec.cjz_options);
    case ProtocolSpec::Kind::kProfile:
      return std::make_unique<ProfileProtocolFactory>(*spec.profile);
    case ProtocolSpec::Kind::kCdBackon:
      return cd_backon_factory(spec.cd_backon);
    case ProtocolSpec::Kind::kFactory:
      return spec.make_factory();
  }
  CR_CHECK(false);  // unreachable
  return nullptr;
}

namespace {

/// Reference per-node engine: executes every spec via make_protocol_factory.
class GenericEngine final : public Engine {
 public:
  std::string name() const override { return "generic"; }
  bool supports(const ProtocolSpec&) const override { return true; }
  int speed_rank() const override { return 0; }

  SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                SlotObserver* observer) const override {
    const auto factory = make_protocol_factory(spec);
    return run_generic(*factory, adversary, config, observer);
  }
};

/// Cohort engine specialised to the CJZ algorithm. Sweeps reach its plan
/// path through the adversary (FastCjzSimulator::run), so run() is called
/// once per seed on every path.
class FastCjzEngine final : public Engine {
 public:
  std::string name() const override { return "fast_cjz"; }
  bool supports(const ProtocolSpec& spec) const override {
    return spec.kind == ProtocolSpec::Kind::kCjz;
  }
  int speed_rank() const override { return 100; }

  SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                SlotObserver* observer) const override {
    CR_CHECK(supports(spec));
    return run_fast_cjz(spec.fs, adversary, config, observer, spec.cjz_options);
  }
};

/// Cohort engine for protocols whose sending probability nodes that arrive
/// together share: probability profiles (a function of age) and the
/// cd-backon controller (a function of the public feedback since arrival).
class FastBatchEngine final : public Engine {
 public:
  std::string name() const override { return "fast_batch"; }
  bool supports(const ProtocolSpec& spec) const override {
    return spec.kind == ProtocolSpec::Kind::kProfile ||
           spec.kind == ProtocolSpec::Kind::kCdBackon;
  }
  int speed_rank() const override { return 100; }

  SimResult run(const ProtocolSpec& spec, Adversary& adversary, const SimConfig& config,
                SlotObserver* observer) const override {
    CR_CHECK(supports(spec));
    if (spec.kind == ProtocolSpec::Kind::kCdBackon)
      return run_fast_batch(spec.cd_backon, adversary, config, observer);
    return run_fast_batch(*spec.profile, adversary, config, observer);
  }
};

}  // namespace

EngineRegistry::EngineRegistry() : Registry("engine", "engines") {
  add(std::make_unique<GenericEngine>());
  add(std::make_unique<FastCjzEngine>());
  add(std::make_unique<FastBatchEngine>());
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

std::vector<const Engine*> EngineRegistry::compatible(const ProtocolSpec& spec) const {
  std::vector<const Engine*> out;
  for (const auto& engine : entries())
    if (engine->supports(spec)) out.push_back(engine.get());
  std::stable_sort(out.begin(), out.end(), [](const Engine* a, const Engine* b) {
    return a->speed_rank() > b->speed_rank();
  });
  return out;
}

const Engine& EngineRegistry::preferred(const ProtocolSpec& spec) const {
  const auto engines = compatible(spec);
  CR_CHECK(!engines.empty());
  return *engines.front();
}

}  // namespace cr

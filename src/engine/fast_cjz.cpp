#include "engine/fast_cjz.hpp"

#include <utility>

#include "common/rng.hpp"
#include "common/stream_tags.hpp"
#include "engine/cjz_core.hpp"
#include "engine/plan_path.hpp"

namespace cr {

FastCjzSimulator::FastCjzSimulator(FunctionSet fs, Adversary& adversary, SimConfig config,
                                   CjzOptions options)
    : fs_(std::move(fs)), adversary_(adversary), config_(config), options_(options) {}

SimResult FastCjzSimulator::run() {
  // The plan path cannot feed an observer (it skips slots) nor materialize a
  // per-slot trace or stop early; such runs keep the per-slot loop.
  const AdversaryPlan* plan = adversary_.plan();
  if (plan != nullptr && observer_ == nullptr && plan_path_allowed(config_))
    return run_plan(fs_, options_, config_, *plan, &memory_stats_, &work_);

  Rng rng_adv = Rng(config_.seed).fork(streams::kAdversary);
  CjzCore core(&fs_, config_, options_);
  PublicHistory history(core.trace());

  for (slot_t slot = 1; slot <= config_.horizon; ++slot) {
    const AdversaryAction action = adversary_.on_slot(slot, history, rng_adv);
    if (core.step(slot, action, observer_)) break;
  }
  memory_stats_ = core.memory_stats();
  work_ = core.work();
  return core.finish(observer_);
}

SimResult run_fast_cjz(const FunctionSet& fs, Adversary& adversary, const SimConfig& config,
                       SlotObserver* observer, CjzOptions options) {
  FastCjzSimulator sim(fs, adversary, config, options);
  sim.set_observer(observer);
  return sim.run();
}

}  // namespace cr

#include "engine/fast_cjz.hpp"

#include <utility>

#include "common/rng.hpp"
#include "common/stream_tags.hpp"
#include "engine/cjz_core.hpp"

namespace cr {

FastCjzSimulator::FastCjzSimulator(FunctionSet fs, Adversary& adversary, SimConfig config,
                                   CjzOptions options)
    : fs_(std::move(fs)), adversary_(adversary), config_(config), options_(options) {}

SimResult FastCjzSimulator::run() {
  const Rng root(config_.seed);
  Rng rng_adv = root.fork(streams::kAdversary);

  CjzCore<SequentialCjzStreams> core(&fs_, config_, options_, SequentialCjzStreams(root));
  PublicHistory history(core.trace());

  for (slot_t slot = 1; slot <= config_.horizon; ++slot) {
    const AdversaryAction action = adversary_.on_slot(slot, history, rng_adv);
    if (core.step(slot, action, observer_)) break;
  }
  memory_stats_ = core.memory_stats();
  return core.finish(observer_);
}

SimResult run_fast_cjz(const FunctionSet& fs, Adversary& adversary, const SimConfig& config,
                       SlotObserver* observer, CjzOptions options) {
  FastCjzSimulator sim(fs, adversary, config, options);
  sim.set_observer(observer);
  return sim.run();
}

}  // namespace cr

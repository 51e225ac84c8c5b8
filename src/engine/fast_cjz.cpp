#include "engine/fast_cjz.hpp"

#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "common/stream_tags.hpp"
#include "engine/cjz_core.hpp"

namespace cr {

FastCjzSimulator::FastCjzSimulator(FunctionSet fs, Adversary& adversary, SimConfig config,
                                   CjzOptions options)
    : fs_(std::move(fs)), adversary_(adversary), config_(config), options_(options) {}

SimResult FastCjzSimulator::run() {
  Rng rng_adv = Rng(config_.seed).fork(streams::kAdversary);
  CjzCore core(&fs_, config_, options_);
  PublicHistory history(core.trace());

  // The quiet tail skips slots, so a run whose observer or per-slot trace
  // wants every slot, or whose stop flag may end it early, steps them all.
  std::optional<QuietTail> tail;
  if (observer_ == nullptr && !config_.recording.wants_trace() && !config_.stop_when_empty &&
      !config_.stop_after_first_success)
    tail = adversary_.quiet_tail();
  const slot_t quiet_after = tail ? tail->quiet_after : config_.horizon;

  for (slot_t slot = 1; slot <= config_.horizon; ++slot) {
    if (slot > quiet_after && core.live() == 0) {
      core.end_quiet_tail(CounterRng(config_.seed).fork(streams::kQuietTail).stream(slot).binomial(
          config_.horizon - slot + 1, tail->tail_jam));
      break;
    }
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

#include "engine/generic_sim.hpp"

#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "channel/trace.hpp"
#include "common/check.hpp"
#include "common/stream_tags.hpp"

namespace cr {

namespace {

struct LiveNode {
  node_id id;
  slot_t arrival;
  std::uint64_t sends = 0;
  std::unique_ptr<NodeProtocol> protocol;
};

}  // namespace

GenericSimulator::GenericSimulator(ProtocolFactory& factory, Adversary& adversary,
                                   SimConfig config)
    : factory_(factory), adversary_(adversary), config_(config) {}

SimResult GenericSimulator::run() {
  Rng root(config_.seed);
  Rng rng_adv = root.fork(streams::kAdversary);
  Rng rng_nodes = root.fork(streams::kGenericNodes);

  Trace trace;
  PublicHistory history(trace);

  SimResult result;
  std::vector<LiveNode> nodes;
  std::vector<std::uint8_t> sent_flags;
  node_id next_id = 0;

  for (slot_t slot = 1; slot <= config_.horizon; ++slot) {
    const AdversaryAction action = adversary_.on_slot(slot, history, rng_adv);

    CR_CHECK(action.inject <= config_.max_live_nodes - nodes.size());
    for (std::uint64_t i = 0; i < action.inject; ++i) {
      LiveNode node;
      node.id = next_id++;
      node.arrival = slot;
      node.protocol = factory_.spawn(node.id, slot, rng_nodes);
      nodes.push_back(std::move(node));
    }
    result.arrivals += action.inject;

    const std::uint64_t live = nodes.size();
    if (live > 0) ++result.active_slots;

    std::uint64_t senders = 0;
    node_id lone_sender = kNoNode;
    sent_flags.assign(nodes.size(), 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].protocol->on_slot(slot, rng_nodes)) {
        sent_flags[i] = 1;
        ++nodes[i].sends;
        lone_sender = nodes[i].id;
        ++senders;
      }
    }
    result.total_sends += senders;

    const SlotOutcome out = resolve_slot(slot, senders, action.jam, lone_sender);
    trace.record(out);
    if (config_.recording.wants_trace()) result.slot_outcomes.push_back(out);
    if (out.jammed) ++result.jammed_slots;
    if (out.success()) {
      ++result.successes;
      if (result.first_success == 0) result.first_success = slot;
      result.last_success = slot;
      if (config_.recording.wants_success_times()) result.success_times.push_back(slot);
    }
    if (observer_ != nullptr) observer_->on_slot(out, action.inject, live);

    // Dispatch through the CD entry point: CD-blind protocols fall through
    // to the binary on_feedback via the default implementation.
    const CdFeedback fb = out.cd_feedback();
    std::size_t winner_idx = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const bool own = out.success() && nodes[i].id == out.winner;
      if (own) winner_idx = i;
      nodes[i].protocol->on_feedback_cd(slot, fb, sent_flags[i] != 0, own);
    }
    if (winner_idx < nodes.size()) {
      if (config_.recording.wants_node_stats()) {
        NodeStats ns;
        ns.id = nodes[winner_idx].id;
        ns.arrival = nodes[winner_idx].arrival;
        ns.departure = slot;
        ns.sends = nodes[winner_idx].sends;
        result.node_stats.push_back(ns);
      }
      nodes[winner_idx] = std::move(nodes.back());
      nodes.pop_back();
    }

    result.slots = slot;
    if (config_.stop_when_empty && result.arrivals > 0 && nodes.empty()) break;
    if (config_.stop_after_first_success && result.successes > 0) break;
  }

  result.live_at_end = nodes.size();
  if (config_.recording.wants_node_stats()) {
    for (const auto& node : nodes) {
      NodeStats ns;
      ns.id = node.id;
      ns.arrival = node.arrival;
      ns.departure = 0;
      ns.sends = node.sends;
      result.node_stats.push_back(ns);
    }
  }
  if (observer_ != nullptr) observer_->on_run_end(result);
  return result;
}

SimResult run_generic(ProtocolFactory& factory, Adversary& adversary, const SimConfig& config,
                      SlotObserver* observer) {
  GenericSimulator sim(factory, adversary, config);
  sim.set_observer(observer);
  return sim.run();
}

}  // namespace cr

/// \file
/// CJZ cohort engine core on the counter-based RNG substrate.
///
/// The cohort/calendar simulation of the CJZ algorithm (see
/// engine/fast_cjz.hpp for the two structural facts it exploits) is written
/// once here. Its randomness comes from Philox counter streams keyed by
/// (seed, tag): the per-slot streams take the slot number as the hi counter,
/// and each backoff stage's offsets take (node id, phase, stage), so every
/// draw is a pure function of its key and index and no generator state lives
/// between slots. That is what lets the plan path (engine/plan_path.hpp) skip
/// protocol-silent slots without replaying them, what makes the calendar's
/// pop order irrelevant, and what makes every core snapshot-capable:
/// save()/load() carry no RNG state at all.
///
/// The core is slot-callable: the driver owns the adversary interaction and
/// calls step(slot, action) once per slot (in order, starting at 1), then
/// finish(). FastCjzSimulator steps every slot of a single run, the plan path
/// steps only the slots where something happens, and StreamSim steps a
/// horizon-free feed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "channel/channel.hpp"
#include "channel/trace.hpp"
#include "common/check.hpp"
#include "common/functions.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "common/stream_tags.hpp"
#include "engine/attribution.hpp"
#include "engine/calendar.hpp"
#include "engine/sim_result.hpp"
#include "protocols/cjz_node.hpp"

namespace cr {

/// Resident node-table footprint of a core.
struct CjzCoreMemoryStats {
  std::uint64_t peak_live_nodes = 0;   ///< max simultaneous live nodes seen
  std::uint64_t node_table_slots = 0;  ///< resident Node records (recycled: peak_live_nodes)
  std::uint64_t node_bytes = 0;        ///< node_table_slots * sizeof(Node)
};

/// The work a core did, counted on every run with no clock, so the counts are
/// bit-reproducible (tests/test_work_gate.cpp pins them). Not in SimResult:
/// stepped/skipped legitimately differ between the plan path and the per-slot
/// loop. Not serialized: a restored core counts from its restore.
struct CjzCoreWork {
  std::uint64_t slots_stepped = 0;    ///< step() calls that ran the full transition
  std::uint64_t slots_silent = 0;     ///< step() calls the silent-slot short-circuit answered
  std::uint64_t slots_skipped = 0;    ///< slots the plan path never stepped, tail included
  std::uint64_t calendar_pushes = 0;  ///< events begin_stage scheduled
  std::uint64_t calendar_stale = 0;   ///< stale events popped, or cleared with the last node
  std::uint64_t calendar_peak = 0;    ///< the calendar's largest size
  std::uint64_t cohort_draws = 0;     ///< cohort binomial draws
  std::uint64_t rng_words = 0;        ///< main + attribution + stage stream words drawn
  bool plan_path = false;             ///< the run took the plan path
};

/// One CJZ run's state and per-slot transition. One instance per run.
class CjzCore {
 public:
  /// `fs` must outlive the core (owned by the caller). The RNG streams are
  /// forked from config.seed.
  CjzCore(const FunctionSet* fs, const SimConfig& config, CjzOptions options,
          Trace::Storage trace_storage = Trace::Storage::kCounting)
      : fs_(fs),
        config_(config),
        options_(options),
        main_base_(CounterRng(config.seed).fork(streams::kCjzMain)),
        attr_base_(CounterRng(config.seed).fork(streams::kAttribution)),
        stage_base_(CounterRng(config.seed).fork(streams::kCjzStage)),
        trace_(trace_storage) {
    // backoff_sends goes through a std::function; memoize the per-stage send
    // counts once (stage k has window 2^k — 2^40 slots is beyond any horizon
    // this simulator runs, but begin_stage still falls back past the table).
    for (std::uint64_t k = 0; k < kSendsMemo; ++k)
      sends_memo_[k] = fs_->backoff_sends(std::uint64_t{1} << k);
  }

  /// Advance one slot (slots arrive in order starting at 1, every slot the
  /// driver simulates). Returns true when a stop condition tripped — the
  /// driver must not step further and should call finish().
  bool step(slot_t slot, const AdversaryAction& action, SlotObserver* observer) {
    // Protocol-silent fast path: nobody live and nothing arriving — the
    // one-slot case of skip_silent(). This is the per-slot floor of a
    // quiescent tail, and skipping straight to it keeps the scalar engines'
    // empty-horizon throughput independent of how much inlining the busy
    // path attracts.
    if (live_ == 0 && action.inject == 0) {
      ++work_.slots_silent;
      const SlotOutcome out = pass_silent(slot, slot, action.jam);
      if (observer != nullptr) observer->on_slot(out, 0, 0);
      if (config_.stop_when_empty && result_.arrivals > 0) return true;
      if (config_.stop_after_first_success && result_.successes > 0) return true;
      return false;
    }

    ++work_.slots_stepped;
    main_ = main_base_.stream(slot);
    attr_ = attr_base_.stream(slot);
    auto& rng = main_;

    CR_CHECK(action.inject <= config_.max_live_nodes - live_);
    for (std::uint64_t i = 0; i < action.inject; ++i) {
      const std::uint32_t idx = nodes_.acquire();
      Node& n = nodes_[idx];
      n.arrival = slot;
      n.phase = 1;
      n.channel = static_cast<std::uint8_t>(parity_channel(slot));
      n.from = slot;
      p1_nodes_.push_back(idx);
      begin_stage(idx, 0);
      ++live_;
    }
    result_.arrivals += action.inject;
    if (live_ > peak_live_) peak_live_ = live_;

    const std::uint64_t live_now = live_;
    if (live_now > 0) ++result_.active_slots;

    // Gather backoff senders due this slot (their order is irrelevant: only
    // their count and, for a lone sender, its identity are read).
    backoff_senders_.clear();
    while (auto ev = calendar_.pop_due(slot)) {
      Node& n = nodes_[ev->node];
      if (!n.alive || n.gen != ev->gen) {
        ++work_.calendar_stale;
        continue;
      }
      if (ev->kind == CalendarEvent::Kind::kStageBegin) {
        begin_stage(ev->node, n.stage + 1);
      } else {
        backoff_senders_.push_back(ev->node);
        ++n.sends;
      }
    }

    // Cohort binomial draws.
    std::uint64_t senders = backoff_senders_.size();
    cohort_draws_.clear();
    const int sp = parity_channel(slot);
    for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
      Cohort& cohort = cohorts_[ci];
      const auto m = static_cast<std::uint64_t>(cohort.members.size());
      if (m == 0) continue;
      CR_DCHECK(slot > cohort.l3);
      const double p = cjz_batch_prob(*fs_, cohort.l3, sp, sp == cohort.ctrl_parity, slot);
      ++work_.cohort_draws;
      const std::uint64_t c = rng.binomial(m, p);
      if (c > 0) {
        senders += c;
        cohort_draws_.emplace_back(ci, c);
      }
    }
    result_.total_sends += senders;

    // Resolve.
    std::uint32_t winner_idx = 0;
    node_id winner = kNoNode;
    bool cohort_winner = false;
    if (senders == 1 && !action.jam) {
      if (!backoff_senders_.empty()) {
        winner_idx = backoff_senders_.front();
      } else {
        Cohort& cohort = cohorts_[cohort_draws_.front().first];
        const std::uint64_t pos = rng.uniform_u64(cohort.members.size());
        winner_idx = cohort.members[pos];
        cohort.members[pos] = cohort.members.back();
        cohort.members.pop_back();
        --cohort_members_;
        cohort_winner = true;
      }
      winner = nodes_[winner_idx].id;
    }

    const SlotOutcome out = resolve_slot(slot, senders, action.jam, winner);
    if (trace_.storage() != Trace::Storage::kDisabled) trace_.record(out);
    if (config_.recording.wants_trace()) result_.slot_outcomes.push_back(out);
    if (out.jammed) ++result_.jammed_slots;
    if (observer != nullptr) observer->on_slot(out, action.inject, live_now);

    if (config_.recording.wants_node_stats()) {
      // Charge each cohort's binomial count to concrete members. A winning
      // cohort draw (c == 1, the member already popped above) is charged to
      // the winner directly; backoff sends were counted at the calendar.
      for (std::size_t di = 0; di < cohort_draws_.size(); ++di) {
        if (cohort_winner && di == 0) continue;
        attribute_cohort_sends(cohorts_[cohort_draws_[di].first], cohort_draws_[di].second,
                               attr_);
      }
      if (cohort_winner) ++nodes_[winner_idx].sends;
    }

    if (out.success()) {
      ++result_.successes;
      if (result_.first_success == 0) result_.first_success = slot;
      result_.last_success = slot;
      if (config_.recording.wants_success_times()) result_.success_times.push_back(slot);

      Node& w = nodes_[winner_idx];
      w.alive = false;
      ++w.gen;
      --live_;
      if (config_.recording.wants_node_stats()) {
        NodeStats ns;
        ns.id = w.id;
        ns.arrival = w.arrival;
        ns.departure = slot;
        ns.sends = w.sends;
        result_.node_stats.push_back(ns);
      }

      handle_success(slot);
      // Recycle only after handle_success: the winner may still sit in the
      // p1/p2 membership lists it scans (filtered there by `alive`), and its
      // pending calendar events stay stale because the slot keeps the
      // incremented generation across reuse.
      nodes_.release(winner_idx);
      // The last live node departed, so every pending event is stale.
      if (live_ == 0) {
        work_.calendar_stale += calendar_.size();
        calendar_.clear();
      }
    }

    work_.rng_words += main_.index() + attr_.index();
    result_.slots = slot;
    if (config_.stop_when_empty && result_.arrivals > 0 && live_ == 0) return true;
    if (config_.stop_after_first_success && result_.successes > 0) return true;
    return false;
  }

  /// Advance through slot `last` in one call, every slot from the one after
  /// the last stepped being protocol-silent and unjammed: nobody live,
  /// nothing arriving. The counters move as that many step() calls with an
  /// empty action would move them (step()'s silent short-circuit is the
  /// one-slot case), except that the slots count in work().slots_skipped
  /// and no observer sees them: the caller folds them into its own
  /// (WindowedMetrics::on_empty_slots). Only for drivers whose config sets
  /// no stop condition.
  void skip_silent(slot_t last) {
    CR_CHECK(live_ == 0 && last > result_.slots);
    CR_DCHECK(!config_.stop_when_empty && !config_.stop_after_first_success);
    work_.slots_skipped += last - result_.slots;
    (void)pass_silent(result_.slots + 1, last, false);
  }

  /// Seal the run: backlog, stranded node stats, observer end hook. Call
  /// exactly once, after the last step().
  SimResult finish(SlotObserver* observer) {
    result_.live_at_end = live_;
    if (config_.recording.wants_node_stats()) {
      // Collect the stranded (never-departed) nodes in arrival order. The
      // table hands slots out of a free list, so storage order is not id
      // order; sort by id.
      const std::size_t stranded_begin = result_.node_stats.size();
      for (std::uint32_t idx = 0; idx < nodes_.slot_count(); ++idx) {
        const Node& n = nodes_[idx];
        if (!n.alive) continue;
        NodeStats ns;
        ns.id = n.id;
        ns.arrival = n.arrival;
        ns.departure = 0;
        ns.sends = n.sends;
        result_.node_stats.push_back(ns);
      }
      std::sort(result_.node_stats.begin() + static_cast<std::ptrdiff_t>(stranded_begin),
                result_.node_stats.end(),
                [](const NodeStats& a, const NodeStats& b) { return a.id < b.id; });
    }
    if (observer != nullptr) observer->on_run_end(result_);
    return std::move(result_);
  }

  std::uint64_t live() const { return live_; }

  /// Capacity hint: the run injects `arrivals` nodes in all, so the table
  /// never needs more slots than that.
  void reserve_nodes(std::uint64_t arrivals) { nodes_.reserve(arrivals); }

  /// Plan-path idle-skip hint: assuming no arrivals, a slot no later than
  /// the earliest at which step() could consume a random draw or change any
  /// counter beyond the slot count itself. Returns 0 ("step every slot")
  /// while any cohort holds members — cohort binomials are drawn each slot —
  /// and otherwise the calendar's lower bound on its next event (stepping
  /// early, or for a stale event, is a draw-free step). A core with an empty
  /// calendar and no cohort members can do nothing until the next arrival,
  /// encoded as a wake-up beyond the horizon.
  slot_t next_event_slot() const {
    if (cohort_members_ > 0) return 0;
    const slot_t due = calendar_.next_due_slot();
    return due == 0 ? config_.horizon + 1 : due;
  }

  /// History counters an adversary reads through PublicHistory.
  const Trace& trace() const { return trace_; }
  /// Counters accumulated so far (valid between steps; finish() moves them).
  const SimResult& partial_result() const { return result_; }

  /// Resident node footprint (valid any time, including after finish()).
  CjzCoreMemoryStats memory_stats() const {
    CjzCoreMemoryStats s;
    s.peak_live_nodes = peak_live_;
    s.node_table_slots = nodes_.slot_count();
    s.node_bytes = s.node_table_slots * sizeof(Node);
    return s;
  }

  /// Work counted so far (valid any time, including after finish()).
  const CjzCoreWork& work() const { return work_; }

  /// Serialize the complete core state at a slot boundary — call only after
  /// step(k) returned and before step(k+1). The per-slot streams are rebound
  /// as a pure function of (seed, slot), so no generator state crosses the
  /// boundary. The Trace counters are NOT serialized; snapshot-bearing cores
  /// must run with Trace::Storage::kDisabled (enforced on load). Leads with a
  /// config echo so restoring into a differently-configured core is a named
  /// error, never silent divergence.
  void save(SnapshotWriter& w) const {
    w.u64(config_.horizon);
    w.u64(config_.seed);
    w.u8(config_.stop_when_empty ? 1 : 0);
    w.u8(config_.stop_after_first_success ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(config_.recording.tier));
    w.u64(config_.max_live_nodes);
    w.u8(options_.use_phase2 ? 1 : 0);
    w.u8(options_.swap_channels_on_restart ? 1 : 0);

    w.u64(result_.slots);
    w.u64(result_.arrivals);
    w.u64(result_.successes);
    w.u64(result_.jammed_slots);
    w.u64(result_.active_slots);
    w.u64(result_.total_sends);
    w.u64(result_.first_success);
    w.u64(result_.last_success);
    w.u64(result_.success_times.size());
    for (const slot_t t : result_.success_times) w.u64(t);
    w.u64(result_.node_stats.size());
    for (const NodeStats& ns : result_.node_stats) {
      w.u64(ns.id);
      w.u64(ns.arrival);
      w.u64(ns.departure);
      w.u64(ns.sends);
    }
    w.u64(result_.slot_outcomes.size());
    for (const SlotOutcome& so : result_.slot_outcomes) {
      w.u64(so.slot);
      w.u64(so.senders);
      w.u8(so.jammed ? 1 : 0);
      w.u64(so.winner);
    }

    w.u64(live_);
    w.u64(cohort_members_);
    w.u64(peak_live_);

    nodes_.save(w);

    w.u64(p1_nodes_.size());
    for (const std::uint32_t idx : p1_nodes_) w.u32(idx);
    for (int b = 0; b < 2; ++b) {
      w.u64(p2_nodes_[b].size());
      for (const std::uint32_t idx : p2_nodes_[b]) w.u32(idx);
    }
    w.u64(cohorts_.size());
    for (const Cohort& c : cohorts_) {
      w.u64(c.l3);
      w.u8(static_cast<std::uint8_t>(c.ctrl_parity));
      w.u64(c.members.size());
      for (const std::uint32_t m : c.members) w.u32(m);
    }

    calendar_.save(w);
  }

  /// Inverse of save(). On any failure the reader carries a named
  /// diagnostic and the core must be discarded (its state is unspecified but
  /// never out of bounds). Does not call expect_end() — callers may append
  /// their own fields after the core block.
  void load(SnapshotReader& r) {
    if (trace_.storage() != Trace::Storage::kDisabled) {
      r.fail("snapshot: restore requires a trace-disabled core (trace contents are "
             "not serialized)");
      return;
    }
    const auto echo_u64 = [&](const char* name, std::uint64_t want) {
      const std::uint64_t got = r.u64(name);
      if (r.ok() && got != want)
        r.fail("snapshot: config mismatch on " + std::string(name) + " (blob " +
               std::to_string(got) + ", run " + std::to_string(want) + ")");
    };
    const auto echo_u8 = [&](const char* name, std::uint8_t want) {
      const std::uint8_t got = r.u8(name);
      if (r.ok() && got != want)
        r.fail("snapshot: config mismatch on " + std::string(name) + " (blob " +
               std::to_string(got) + ", run " + std::to_string(want) + ")");
    };
    echo_u64("config.horizon", config_.horizon);
    echo_u64("config.seed", config_.seed);
    echo_u8("config.stop_when_empty", config_.stop_when_empty ? 1 : 0);
    echo_u8("config.stop_after_first_success", config_.stop_after_first_success ? 1 : 0);
    echo_u8("config.recording_tier", static_cast<std::uint8_t>(config_.recording.tier));
    echo_u64("config.max_live_nodes", config_.max_live_nodes);
    echo_u8("options.use_phase2", options_.use_phase2 ? 1 : 0);
    echo_u8("options.swap_channels", options_.swap_channels_on_restart ? 1 : 0);
    if (!r.ok()) return;

    result_.slots = r.u64("result.slots");
    result_.arrivals = r.u64("result.arrivals");
    result_.successes = r.u64("result.successes");
    result_.jammed_slots = r.u64("result.jammed_slots");
    result_.active_slots = r.u64("result.active_slots");
    result_.total_sends = r.u64("result.total_sends");
    result_.first_success = r.u64("result.first_success");
    result_.last_success = r.u64("result.last_success");
    const std::uint64_t n_times = r.u64("result.success_times.size");
    if (!r.check_count(n_times, 8, "result.success_times")) return;
    result_.success_times.clear();
    result_.success_times.reserve(n_times);
    for (std::uint64_t i = 0; i < n_times; ++i)
      result_.success_times.push_back(r.u64("result.success_time"));
    const std::uint64_t n_stats = r.u64("result.node_stats.size");
    if (!r.check_count(n_stats, 32, "result.node_stats")) return;
    result_.node_stats.clear();
    result_.node_stats.reserve(n_stats);
    for (std::uint64_t i = 0; i < n_stats; ++i) {
      NodeStats ns;
      ns.id = r.u64("node_stat.id");
      ns.arrival = r.u64("node_stat.arrival");
      ns.departure = r.u64("node_stat.departure");
      ns.sends = r.u64("node_stat.sends");
      result_.node_stats.push_back(ns);
    }
    const std::uint64_t n_outcomes = r.u64("result.slot_outcomes.size");
    if (!r.check_count(n_outcomes, 25, "result.slot_outcomes")) return;
    result_.slot_outcomes.clear();
    result_.slot_outcomes.reserve(n_outcomes);
    for (std::uint64_t i = 0; i < n_outcomes; ++i) {
      SlotOutcome so;
      so.slot = r.u64("slot_outcome.slot");
      so.senders = r.u64("slot_outcome.senders");
      so.jammed = r.u8("slot_outcome.jammed") != 0;
      so.winner = r.u64("slot_outcome.winner");
      result_.slot_outcomes.push_back(so);
    }

    live_ = r.u64("core.live");
    cohort_members_ = r.u64("core.cohort_members");
    peak_live_ = r.u64("core.peak_live");

    nodes_.load(r);
    if (!r.ok()) return;

    const auto read_idx = [&](const char* field) {
      const std::uint32_t idx = r.u32(field);
      if (r.ok() && idx >= nodes_.slot_count())
        r.fail("snapshot: node index out of range in " + std::string(field));
      return idx;
    };
    const std::uint64_t n_p1 = r.u64("core.p1.size");
    if (!r.check_count(n_p1, 4, "core.p1")) return;
    p1_nodes_.clear();
    p1_nodes_.reserve(n_p1);
    for (std::uint64_t i = 0; i < n_p1; ++i) p1_nodes_.push_back(read_idx("core.p1.entry"));
    for (int b = 0; b < 2; ++b) {
      const std::uint64_t n_p2 = r.u64("core.p2.size");
      if (!r.check_count(n_p2, 4, "core.p2")) return;
      p2_nodes_[b].clear();
      p2_nodes_[b].reserve(n_p2);
      for (std::uint64_t i = 0; i < n_p2; ++i)
        p2_nodes_[b].push_back(read_idx("core.p2.entry"));
    }
    const std::uint64_t n_cohorts = r.u64("core.cohorts.size");
    if (!r.check_count(n_cohorts, 17, "core.cohorts")) return;
    cohorts_.clear();
    cohorts_.reserve(n_cohorts);
    for (std::uint64_t i = 0; i < n_cohorts; ++i) {
      Cohort c;
      c.l3 = r.u64("cohort.l3");
      const std::uint8_t parity = r.u8("cohort.ctrl_parity");
      if (r.ok() && parity > 1) {
        r.fail("snapshot: cohort.ctrl_parity out of range");
        return;
      }
      c.ctrl_parity = parity;
      const std::uint64_t n_members = r.u64("cohort.members.size");
      if (!r.check_count(n_members, 4, "cohort.members")) return;
      c.members.reserve(n_members);
      for (std::uint64_t m = 0; m < n_members; ++m)
        c.members.push_back(read_idx("cohort.member"));
      cohorts_.push_back(std::move(c));
    }

    calendar_.load(r, result_.slots + 1);
    if (r.ok() && live_ == 0 && !calendar_.empty())
      r.fail("snapshot: calendar events pending with no live node");
  }

 private:
  struct Node {
    node_id id = kNoNode;
    slot_t arrival = 0;
    slot_t from = 0;      ///< backoff channel-origin (phases 1–2)
    std::uint64_t sends = 0;  ///< attributed channel accesses (energy)
    std::uint32_t gen = 0;
    /// Backoff stage k (window 2^k slots), so always < kMaxStages.
    std::uint8_t stage = 0;
    std::uint8_t phase = 1;
    std::uint8_t channel = 0;  ///< backoff channel parity (phases 1–2)
    bool alive = true;
  };
  static_assert(sizeof(Node) == 40, "Node is a hot per-arrival record; keep it at 40 bytes");
  /// A stage window 2^stage must fit in a slot_t.
  static constexpr std::uint64_t kMaxStages = 64;
  /// Node ids that fit the stage-stream key beside a phase bit and a stage.
  static constexpr node_id kMaxKeyedId = node_id{1} << 57;

  struct Cohort {
    slot_t l3 = 0;
    int ctrl_parity = 0;
    std::vector<std::uint32_t> members;
  };

  /// Node table. A node leaves at its one success; its slot then goes on a
  /// free list for the next arrival, so resident state is O(peak live
  /// nodes). Reuse cannot change a trajectory: (a) table indices never feed
  /// the RNG — draws index into cohort member POSITIONS, and node ids come
  /// from an arrival counter; (b) a recycled slot keeps its generation
  /// counter, so calendar events of the previous occupant stay stale under
  /// the `gen` check.
  class NodeStore {
   public:
    Node& operator[](std::uint32_t idx) { return slots_[idx]; }
    const Node& operator[](std::uint32_t idx) const { return slots_[idx]; }

    /// A fresh Node (id from the arrival counter, generation preserved from
    /// the slot's previous occupant) at a stable index.
    std::uint32_t acquire() {
      std::uint32_t idx;
      if (!free_.empty()) {
        idx = free_.back();
        free_.pop_back();
        const std::uint32_t gen = slots_[idx].gen;
        slots_[idx] = Node{};
        slots_[idx].gen = gen;
      } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
      }
      slots_[idx].id = next_id_++;
      return idx;
    }

    /// Hand a departed node's slot back for reuse. Call only once every
    /// membership list has dropped — or will filter by `alive` — the index,
    /// and only after its generation was bumped.
    void release(std::uint32_t idx) { free_.push_back(idx); }

    std::size_t slot_count() const { return slots_.size(); }
    void reserve(std::uint64_t n) { slots_.reserve(static_cast<std::size_t>(n)); }

    void save(SnapshotWriter& w) const {
      w.u64(next_id_);
      w.u64(slots_.size());
      for (const Node& n : slots_) {
        w.u64(n.id);
        w.u64(n.arrival);
        w.u64(n.from);
        w.u64(n.sends);
        w.u64(n.stage);
        w.u32(n.gen);
        w.u8(n.phase);
        w.u8(n.channel);
        w.u8(n.alive ? 1 : 0);
      }
      w.u64(free_.size());
      for (const std::uint32_t f : free_) w.u32(f);
    }

    void load(SnapshotReader& r) {
      next_id_ = r.u64("nodes.next_id");
      const std::uint64_t n_slots = r.u64("nodes.size");
      if (!r.check_count(n_slots, 47, "nodes")) return;
      slots_.clear();
      slots_.reserve(n_slots);
      for (std::uint64_t i = 0; i < n_slots; ++i) {
        Node n;
        n.id = r.u64("node.id");
        n.arrival = r.u64("node.arrival");
        n.from = r.u64("node.from");
        n.sends = r.u64("node.sends");
        const std::uint64_t stage = r.u64("node.stage");
        if (r.ok() && stage >= kMaxStages) {
          r.fail("snapshot: node.stage out of range (blob " + std::to_string(stage) +
                 ", max " + std::to_string(kMaxStages - 1) + ")");
          return;
        }
        n.stage = static_cast<std::uint8_t>(stage);
        n.gen = r.u32("node.gen");
        n.phase = r.u8("node.phase");
        n.channel = r.u8("node.channel");
        n.alive = r.u8("node.alive") != 0;
        slots_.push_back(n);
      }
      const std::uint64_t n_free = r.u64("nodes.free.size");
      if (!r.check_count(n_free, 4, "nodes.free")) return;
      free_.clear();
      free_.reserve(n_free);
      // acquire() overwrites whatever slot the list names, so a live slot or
      // a repeated one would hand a node that a cohort still lists to the
      // next arrival.
      std::vector<bool> listed(slots_.size());
      for (std::uint64_t i = 0; i < n_free; ++i) {
        const std::uint32_t f = r.u32("nodes.free.entry");
        if (!r.ok()) return;
        if (f >= slots_.size()) {
          r.fail("snapshot: free-list index out of range");
          return;
        }
        if (slots_[f].alive) {
          r.fail("snapshot: free list names live node slot " + std::to_string(f));
          return;
        }
        if (listed[f]) {
          r.fail("snapshot: free list names node slot " + std::to_string(f) + " twice");
          return;
        }
        listed[f] = true;
        free_.push_back(f);
      }
    }

   private:
    std::vector<Node> slots_;
    std::vector<std::uint32_t> free_;
    node_id next_id_ = 0;
  };

  void begin_stage(std::uint32_t idx, std::uint64_t k) {
    Node& n = nodes_[idx];
    CR_DCHECK(k < kMaxStages && (n.phase == 1 || n.phase == 2));
    n.stage = static_cast<std::uint8_t>(k);
    const std::uint64_t len = static_cast<std::uint64_t>(1) << k;
    const std::uint64_t vstart = len - 1;

    const unsigned sends = k < kSendsMemo ? sends_memo_[k] : fs_->backoff_sends(len);
    offsets_scratch_.clear();
    if (len == 1) {
      // Stage 0 has one slot, so its only offset is 0 and it draws nothing.
      offsets_scratch_.push_back(0);
    } else {
      // The stage draws from its own stream, keyed by (node id, phase,
      // stage): phase 2 restarts at stage 0, so the phase is part of the key,
      // and ids below 2^57 keep keys from aliasing. No other draw, and so no
      // calendar pop order, can shift these words. len is a power of two, so
      // Lemire rejection never loops: each offset is exactly one word, equal
      // to the multiply-shift of that word, as uniform_u64(len) would draw it.
      CR_CHECK(n.id < kMaxKeyedId);
      const std::uint64_t key = (n.id << 7) | (static_cast<std::uint64_t>(n.phase - 1) << 6) | k;
      words_scratch_.resize(sends);
      stage_base_.fill(key, 0, words_scratch_.data(), sends);
      work_.rng_words += sends;
      for (unsigned i = 0; i < sends; ++i)
        offsets_scratch_.push_back(static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(words_scratch_[i]) * len) >> 64));
      if (offsets_scratch_.size() == 2) {
        // The common case (two sends per stage) needs no general sort.
        if (offsets_scratch_[0] > offsets_scratch_[1])
          std::swap(offsets_scratch_[0], offsets_scratch_[1]);
        if (offsets_scratch_[0] == offsets_scratch_[1]) offsets_scratch_.pop_back();
      } else if (offsets_scratch_.size() > 2) {
        std::sort(offsets_scratch_.begin(), offsets_scratch_.end());
        offsets_scratch_.erase(std::unique(offsets_scratch_.begin(), offsets_scratch_.end()),
                               offsets_scratch_.end());
      }
    }
    for (const std::uint64_t off : offsets_scratch_) {
      const slot_t abs = n.from + 2 * (vstart + off);
      if (abs <= config_.horizon) schedule({abs, CalendarEvent::Kind::kSend, idx, n.gen});
    }
    const slot_t next_begin = n.from + 2 * ((len << 1) - 1);
    if (next_begin <= config_.horizon)
      schedule({next_begin, CalendarEvent::Kind::kStageBegin, idx, n.gen});
  }

  /// The counters of the protocol-silent slots first .. last, all jammed or
  /// none. With nobody live no cohort has members and the calendar is empty
  /// (it is cleared when the last node departs), so no slot can consume a
  /// draw. Returns the last slot's outcome. The last slot stays out of the
  /// loop: as the only iteration of one, step()'s silent slot took twice as
  /// long (GCC 12, -O2).
  SlotOutcome pass_silent(slot_t first, slot_t last, bool jam) {
    const bool traced = trace_.storage() != Trace::Storage::kDisabled;
    const bool recorded = config_.recording.wants_trace();
    const auto record = [&](const SlotOutcome& o) {
      if (traced) trace_.record(o);
      if (recorded) result_.slot_outcomes.push_back(o);
    };
    // The slots before the last matter only to a trace.
    if (traced || recorded)
      for (slot_t s = first; s < last; ++s) record(resolve_slot(s, 0, jam, kNoNode));
    const SlotOutcome out = resolve_slot(last, 0, jam, kNoNode);
    record(out);
    if (jam) result_.jammed_slots += last - first + 1;
    result_.slots = last;
    return out;
  }

  /// calendar_.push, counted in work_.
  void schedule(const CalendarEvent& ev) {
    calendar_.push(ev);
    ++work_.calendar_pushes;
    work_.calendar_peak = std::max<std::uint64_t>(work_.calendar_peak, calendar_.size());
  }

  void handle_success(slot_t slot) {
    const int sp = parity_channel(slot);

    // Start the new cohort from the largest merging population (moved, not
    // copied) — under heavy overload cohorts hold hundreds of thousands of
    // members and per-success copies would dominate the run time.
    std::vector<std::uint32_t>* largest = nullptr;
    for (auto& cohort : cohorts_) {
      if (cohort.ctrl_parity != sp || cohort.members.empty()) continue;
      if (largest == nullptr || cohort.members.size() > largest->size())
        largest = &cohort.members;
    }
    std::vector<std::uint32_t> joiners;
    if (largest != nullptr) joiners = std::move(*largest);
    for (auto& cohort : cohorts_) {
      if (cohort.ctrl_parity != sp || cohort.members.empty()) continue;
      if (&cohort.members == largest) continue;
      joiners.insert(joiners.end(), cohort.members.begin(), cohort.members.end());
      cohort.members.clear();
    }
    if (largest != nullptr) largest->clear();
    std::erase_if(cohorts_, [](const Cohort& c) { return c.members.empty(); });

    // Phase 1: every Phase-1 node heard this success. Paper behaviour: move
    // to Phase 2 on the other channel. Ablation (use_phase2 == false): join
    // the fresh Phase-3 cohort directly.
    for (const std::uint32_t idx : p1_nodes_) {
      Node& n = nodes_[idx];
      if (!n.alive || n.phase != 1) continue;
      ++n.gen;  // invalidate pending Phase-1 calendar events
      if (options_.use_phase2) {
        n.phase = 2;
        n.channel = static_cast<std::uint8_t>(1 - sp);
        n.from = slot + 1;
        p2_nodes_[1 - sp].push_back(idx);
        begin_stage(idx, 0);
      } else {
        n.phase = 3;
        joiners.push_back(idx);
        ++cohort_members_;
      }
    }
    p1_nodes_.clear();

    // Phase 2 -> Phase 3: the whole bucket waiting on this parity joins the
    // cohort anchored at l3 = slot (stale/dead entries filtered here).
    for (const std::uint32_t idx : p2_nodes_[sp]) {
      Node& n = nodes_[idx];
      if (!n.alive || n.phase != 2) continue;
      ++n.gen;
      n.phase = 3;
      joiners.push_back(idx);
      ++cohort_members_;
    }
    p2_nodes_[sp].clear();

    if (!joiners.empty()) {
      Cohort fresh;
      fresh.l3 = slot;
      // Paper behaviour: the new control channel is parity(slot+1), i.e. the
      // roles swap; the ablation pins them.
      fresh.ctrl_parity = options_.swap_channels_on_restart ? parity_channel(slot + 1) : sp;
      fresh.members = std::move(joiners);
      cohorts_.push_back(std::move(fresh));
    }
  }

  /// kNodeStats tier: charge `c` of `cohort`'s members with one send each
  /// (uniform subset; see engine/attribution.hpp).
  void attribute_cohort_sends(const Cohort& cohort, std::uint64_t c, CounterRng::Stream& rng_attr) {
    const auto m = static_cast<std::uint64_t>(cohort.members.size());
    CR_DCHECK(c <= m);
    visit_uniform_subset(m, c, rng_attr, attr_scratch_,
                         [&](std::uint64_t i) { ++nodes_[cohort.members[i]].sends; });
  }

  const FunctionSet* fs_;
  SimConfig config_;
  CjzOptions options_;
  /// Stream families of the main protocol draws and of send attribution;
  /// step() binds this slot's cursor of each (hi counter = slot number).
  CounterRng main_base_;
  CounterRng attr_base_;
  /// Backoff-stage offsets, one stream per (node id, phase, stage).
  CounterRng stage_base_;
  CounterRng::Stream main_;
  CounterRng::Stream attr_;

  Trace trace_;
  SimResult result_;
  Calendar calendar_;
  NodeStore nodes_;
  std::vector<std::uint32_t> p1_nodes_;
  // Phase-2 nodes partitioned by the parity they are waiting on, so a
  // success transitions a whole bucket in O(1) amortized instead of
  // rescanning every Phase-2 node per success.
  std::vector<std::uint32_t> p2_nodes_[2];
  std::vector<Cohort> cohorts_;
  std::uint64_t live_ = 0;
  /// High-water mark of live_ (memory_stats; the node table's size).
  std::uint64_t peak_live_ = 0;
  /// Total members across all cohorts — kept exact so next_event_slot() is
  /// O(1). Members enter in handle_success (the two phase-3 pushes) and leave
  /// only as a winning cohort draw; merges move them without changing the sum.
  std::uint64_t cohort_members_ = 0;
  CjzCoreWork work_;
  static constexpr std::uint64_t kSendsMemo = 41;
  unsigned sends_memo_[kSendsMemo] = {};
  std::vector<std::uint64_t> offsets_scratch_;
  std::vector<std::uint64_t> words_scratch_;
  SubsetScratch attr_scratch_;
  std::vector<std::uint32_t> backoff_senders_;
  std::vector<std::pair<std::size_t, std::uint64_t>> cohort_draws_;
};

}  // namespace cr

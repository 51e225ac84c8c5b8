#include "engine/plan_path.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stream_tags.hpp"

namespace cr {

namespace {

/// Set bits counted over the slot range [0, s].
std::uint64_t popcount_through(const std::uint64_t* bits, slot_t s) {
  const auto last = static_cast<std::size_t>(s >> 6);
  std::uint64_t c = 0;
  for (std::size_t w = 0; w < last; ++w) c += static_cast<std::uint64_t>(std::popcount(bits[w]));
  const std::uint64_t mask = ~std::uint64_t{0} >> (63 - (s & 63));
  return c + static_cast<std::uint64_t>(std::popcount(bits[last] & mask));
}

/// The next `n` coins of `rng` at probability `p` into words[0..n) as 0/1,
/// consuming exactly what n rng.bernoulli(p) calls would: one word per coin,
/// and none at all when p <= 0 or p >= 1.
void draw_coins(Rng& rng, double p, std::uint64_t* words, std::size_t n) {
  if (p <= 0.0 || p >= 1.0) {
    std::fill_n(words, n, std::uint64_t{p >= 1.0});
    return;
  }
  rng.fill(words, n);
  for (std::size_t i = 0; i < n; ++i)
    words[i] = static_cast<double>(words[i] >> 11) * 0x1.0p-53 < p ? 1 : 0;
}

/// One seed's jam-coin view on the plan path. Deterministic plans read the
/// plan's shared bitmap; i.i.d. plans draw coins lazily in blocks from the
/// seed's forked jammer stream — the same stream, slot order and coin
/// consumption as IidJammer in the per-slot loop. Laziness is what keeps the
/// analytic tail profitable: a seed that tails out early never pays for (or
/// holds the bitmap of) the tail's coins.
class JamBits {
 public:
  /// The block fills draw into `word_buf`; it must outlive this view.
  JamBits(const AdversaryPlan& plan, std::uint64_t seed, std::vector<std::uint64_t>& word_buf)
      : word_buf_(&word_buf), rate_(plan.jam_rate), horizon_(plan.horizon),
        lazy_(plan.iid_jams) {
    if (lazy_) {
      rng_ = Rng(seed).fork(streams::kAdversary).fork(streams::kJammer);
      own_.assign(AdversaryPlan::jam_words(0), 0);
      bits_ = own_.data();
    } else {
      bits_ = plan.jam_bits.data();
      filled_to_ = horizon_;
    }
  }

  bool jammed(slot_t s) {
    ensure(s);
    return ((bits_[s >> 6] >> (s & 63)) & 1) != 0;
  }

  /// Exact jam count over [1, s]; draws any still-missing coins in [1, s].
  std::uint64_t count_through(slot_t s) {
    ensure(s);
    return popcount_through(bits_, s);
  }

 private:
  void ensure(slot_t s) {
    if (!lazy_ || s <= filled_to_) return;
    std::uint64_t* coins = word_buf_->data();
    while (filled_to_ < s) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(word_buf_->size(), horizon_ - filled_to_));
      draw_coins(rng_, rate_, coins, n);
      own_.resize(AdversaryPlan::jam_words(filled_to_ + n));
      for (std::size_t i = 0; i < n; ++i) {
        const slot_t t = filled_to_ + 1 + static_cast<slot_t>(i);
        own_[t >> 6] |= coins[i] << (t & 63);
      }
      filled_to_ += static_cast<slot_t>(n);
    }
    bits_ = own_.data();
  }

  std::vector<std::uint64_t>* word_buf_;
  double rate_;
  slot_t horizon_;
  bool lazy_;
  slot_t filled_to_ = 0;  ///< coins drawn for [1, filled_to_]
  std::vector<std::uint64_t> own_;  ///< i.i.d. plans: this seed's bitmap
  const std::uint64_t* bits_ = nullptr;
  Rng rng_;
};

using Arrivals = std::vector<std::pair<slot_t, std::uint64_t>>;

/// Materialize one seed's Bernoulli arrival list — the same stream, window and
/// coin consumption as BernoulliArrivals in the per-slot loop.
Arrivals bernoulli_arrivals(std::uint64_t seed, slot_t horizon, const AdversaryPlan& plan,
                            std::vector<std::uint64_t>& word_buf) {
  Arrivals arrivals;
  const auto whole = static_cast<std::uint64_t>(plan.arrival_rate);
  const double frac = plan.arrival_rate - static_cast<double>(whole);
  Rng rng = Rng(seed).fork(streams::kAdversary).fork(streams::kArrival);
  const slot_t to = std::min(plan.arrival_to, horizon);
  for (slot_t s = plan.arrival_from; s <= to;) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(word_buf.size(), to - s + 1));
    draw_coins(rng, frac, word_buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t count = whole + word_buf[i];
      if (count > 0) arrivals.emplace_back(s + static_cast<slot_t>(i), count);
    }
    s += static_cast<slot_t>(n);
  }
  return arrivals;
}

}  // namespace

bool plan_path_allowed(const SimConfig& config) {
  return !config.recording.wants_trace() && !config.stop_when_empty &&
         !config.stop_after_first_success;
}

SimResult run_plan(const FunctionSet& fs, CjzOptions options, const SimConfig& config,
                   const AdversaryPlan& plan, CjzCoreMemoryStats* memory, CjzCoreWork* work) {
  CR_CHECK(plan.valid && plan_path_allowed(config) && plan.horizon == config.horizon);
  const slot_t horizon = config.horizon;
  const std::uint64_t seed = config.seed;
  // kDisabled: the plan's components never read the history, so the core
  // skips trace bookkeeping entirely.
  CjzCore core(&fs, config, options, Trace::Storage::kDisabled);

  std::vector<std::uint64_t> word_buf(4096);
  JamBits jams(plan, seed, word_buf);

  const Arrivals seed_arrivals =
      plan.bernoulli_arrivals ? bernoulli_arrivals(seed, horizon, plan, word_buf) : Arrivals{};
  const Arrivals& arrivals = plan.bernoulli_arrivals ? seed_arrivals : plan.schedule;
  // The whole run's arrivals are known: reserve the node table once instead
  // of growing it by doubling (the copy would briefly hold both tables). A
  // recycled table never outgrows the run's arrivals, and capacity that is
  // never touched is never resident.
  std::uint64_t total_arrivals = 0;
  for (const auto& entry : arrivals) total_arrivals += entry.second;
  core.reserve_nodes(total_arrivals);
  std::size_t next = 0;  ///< first arrival entry not yet injected

  // Event-driven loop. Invariant: every slot NOT stepped has no arrival,
  // no due calendar event and no cohort member, so the core would consume
  // no draws and only bump the slot/active/jam counters there (see
  // CjzCore::next_event_slot) — exactly the fixups applied below.
  const bool can_tail = plan.tail_jam >= 0.0;
  std::uint64_t live = 0;
  std::uint64_t skipped_active = 0;
  slot_t prev = 0;
  slot_t tail_slot = 0;
  for (;;) {
    const slot_t next_arrival = next < arrivals.size() ? arrivals[next].first : horizon + 1;
    // The tail fires at the first slot past both quiet_after and the last
    // stepped slot with nobody live: from there on no slot can do anything
    // but count a jam.
    if (can_tail && live == 0) {
      const slot_t t = std::max(prev, plan.quiet_after) + 1;
      if (t <= horizon && next_arrival >= t) {
        tail_slot = t;
        break;
      }
    }
    // A dead seed jumps straight to the next arrival: its calendar was
    // cleared when its last node departed.
    slot_t slot = next_arrival;
    if (live > 0) {
      slot_t wake = core.next_event_slot();
      if (wake <= prev) wake = prev + 1;  // 0 = cohorts live: step every slot
      slot = std::min(wake, next_arrival);
    }
    if (slot > horizon) break;
    AdversaryAction action;
    action.jam = jams.jammed(slot);
    if (slot == next_arrival) action.inject = arrivals[next++].second;
    if (live > 0) skipped_active += static_cast<std::uint64_t>(slot - prev - 1);
    core.step(slot, action, nullptr);
    prev = slot;
    live = core.live();
  }
  if (live > 0) skipped_active += static_cast<std::uint64_t>(horizon - prev);

  if (memory != nullptr) *memory = core.memory_stats();
  if (work != nullptr) {
    *work = core.work();
    work->slots_skipped = horizon - work->slots_stepped - work->slots_silent;
    work->plan_path = true;
  }
  SimResult res = core.finish(nullptr);
  // Fixups for the skipped slots: the run covers the whole horizon, every
  // live-but-silent slot was active, and the jam count is the bitmap's —
  // stepped and skipped coins alike — plus, when the tail fired, one binomial
  // over the remaining slots from the dedicated tail stream.
  res.slots = horizon;
  res.active_slots += skipped_active;
  res.jammed_slots = jams.count_through(tail_slot == 0 ? horizon : tail_slot - 1);
  if (tail_slot != 0)
    res.jammed_slots += CounterRng(seed).fork(streams::kPlanTail).stream(tail_slot).binomial(
        horizon - tail_slot + 1, plan.tail_jam);
  return res;
}

}  // namespace cr

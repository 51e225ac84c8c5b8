#include "engine/lockstep.hpp"

#include <algorithm>
#include <bit>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stream_tags.hpp"
#include "engine/cjz_core.hpp"

namespace cr {

SimResult run_lockstep_single(const ProtocolSpec& spec, Adversary& adversary,
                              const SimConfig& config, SlotObserver* observer) {
  CR_CHECK(spec.kind == ProtocolSpec::Kind::kCjz);
  Rng rng_adv = Rng(config.seed).fork(streams::kAdversary);

  CjzCore<CounterCjzStreams> core(&spec.fs, config, spec.cjz_options,
                                  CounterCjzStreams(config.seed));
  PublicHistory history(core.trace());

  for (slot_t slot = 1; slot <= config.horizon; ++slot) {
    const AdversaryAction action = adversary.on_slot(slot, history, rng_adv);
    if (core.step(slot, action, observer)) break;
  }
  return core.finish(observer);
}

namespace {

/// State of one in-flight replication inside a generic lockstep pass.
struct Rep {
  CjzCore<CounterCjzStreams> core;
  std::unique_ptr<ArrivalProcess> arrival;
  std::unique_ptr<Jammer> jammer;
  Rng arrival_rng;
  Rng jammer_rng;
  std::uint64_t seed = 0;
  bool done = false;
  bool tail_skipped = false;
  std::uint64_t tail_jammed = 0;

  Rep(const ProtocolSpec& spec, const SimConfig& cfg, const LockstepSweep& sweep,
      std::uint64_t s)
      : core(&spec.fs, cfg, spec.cjz_options, CounterCjzStreams(s)),
        arrival(sweep.make_arrival(s)),
        jammer(sweep.make_jammer(s)),
        // Mirror ComposedAdversary's lazy forks: the engine's adversary
        // stream is handed over unconsumed, so both component streams are
        // pure functions of the replication seed.
        arrival_rng(Rng(s).fork(streams::kAdversary).fork(streams::kArrival)),
        jammer_rng(Rng(s).fork(streams::kAdversary).fork(streams::kJammer)),
        seed(s) {}
};

/// Advance replications [lo, hi) in lockstep over the whole slot axis,
/// writing each finished result into out[r].
void run_chunk(const ProtocolSpec& spec, const SimConfig& config, const LockstepSweep& sweep,
               int lo, int hi, std::vector<SimResult>& out) {
  const bool can_tail = sweep.analytic_tail && sweep.tail_jam >= 0.0 &&
                        !config.recording.wants_trace() && !config.stop_when_empty;

  std::vector<Rep> reps;
  reps.reserve(static_cast<std::size_t>(hi - lo));
  for (int r = lo; r < hi; ++r) {
    SimConfig cfg = config;
    cfg.seed = sweep.base_seed + static_cast<std::uint64_t>(r);
    reps.emplace_back(spec, cfg, sweep, cfg.seed);
  }

  std::size_t running = reps.size();
  for (slot_t slot = 1; slot <= config.horizon && running > 0; ++slot) {
    for (auto& rep : reps) {
      if (rep.done) continue;

      if (can_tail && slot > sweep.quiet_after && rep.core.live() == 0) {
        // Certificate: no arrivals can occur from here on and no node is
        // live, so every remaining slot is protocol-silent — empty or
        // jammed by the i.i.d. tail. One binomial on the dedicated tail
        // stream replaces horizon - slot + 1 scalar slots.
        const auto remaining = static_cast<std::uint64_t>(config.horizon - slot + 1);
        rep.tail_jammed = CounterRng(rep.seed)
                              .fork(streams::kLockstepTail)
                              .stream(slot)
                              .binomial(remaining, sweep.tail_jam);
        rep.tail_skipped = true;
        rep.done = true;
        --running;
        continue;
      }

      PublicHistory history(rep.core.trace());
      AdversaryAction action;
      // Same order as ComposedAdversary: jam is decided before arrivals.
      action.jam = rep.jammer->jams(slot, history, rep.jammer_rng);
      action.inject = rep.arrival->arrivals(slot, history, rep.arrival_rng);
      if (rep.core.step(slot, action, nullptr)) {
        rep.done = true;
        --running;
      }
    }
  }

  for (int r = lo; r < hi; ++r) {
    Rep& rep = reps[static_cast<std::size_t>(r - lo)];
    SimResult res = rep.core.finish(nullptr);
    if (rep.tail_skipped) {
      res.slots = config.horizon;
      res.jammed_slots += rep.tail_jammed;
    }
    out[static_cast<std::size_t>(r)] = std::move(res);
  }
}

// --- plan path -------------------------------------------------------------

/// Shared deterministic jam bitmap (bit s = slot s jammed) + its popcount
/// over [1, horizon]. Built once per sweep for non-iid jam plans.
struct SharedJamBits {
  std::vector<std::uint64_t> bits;
  std::uint64_t count = 0;
};

std::size_t jam_words(slot_t horizon) {
  return static_cast<std::size_t>(horizon >> 6) + 2;
}

SharedJamBits build_shared_jam_bits(const LockstepPlan& plan, slot_t horizon) {
  SharedJamBits out;
  out.bits.assign(jam_words(horizon), 0);
  for (const slot_t s : plan.jam_slots) {
    if (s < 1 || s > horizon) continue;
    out.bits[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++out.count;
  }
  return out;
}

/// Set bits counted over the inclusive slot range [from, to].
std::uint64_t popcount_range(const std::uint64_t* bits, slot_t from, slot_t to) {
  if (from > to) return 0;
  const std::size_t wf = static_cast<std::size_t>(from >> 6);
  const std::size_t wt = static_cast<std::size_t>(to >> 6);
  const std::uint64_t mf = ~std::uint64_t{0} << (from & 63);
  const std::uint64_t mt =
      (to & 63) == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << ((to & 63) + 1)) - 1;
  if (wf == wt) return static_cast<std::uint64_t>(std::popcount(bits[wf] & mf & mt));
  std::uint64_t c = static_cast<std::uint64_t>(std::popcount(bits[wf] & mf)) +
                    static_cast<std::uint64_t>(std::popcount(bits[wt] & mt));
  for (std::size_t w = wf + 1; w < wt; ++w)
    c += static_cast<std::uint64_t>(std::popcount(bits[w]));
  return c;
}

/// One replication's jam-coin view on the plan path. Deterministic plans read
/// the prefilled shared bitmap; i.i.d. plans draw coins lazily in blocks from
/// the replication's forked jammer stream — the same stream, slot order and
/// one-word-per-coin consumption as IidJammer on the generic path
/// (rng_detail::bernoulli draws nothing for p <= 0 or p >= 1, so those edges
/// draw nothing here either). Laziness is what keeps the analytic tail skip
/// profitable: a replication that tails out early never pays for the tail's
/// coins, exactly like the generic path.
class JamBits {
 public:
  void reset_shared(const SharedJamBits& shared, slot_t horizon) {
    bits_ = shared.bits.data();
    mut_bits_ = nullptr;
    horizon_ = horizon;
    filled_to_ = horizon;
    count_ = shared.count;
    lazy_ = false;
  }

  void reset_iid(std::uint64_t seed, slot_t horizon, double rate,
                 std::vector<std::uint64_t>& bits, std::vector<std::uint64_t>& word_buf) {
    std::fill(bits.begin(), bits.end(), 0);
    bits_ = bits.data();
    mut_bits_ = bits.data();
    word_buf_ = &word_buf;
    horizon_ = horizon;
    rate_ = rate;
    filled_to_ = horizon;
    count_ = 0;
    lazy_ = false;
    if (rate >= 1.0) {
      for (slot_t s = 1; s <= horizon; ++s)
        mut_bits_[s >> 6] |= std::uint64_t{1} << (s & 63);
      count_ = static_cast<std::uint64_t>(horizon);
    } else if (rate > 0.0) {
      rng_ = Rng(seed).fork(streams::kAdversary).fork(streams::kJammer);
      filled_to_ = 0;
      lazy_ = true;
    }
  }

  bool jammed(slot_t s) {
    ensure(s);
    return ((bits_[s >> 6] >> (s & 63)) & 1) != 0;
  }

  /// Exact jam count over [1, s]; draws any still-missing coins in [1, s].
  std::uint64_t count_through(slot_t s) {
    ensure(s);
    return count_ - popcount_range(bits_, s + 1, filled_to_);
  }

 private:
  void ensure(slot_t s) {
    if (!lazy_ || s <= filled_to_) return;
    while (filled_to_ < s) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(word_buf_->size(), horizon_ - filled_to_));
      rng_.fill(word_buf_->data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<double>((*word_buf_)[i] >> 11) * 0x1.0p-53 < rate_) {
          const slot_t t = filled_to_ + 1 + static_cast<slot_t>(i);
          mut_bits_[t >> 6] |= std::uint64_t{1} << (t & 63);
          ++count_;
        }
      }
      filled_to_ += static_cast<slot_t>(n);
    }
  }

  const std::uint64_t* bits_ = nullptr;
  std::uint64_t* mut_bits_ = nullptr;
  std::vector<std::uint64_t>* word_buf_ = nullptr;
  Rng rng_;
  double rate_ = 0.0;
  slot_t horizon_ = 0;
  slot_t filled_to_ = 0;
  std::uint64_t count_ = 0;
  bool lazy_ = false;
};

/// Materialize one replication's Bernoulli arrival list — the same stream,
/// window and coin consumption as BernoulliArrivals on the generic path.
void fill_bernoulli_arrivals(std::uint64_t seed, slot_t horizon, const LockstepPlan& plan,
                             std::vector<std::pair<slot_t, std::uint64_t>>& arrivals,
                             std::vector<std::uint64_t>& word_buf) {
  arrivals.clear();
  const auto whole = static_cast<std::uint64_t>(plan.arrival_rate);
  const double frac = plan.arrival_rate - static_cast<double>(whole);
  const slot_t to = std::min(plan.arrival_to, horizon);
  if (frac <= 0.0) {
    if (whole == 0) return;
    for (slot_t s = plan.arrival_from; s <= to; ++s) arrivals.emplace_back(s, whole);
    return;
  }
  Rng rng = Rng(seed).fork(streams::kAdversary).fork(streams::kArrival);
  slot_t s = plan.arrival_from;
  while (s <= to) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(word_buf.size(), to - s + 1));
    rng.fill(word_buf.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t count =
          whole +
          ((static_cast<double>(word_buf[i] >> 11) * 0x1.0p-53 < frac) ? 1 : 0);
      if (count > 0) arrivals.emplace_back(s + static_cast<slot_t>(i), count);
    }
    s += static_cast<slot_t>(n);
  }
}

/// Plan-path pass over replications [lo, hi): event-driven per replication.
/// Only slots with a certified arrival or a core wake-up are stepped; the
/// slot/active/jam counters for the skipped (provably draw-free) slots are
/// fixed up arithmetically afterwards, so the results are bit-identical to
/// stepping every slot on the generic path.
void run_plan_chunk(const ProtocolSpec& spec, const SimConfig& config,
                    const LockstepSweep& sweep, const SharedJamBits& shared_jams, int lo,
                    int hi, std::vector<SimResult>& out) {
  const LockstepPlan& plan = sweep.plan;
  const slot_t horizon = config.horizon;
  // Same certificate gate as the generic path (use_plan already excludes the
  // trace/stop flags): past quiet_after with nobody live, the rest of the run
  // is protocol-silent, so one binomial on the dedicated tail stream replaces
  // the remaining jam coins — which the lazy JamBits then never draws.
  const bool can_tail = sweep.analytic_tail && sweep.tail_jam >= 0.0;

  std::vector<std::uint64_t> rep_jam_bits;
  if (plan.iid_jams) rep_jam_bits.assign(jam_words(horizon), 0);
  std::vector<std::uint64_t> word_buf(4096);
  std::vector<std::pair<slot_t, std::uint64_t>> rep_arrivals;
  JamBits jams;

  for (int r = lo; r < hi; ++r) {
    const std::uint64_t seed = sweep.base_seed + static_cast<std::uint64_t>(r);
    SimConfig cfg = config;
    cfg.seed = seed;
    // kDisabled: the plan's components never read the history, so the core
    // skips trace bookkeeping entirely.
    CjzCore<CounterCjzStreams> core(&spec.fs, cfg, spec.cjz_options, CounterCjzStreams(seed),
                                    Trace::Storage::kDisabled);

    if (plan.iid_jams)
      jams.reset_iid(seed, horizon, plan.jam_rate, rep_jam_bits, word_buf);
    else
      jams.reset_shared(shared_jams, horizon);

    const std::vector<std::pair<slot_t, std::uint64_t>>* arrivals = &plan.schedule;
    if (plan.bernoulli_arrivals) {
      fill_bernoulli_arrivals(seed, horizon, plan, rep_arrivals, word_buf);
      arrivals = &rep_arrivals;
    }

    // Event-driven loop. Invariant: every slot NOT stepped has no arrival,
    // no due calendar event and no cohort member, so the core would consume
    // no draws and only bump the slot/active/jam counters there (see
    // CjzCore::next_event_slot) — exactly the fixups applied below.
    std::size_t ai = 0;
    std::uint64_t live = 0;
    std::uint64_t skipped_active = 0;
    slot_t prev = 0;
    slot_t tail_slot = 0;
    for (;;) {
      const slot_t next_arrival =
          ai < arrivals->size() ? (*arrivals)[ai].first : horizon + 1;
      // The generic loop checks the tail certificate at the top of every
      // slot; with nobody live the first candidate after prev that clears
      // quiet_after is reached before anything else can happen, so the skip
      // fires at exactly the slot the per-slot loop would fire it at.
      if (can_tail && live == 0) {
        const slot_t t = std::max(prev, sweep.quiet_after) + 1;
        if (t <= horizon && next_arrival >= t) {
          tail_slot = t;
          break;
        }
      }
      slot_t slot = next_arrival;
      if (live > 0) {
        slot_t wake = core.next_event_slot();
        if (wake <= prev) wake = prev + 1;  // 0 = cohorts live: step every slot
        slot = std::min(wake, next_arrival);
      }
      if (slot > horizon) break;
      // A dead replication jumps straight to the next arrival; calendar
      // events left behind by departed nodes must be discarded with the
      // per-slot loop's own pop sequence so later tie-breaks stay identical.
      if (live == 0) core.drain_stale_before(slot);
      AdversaryAction action;
      action.jam = jams.jammed(slot);
      action.inject = slot == next_arrival ? (*arrivals)[ai++].second : 0;
      if (live > 0) skipped_active += static_cast<std::uint64_t>(slot - prev - 1);
      core.step(slot, action, nullptr);
      prev = slot;
      live = core.live();
    }
    if (live > 0) skipped_active += static_cast<std::uint64_t>(horizon - prev);

    SimResult res = core.finish(nullptr);
    // Fixups for the skipped slots: the run covers the whole horizon, every
    // live-but-silent slot was active, and the jam count is exact — stepped
    // and skipped coins from the bitmap, plus, when the tail skip fired, the
    // same binomial the generic path draws at the same slot from the same
    // stream, so both paths stay bit-identical.
    res.slots = horizon;
    res.active_slots += skipped_active;
    if (tail_slot != 0) {
      const auto remaining = static_cast<std::uint64_t>(horizon - tail_slot + 1);
      res.jammed_slots = jams.count_through(tail_slot - 1) +
                         CounterRng(seed)
                             .fork(streams::kLockstepTail)
                             .stream(tail_slot)
                             .binomial(remaining, sweep.tail_jam);
    } else {
      res.jammed_slots = jams.count_through(horizon);
    }
    out[static_cast<std::size_t>(r)] = std::move(res);
  }
}

}  // namespace

std::vector<SimResult> run_lockstep_many(const ProtocolSpec& spec, const SimConfig& config,
                                         const LockstepSweep& sweep) {
  CR_CHECK(spec.kind == ProtocolSpec::Kind::kCjz);
  CR_CHECK(sweep.reps >= 0);
  CR_CHECK(sweep.make_arrival != nullptr && sweep.make_jammer != nullptr);

  std::vector<SimResult> out(static_cast<std::size_t>(sweep.reps));
  if (sweep.reps == 0) return out;

  // The plan path needs every counter to be reconstructible from the plan:
  // a per-slot trace or a stop flag (which truncates the jam-coin sequence
  // at the stop slot) forces the generic per-slot loop.
  const bool use_plan = sweep.plan.valid && !config.recording.wants_trace() &&
                        !config.stop_when_empty && !config.stop_after_first_success;
  SharedJamBits shared_jams;
  if (use_plan && !sweep.plan.iid_jams)
    shared_jams = build_shared_jam_bits(sweep.plan, config.horizon);

  const auto chunk = [&](int lo, int hi) {
    if (use_plan)
      run_plan_chunk(spec, config, sweep, shared_jams, lo, hi, out);
    else
      run_chunk(spec, config, sweep, lo, hi, out);
  };

  const int threads = std::min(sweep.threads < 1 ? 1 : sweep.threads, sweep.reps);
  if (threads <= 1) {
    chunk(0, sweep.reps);
    return out;
  }

  // Contiguous chunks keep each thread's pass over disjoint cache lines and
  // make the result layout independent of scheduling.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const int per = sweep.reps / threads;
  const int extra = sweep.reps % threads;
  int lo = 0;
  for (int t = 0; t < threads; ++t) {
    const int hi = lo + per + (t < extra ? 1 : 0);
    pool.emplace_back([&chunk, lo, hi] { chunk(lo, hi); });
    lo = hi;
  }
  for (auto& th : pool) th.join();
  return out;
}

}  // namespace cr

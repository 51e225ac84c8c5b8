#include "adversary/arrivals.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/stream_tags.hpp"

namespace cr {

ComposedAdversary::ComposedAdversary(std::unique_ptr<ArrivalProcess> arrivals,
                                     std::unique_ptr<Jammer> jammer)
    : arrivals_(std::move(arrivals)), jammer_(std::move(jammer)) {
  CR_CHECK(arrivals_ != nullptr);
  CR_CHECK(jammer_ != nullptr);
}

AdversaryAction ComposedAdversary::on_slot(slot_t slot, const PublicHistory& history, Rng& rng) {
  // Fork one stream per component so the jammer's and the arrival process's
  // draw sequences are independent: swapping one workload axis cannot shift
  // the other's randomness. The engine hands the adversary stream over
  // unconsumed on the first slot, so both forks are pure functions of the
  // run seed.
  if (!streams_forked_) {
    arrival_rng_ = rng.fork(streams::kArrival);
    jammer_rng_ = rng.fork(streams::kJammer);
    streams_forked_ = true;
  }
  AdversaryAction act;
  // Jamming decision first: it may not depend on this slot's arrivals per the
  // model (both are decided before the slot plays out); a fixed order also
  // keeps the observable trace deterministic.
  act.jam = jammer_->jams(slot, history, jammer_rng_);
  act.inject = arrivals_->arrivals(slot, history, arrival_rng_);
  return act;
}

std::string ComposedAdversary::name() const {
  return arrivals_->name() + "+" + jammer_->name();
}

namespace {

class NoArrivals final : public ArrivalProcess {
 public:
  std::uint64_t arrivals(slot_t, const PublicHistory&, Rng&) override { return 0; }
  std::string name() const override { return "none"; }
  bool fill_plan(AdversaryPlan& plan) override {
    plan.quiet_after = 0;
    return true;
  }
};

class BatchArrival final : public ArrivalProcess {
 public:
  BatchArrival(std::uint64_t n, slot_t at) : n_(n), at_(at) {}
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    return slot == at_ ? n_ : 0;
  }
  std::string name() const override { return "batch(" + std::to_string(n_) + ")"; }
  bool fill_plan(AdversaryPlan& plan) override {
    if (at_ >= 1 && at_ <= plan.horizon && n_ > 0) plan.schedule.emplace_back(at_, n_);
    plan.quiet_after = at_;
    return true;
  }

 private:
  std::uint64_t n_;
  slot_t at_;
};

class ScheduledArrivals final : public ArrivalProcess {
 public:
  explicit ScheduledArrivals(std::vector<std::pair<slot_t, std::uint64_t>> schedule) {
    for (const auto& [slot, count] : schedule) counts_[slot] += count;
  }
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    const auto it = counts_.find(slot);
    return it == counts_.end() ? 0 : it->second;
  }
  std::string name() const override { return "scheduled"; }

 private:
  std::map<slot_t, std::uint64_t> counts_;
};

class BernoulliArrivals final : public ArrivalProcess {
 public:
  BernoulliArrivals(double rate, slot_t from, slot_t to) : rate_(rate), from_(from), to_(to) {
    CR_CHECK(rate >= 0.0);
  }
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng& rng) override {
    if (slot < from_ || slot > to_) return 0;
    const auto whole = static_cast<std::uint64_t>(rate_);
    const double frac = rate_ - static_cast<double>(whole);
    return whole + (rng.bernoulli(frac) ? 1 : 0);
  }
  std::string name() const override { return "bernoulli(" + std::to_string(rate_) + ")"; }
  bool fill_plan(AdversaryPlan& plan) override {
    plan.bernoulli_arrivals = true;
    plan.arrival_rate = rate_;
    plan.arrival_from = std::max<slot_t>(from_, 1);  // the first coin is slot 1's
    plan.arrival_to = plan.quiet_after = to_;
    return true;
  }

 private:
  double rate_;
  slot_t from_, to_;
};

class UniformRandomArrivals final : public ArrivalProcess {
 public:
  UniformRandomArrivals(std::uint64_t total, slot_t horizon, std::uint64_t seed) {
    CR_CHECK(horizon >= 1);
    Rng rng(seed);
    for (std::uint64_t i = 0; i < total; ++i) counts_[1 + rng.uniform_u64(horizon)] += 1;
  }
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    const auto it = counts_.find(slot);
    return it == counts_.end() ? 0 : it->second;
  }
  std::string name() const override { return "uniform-random"; }

 private:
  std::map<slot_t, std::uint64_t> counts_;
};

class PacedArrivals final : public ArrivalProcess {
 public:
  PacedArrivals(FunctionSet fs, double margin, slot_t until)
      : fs_(std::move(fs)), margin_(margin), until_(until) {
    CR_CHECK(margin > 0.0);
  }
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    if (slot > until_) return 0;
    const double t = static_cast<double>(slot);
    const double target = t / (margin_ * fs_.f(t));
    if (static_cast<double>(injected_) >= target) return 0;
    const auto deficit = static_cast<std::uint64_t>(target - static_cast<double>(injected_));
    injected_ += deficit;
    return deficit;
  }
  std::string name() const override { return "paced(1/" + std::to_string(margin_) + "f)"; }
  bool fill_plan(AdversaryPlan& plan) override { return walk_plan(*this, plan); }

 private:
  FunctionSet fs_;
  double margin_;
  slot_t until_;
  std::uint64_t injected_ = 0;
};

class BurstyArrivals final : public ArrivalProcess {
 public:
  BurstyArrivals(slot_t period, std::uint64_t burst, slot_t from, slot_t to)
      : period_(period), burst_(burst), from_(from), to_(to) {
    CR_CHECK(period >= 1);
  }
  std::uint64_t arrivals(slot_t slot, const PublicHistory&, Rng&) override {
    if (slot < from_ || slot > to_) return 0;
    return ((slot - from_) % period_ == 0) ? burst_ : 0;
  }
  std::string name() const override {
    return "bursty(" + std::to_string(burst_) + "/" + std::to_string(period_) + ")";
  }
  bool fill_plan(AdversaryPlan& plan) override { return walk_plan(*this, plan); }

 private:
  slot_t period_;
  std::uint64_t burst_;
  slot_t from_, to_;
};

}  // namespace

std::unique_ptr<ArrivalProcess> no_arrivals() { return std::make_unique<NoArrivals>(); }

std::unique_ptr<ArrivalProcess> batch_arrival(std::uint64_t n, slot_t at_slot) {
  return std::make_unique<BatchArrival>(n, at_slot);
}

std::unique_ptr<ArrivalProcess> scheduled_arrivals(
    std::vector<std::pair<slot_t, std::uint64_t>> schedule) {
  return std::make_unique<ScheduledArrivals>(std::move(schedule));
}

std::unique_ptr<ArrivalProcess> bernoulli_arrivals(double rate, slot_t from, slot_t to) {
  return std::make_unique<BernoulliArrivals>(rate, from, to);
}

std::unique_ptr<ArrivalProcess> uniform_random_arrivals(std::uint64_t total, slot_t horizon,
                                                        std::uint64_t seed) {
  return std::make_unique<UniformRandomArrivals>(total, horizon, seed);
}

std::unique_ptr<ArrivalProcess> paced_arrivals(FunctionSet fs, double margin, slot_t until) {
  return std::make_unique<PacedArrivals>(std::move(fs), margin, until);
}

std::unique_ptr<ArrivalProcess> bursty_arrivals(slot_t period, std::uint64_t burst, slot_t from,
                                                slot_t to) {
  return std::make_unique<BurstyArrivals>(period, burst, from, to);
}

}  // namespace cr

#include "adversary/jammers.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace cr {
namespace {

class NoJam final : public Jammer {
 public:
  bool jams(slot_t, const PublicHistory&, Rng&) override { return false; }
  std::string name() const override { return "nojam"; }
  std::optional<QuietTail> iid_tail() const override { return QuietTail{0, 0.0}; }
};

class IidJammer final : public Jammer {
 public:
  explicit IidJammer(double fraction) : fraction_(fraction) {
    CR_CHECK(fraction >= 0.0 && fraction <= 1.0);
  }
  bool jams(slot_t, const PublicHistory&, Rng& rng) override { return rng.bernoulli(fraction_); }
  std::string name() const override { return "iid(" + std::to_string(fraction_) + ")"; }
  std::optional<QuietTail> iid_tail() const override { return QuietTail{0, fraction_}; }

 private:
  double fraction_;
};

class PrefixJammer final : public Jammer {
 public:
  explicit PrefixJammer(slot_t count) : count_(count) {}
  bool jams(slot_t slot, const PublicHistory&, Rng&) override { return slot <= count_; }
  std::string name() const override { return "prefix(" + std::to_string(count_) + ")"; }
  std::optional<QuietTail> iid_tail() const override { return QuietTail{count_, 0.0}; }

 private:
  slot_t count_;
};

class PeriodicJammer final : public Jammer {
 public:
  PeriodicJammer(slot_t period, slot_t burst) : period_(period), burst_(burst) {
    CR_CHECK(period >= 1);
    CR_CHECK(burst <= period);
  }
  bool jams(slot_t slot, const PublicHistory&, Rng&) override {
    return ((slot - 1) % period_) < burst_;
  }
  std::string name() const override {
    return "periodic(" + std::to_string(burst_) + "/" + std::to_string(period_) + ")";
  }

 private:
  slot_t period_, burst_;
};

class BudgetPacedJammer final : public Jammer {
 public:
  BudgetPacedJammer(GrowthFn g, double margin) : g_(std::move(g)), margin_(margin) {
    CR_CHECK(margin > 0.0);
  }
  bool jams(slot_t slot, const PublicHistory&, Rng&) override {
    const double t = static_cast<double>(slot);
    const double budget = t / (margin_ * g_(t));
    if (static_cast<double>(jammed_) + 1.0 > budget) return false;
    ++jammed_;
    return true;
  }
  std::string name() const override { return "paced(1/" + std::to_string(margin_) + "g)"; }

 private:
  GrowthFn g_;
  double margin_;
  std::uint64_t jammed_ = 0;
};

class ReactiveJammer final : public Jammer {
 public:
  ReactiveJammer(GrowthFn g, double margin, slot_t burst)
      : g_(std::move(g)), margin_(margin), burst_(burst) {
    CR_CHECK(margin > 0.0);
    CR_CHECK(burst >= 1);
  }
  bool jams(slot_t slot, const PublicHistory& history, Rng&) override {
    const slot_t last = history.last_success_slot();
    const bool wants = last != 0 && slot > last && slot <= last + burst_;
    if (!wants) return false;
    const double t = static_cast<double>(slot);
    const double budget = t / (margin_ * g_(t));
    if (static_cast<double>(jammed_) + 1.0 > budget) return false;
    ++jammed_;
    return true;
  }
  std::string name() const override { return "reactive(burst=" + std::to_string(burst_) + ")"; }

 private:
  GrowthFn g_;
  double margin_;
  slot_t burst_;
  std::uint64_t jammed_ = 0;
};

}  // namespace

std::unique_ptr<Jammer> no_jam() { return std::make_unique<NoJam>(); }

std::unique_ptr<Jammer> iid_jammer(double fraction) { return std::make_unique<IidJammer>(fraction); }

std::unique_ptr<Jammer> prefix_jammer(slot_t count) { return std::make_unique<PrefixJammer>(count); }

std::unique_ptr<Jammer> periodic_jammer(slot_t period, slot_t burst) {
  return std::make_unique<PeriodicJammer>(period, burst);
}

std::unique_ptr<Jammer> budget_paced_jammer(GrowthFn g, double margin) {
  return std::make_unique<BudgetPacedJammer>(std::move(g), margin);
}

std::unique_ptr<Jammer> reactive_jammer(GrowthFn g, double margin, slot_t burst) {
  return std::make_unique<ReactiveJammer>(std::move(g), margin, burst);
}

}  // namespace cr

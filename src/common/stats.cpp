#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace cr {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Quantiles::add(double x) {
  xs_.push_back(x);
  sorted_ = false;
}

void Quantiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double Quantiles::quantile(double q) const {
  CR_CHECK(q >= 0.0 && q <= 1.0);
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  const auto n = xs_.size();
  // Nearest rank is ceil(q·n); the relative epsilon guards against q·n
  // landing one ulp ABOVE the exact integer (0.99·100 = 99.00000000000001
  // in IEEE arithmetic, which would otherwise round p99-of-100 up to the
  // maximum instead of the 99th order statistic).
  const double scaled = q * static_cast<double>(n);
  const auto idx = static_cast<std::size_t>(std::ceil(scaled * (1.0 - 1e-12)));
  return xs_[idx == 0 ? 0 : std::min(idx - 1, n - 1)];
}

LinearFit fit_linear(const std::vector<double>& xs, const std::vector<double>& ys) {
  CR_CHECK(xs.size() == ys.size());
  CR_CHECK(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) return fit;  // all x equal: slope stays 0
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - (fit.slope * xs[i] + fit.intercept);
    ss_res += r * r;
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace cr

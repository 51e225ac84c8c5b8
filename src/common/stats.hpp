// Small statistics toolkit for experiment aggregation.
//
// Accumulator      — streaming mean/variance (Welford), min/max, count.
// Quantiles        — exact empirical quantiles over a stored sample.
// LinearFit        — least-squares scaling exponents.
#pragma once

#include <cstdint>
#include <vector>

namespace cr {

/// Streaming mean / variance / extremes. Numerically stable (Welford).
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two observations).
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores samples; answers exact empirical quantiles.
class Quantiles {
 public:
  void add(double x);
  void reserve(std::size_t n) { xs_.reserve(n); }
  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  /// q in [0,1]; exact nearest-rank (the ceil(q·n)-th order statistic, so
  /// q=0 is the minimum and q=1 the maximum), robust to floating-point
  /// representation of q — quantile(0.99) over 100 samples is the 99th
  /// order statistic, not the 100th. Empty sample: returns 0.0 (n=1
  /// returns the lone sample for every q).
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const { return quantile(1.0); }

  const std::vector<double>& samples() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Ordinary least squares fit y ≈ slope·x + intercept. Requires xs.size() ==
/// ys.size() >= 2. Used by benches to report empirical scaling exponents
/// (e.g. fit log(completion) against log(n)).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace cr

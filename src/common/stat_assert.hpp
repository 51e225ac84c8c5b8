/// \file
/// Statistical assertion predicates shared by the gtest suites and the
/// `cr verify` claim checker (src/verify/).
///
/// Monte-Carlo checks at fixed seeds fail for one of two reasons: a real
/// semantic regression, or a tolerance that was hand-tuned too tight. These
/// helpers make the tolerance policy explicit and the failure messages
/// diagnostic (both sides, their spread, and the bound that was violated).
/// They used to live in tests/stat_assert.hpp returning
/// ::testing::AssertionResult; the ClaimRegistry needs the same predicates
/// without a gtest dependency, so the one implementation now lives here and
/// returns a plain CheckResult. CheckResult converts implicitly to any
/// bool-constructible, string-streamable result type — in a test,
/// EXPECT_TRUE(stat::in_range(...)) still lands in a
/// ::testing::AssertionResult with the full diagnostic attached
/// (tests/stat_assert.hpp is now a thin include of this header).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <sstream>
#include <string>

#include "common/stats.hpp"

namespace cr::stat {

/// Outcome of one statistical predicate: a verdict plus the diagnostic
/// message (populated on success too — `cr verify` prints observed-vs-bound
/// either way).
struct CheckResult {
  bool passed = false;
  std::string message;

  explicit operator bool() const { return passed; }

  /// Adapter to result-like types that construct from bool and accept
  /// streamed strings — in practice ::testing::AssertionResult, so gtest
  /// call sites keep their full diagnostics without this header (or the
  /// library it lives in) depending on gtest.
  template <typename R>
    requires std::constructible_from<R, bool> &&
             requires(R r, const std::string& s) { r << s; }
  operator R() const {  // NOLINT(google-explicit-constructor)
    R result(passed);
    result << message;
    return result;
  }
};

inline CheckResult check_pass(std::string message) { return {true, std::move(message)}; }
inline CheckResult check_fail(std::string message) { return {false, std::move(message)}; }

inline std::string describe(const Accumulator& acc) {
  std::ostringstream os;
  os << acc.mean() << " (sd=" << acc.stddev() << ", n=" << acc.count() << ")";
  return os.str();
}

/// Scalar in [lo, hi] (inclusive).
inline CheckResult in_range(double value, double lo, double hi) {
  std::ostringstream os;
  os << "value " << value << (value >= lo && value <= hi ? " inside [" : " outside [") << lo
     << ", " << hi << "]";
  return {value >= lo && value <= hi, os.str()};
}

/// `large` grew by at least `min_factor` relative to `small` (superlinearity
/// style checks: scaling up the instance must scale the measurement).
inline CheckResult growth_at_least(double small, double large, double min_factor) {
  const double factor = small != 0.0 ? large / small : 0.0;
  if (large >= min_factor * small) {
    std::ostringstream os;
    os << small << " -> " << large << " is " << factor << "x (>= " << min_factor << "x)";
    return check_pass(os.str());
  }
  std::ostringstream os;
  os << "expected growth >= " << min_factor << "x but " << small << " -> " << large
     << " is only " << factor << "x";
  return check_fail(os.str());
}

/// The two scalars agree within a multiplicative band:
/// min/max >= 1/max_ratio. Used for "this normalized quantity is flat"
/// claims.
inline CheckResult within_factor(double a, double b, double max_ratio) {
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  const double ratio = lo > 0.0 ? hi / lo : 0.0;
  if (lo > 0.0 && ratio <= max_ratio) {
    std::ostringstream os;
    os << a << " vs " << b << " differ by " << ratio << "x (allowed " << max_ratio << "x)";
    return check_pass(os.str());
  }
  std::ostringstream os;
  os << a << " vs " << b << " differ by " << ratio << "x (allowed " << max_ratio << "x)";
  return check_fail(os.str());
}

/// Two-sample agreement of means: |mean_a - mean_b| must not exceed the
/// combined z-standard-error plus an explicit slack
/// (abs_slack + rel_slack·max(|mean_a|, |mean_b|)). The z·SE term absorbs
/// Monte-Carlo noise; the slack term is the tolerated systematic
/// difference — make it 0 to assert statistical identity.
inline CheckResult means_agree(const Accumulator& a, const Accumulator& b, double z = 3.0,
                               double rel_slack = 0.0, double abs_slack = 0.0) {
  const double se_a = a.count() >= 2 ? a.variance() / static_cast<double>(a.count()) : 0.0;
  const double se_b = b.count() >= 2 ? b.variance() / static_cast<double>(b.count()) : 0.0;
  const double se = std::sqrt(se_a + se_b);
  const double bound =
      z * se + abs_slack + rel_slack * std::max(std::abs(a.mean()), std::abs(b.mean()));
  const double diff = std::abs(a.mean() - b.mean());
  if (diff <= bound) {
    std::ostringstream os;
    os << "means differ by " << diff << " <= bound " << bound;
    return check_pass(os.str());
  }
  std::ostringstream os;
  os << "means differ by " << diff << " > bound " << bound << " (z*SE=" << z * se
     << "): a=" << describe(a) << " b=" << describe(b);
  return check_fail(os.str());
}

/// One-sided dominance with slack: mean_a <= factor·mean_b. The classic
/// "adaptive beats non-adaptive by a constant factor" claim shape.
inline CheckResult mean_at_most(const Accumulator& a, const Accumulator& b, double factor) {
  if (a.mean() <= factor * b.mean()) {
    std::ostringstream os;
    os << "mean(a)=" << a.mean() << " <= " << factor << "*mean(b)=" << factor * b.mean();
    return check_pass(os.str());
  }
  std::ostringstream os;
  os << "expected mean(a) <= " << factor << "*mean(b) but a=" << describe(a)
     << " b=" << describe(b);
  return check_fail(os.str());
}

}  // namespace cr::stat

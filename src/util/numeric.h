// Small numeric helpers used throughout the transport kernels.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace neutral {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// x*x without repeating a (possibly expensive) expression.
constexpr double sqr(double x) { return x * x; }

/// Clamp into [lo, hi]; constexpr so table generators can use it.
constexpr double clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Relative-or-absolute closeness check for validation code.
inline bool approx_equal(double a, double b, double rel = 1e-12,
                         double abs = 1e-300) {
  const double diff = std::fabs(a - b);
  if (diff <= abs) return true;
  return diff <= rel * std::fmax(std::fabs(a), std::fabs(b));
}

/// Kahan summation (a running error term beside the sum): keeps serial
/// reductions such as the tally checksum accurate over many cells.
class KahanSum {
 public:
  void add(double x) {
    const double y = x - c_;
    const double t = sum_ + y;
    c_ = (t - sum_) - y;
    sum_ = t;
  }
  [[nodiscard]] double value() const { return sum_; }

 private:
  double sum_ = 0.0;
  double c_ = 0.0;
};

/// Positive infinity shorthand for event-distance comparisons.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace neutral

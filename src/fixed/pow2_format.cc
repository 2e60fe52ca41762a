#include "fixed/pow2_format.h"

#include <cmath>
#include <sstream>

namespace qnn {

Pow2Format::Pow2Format(int total_bits, int exp_max)
    : total_bits_(total_bits), exp_max_(exp_max) {
  QNN_CHECK_MSG(total_bits >= 2 && total_bits <= 16,
                "pow2 total_bits " << total_bits << " out of [2,16]");
}

double Pow2Format::max_value() const { return std::ldexp(1.0, exp_max_); }

double Pow2Format::min_positive() const { return std::ldexp(1.0, exp_min()); }

double Pow2Format::quantize(double v) const {
  if (std::isnan(v) || v == 0.0) return 0.0;
  const double mag = std::fabs(v);
  // Zero threshold: arithmetic midpoint between 0 and the smallest
  // positive representable value.
  if (mag < 0.5 * min_positive()) return 0.0;
  // ±Inf saturates like every magnitude beyond 2^exp_max (its log2
  // has no int value).
  int e = std::isinf(mag) ? exp_max_
                          : static_cast<int>(std::floor(std::log2(mag)));
  // Candidates 2^e and 2^(e+1) bracket mag; pick by arithmetic midpoint
  // 1.5 * 2^e which minimizes absolute error.
  if (mag >= 1.5 * std::ldexp(1.0, e)) ++e;
  if (e < exp_min()) e = exp_min();
  if (e > exp_max_) e = exp_max_;
  const double q = std::ldexp(1.0, e);
  return v > 0 ? q : -q;
}

std::int64_t Pow2Format::to_raw(double v) const {
  const double q = quantize(v);
  if (q == 0.0) return 0;
  const int e = static_cast<int>(std::lround(std::log2(std::fabs(q))));
  const std::int64_t code = e - exp_min() + 1;
  const std::int64_t sign_bit =
      (q < 0) ? (std::int64_t{1} << (total_bits_ - 1)) : 0;
  return sign_bit | code;
}

double Pow2Format::from_raw(std::int64_t raw) const {
  const std::int64_t sign_mask = std::int64_t{1} << (total_bits_ - 1);
  const bool negative = (raw & sign_mask) != 0;
  const std::int64_t code = raw & (sign_mask - 1);
  if (code == 0) return 0.0;
  const double mag = std::ldexp(1.0, exp_min() + static_cast<int>(code) - 1);
  return negative ? -mag : mag;
}

Pow2Format Pow2Format::for_range(int total_bits, double max_abs) {
  int e;
  if (max_abs <= 0.0 || !std::isfinite(max_abs)) {
    e = 0;
  } else {
    e = static_cast<int>(std::ceil(std::log2(max_abs)));
  }
  return Pow2Format(total_bits, e);
}

std::string Pow2Format::to_string() const {
  std::ostringstream os;
  os << "pow2[" << total_bits_ << "b, 2^" << exp_min() << "..2^" << exp_max_
     << "]";
  return os.str();
}

}  // namespace qnn

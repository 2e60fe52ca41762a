#include "quant/quantizer.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace qnn::quant {
namespace {

// The largest float <= limit, or +inf for an unbounded format (limit <=
// 0): for a float v, |v| > it exactly when double |v| > limit.
float float_limit(double limit) {
  if (limit <= 0.0) return std::numeric_limits<float>::infinity();
  float f = static_cast<float>(limit);
  if (static_cast<double>(f) > limit) f = std::nextafter(f, 0.0f);
  return f;
}

// The scalar reference of every format: each value observed, then
// quantized, in order.
template <typename Quantize>
void apply_scalar(std::span<float> x, double limit, GuardCounters* guards,
                  const Quantize& quantize) {
  GuardCounters g;
  for (float& v : x) {
    g.observe(v, limit);
    v = quantize(v);
  }
  if (guards != nullptr) *guards += g;
}

// Folds a FqVecOps kernel's counts over the span `x` into `guards`.
void add_counts(const FqCounts& c, std::span<const float> x,
                GuardCounters* guards) {
  if (guards == nullptr) return;
  guards->values += std::ssize(x);
  guards->saturated += c.saturated;
  guards->nan += c.nan;
  guards->inf += c.inf;
}

// Mean squared error of quantizing `samples` with `q`.
template <typename Format>
double quantization_mse(std::span<const float> samples, const Format& q) {
  double mse = 0.0;
  for (float v : samples) {
    const double e = static_cast<double>(v) - q.quantize(static_cast<double>(v));
    mse += e * e;
  }
  return samples.empty() ? 0.0 : mse / static_cast<double>(samples.size());
}

}  // namespace

void quantize_fixed(const FixedPointFormat& f, std::span<float> x,
                    GuardCounters* guards, SimdLevel level) {
  const FqVecOps* vec = fq_vec_ops(level);
  if (vec != nullptr && f.rounding() == Rounding::kNearest &&
      f.frac_bits() >= -126 && f.frac_bits() <= 126) {
    FqCounts c;
    (f.total_bits() <= 24 ? vec->fixed : vec->fixed_wide)(
        x.data(), std::ssize(x), f.frac_bits(),
        static_cast<std::int32_t>(f.raw_min()),
        static_cast<std::int32_t>(f.raw_max()), float_limit(f.max_value()),
        &c);
    add_counts(c, x, guards);
    return;
  }
  apply_scalar(x, f.max_value(), guards,
               [&](float v) { return f.quantize(v); });
}

void IdentityQuantizer::apply(std::span<float> x, GuardCounters* guards,
                              SimdLevel) const {
  if (guards == nullptr) return;
  for (float v : x) guards->observe(v, 0.0);
}

void FixedQuantizer::apply(std::span<float> x, GuardCounters* guards,
                           SimdLevel level) const {
  QNN_CHECK_MSG(format_.has_value(), "FixedQuantizer used before calibrate");
  quantize_fixed(*format_, x, guards, level);
}

void FixedQuantizer::calibrate_with_samples(std::span<const float> samples,
                                            double max_abs) {
  // Start from the covering (max-abs) format and consider trading range
  // for resolution: each +1 on frac_bits halves the step but clips the
  // top octave. Pick the minimum-MSE candidate (Ristretto's criterion).
  // The MSE evaluation always uses deterministic nearest rounding so the
  // chosen radix does not depend on stochastic draws.
  const FixedPointFormat covering =
      FixedPointFormat::for_range(bits_, max_abs);
  if (samples.empty()) {
    format_ = FixedPointFormat(bits_, covering.frac_bits(), rounding_);
    return;
  }
  double best_mse = std::numeric_limits<double>::infinity();
  int best_frac = covering.frac_bits();
  for (int extra = 0; extra <= 8; ++extra) {
    const FixedPointFormat candidate(bits_, covering.frac_bits() + extra);
    const double mse = quantization_mse(samples, candidate);
    if (mse < best_mse) {
      best_mse = mse;
      best_frac = candidate.frac_bits();
    }
  }
  format_ = FixedPointFormat(bits_, best_frac, rounding_);
}

std::string FixedQuantizer::describe() const {
  return format_ ? format_->to_string()
                 : "fixed" + std::to_string(bits_) + "[uncalibrated]";
}

void Pow2Quantizer::apply(std::span<float> x, GuardCounters* guards,
                          SimdLevel level) const {
  QNN_CHECK_MSG(format_.has_value(), "Pow2Quantizer used before calibrate");
  const Pow2Format& f = *format_;
  const FqVecOps* vec = fq_vec_ops(level);
  if (vec != nullptr && f.exp_min() >= -126 && f.exp_max() <= 127) {
    FqCounts c;
    vec->pow2(x.data(), std::ssize(x), f.exp_min(), f.exp_max(),
              float_limit(f.max_value()), &c);
    add_counts(c, x, guards);
    return;
  }
  apply_scalar(x, f.max_value(), guards,
               [&](float v) { return f.quantize(v); });
}

void Pow2Quantizer::calibrate_with_samples(std::span<const float> samples,
                                           double max_abs) {
  const Pow2Format covering = Pow2Format::for_range(bits_, max_abs);
  if (samples.empty()) {
    format_ = covering;
    return;
  }
  double best_mse = std::numeric_limits<double>::infinity();
  Pow2Format best = covering;
  for (int shift = 0; shift <= 4; ++shift) {
    const Pow2Format candidate(bits_, covering.exp_max() - shift);
    const double mse = quantization_mse(samples, candidate);
    if (mse < best_mse) {
      best_mse = mse;
      best = candidate;
    }
  }
  format_ = best;
}

std::string Pow2Quantizer::describe() const {
  return format_ ? format_->to_string()
                 : "pow2" + std::to_string(bits_) + "[uncalibrated]";
}

void BinaryQuantizer::apply(std::span<float> x, GuardCounters* guards,
                            SimdLevel level) const {
  const double scale = format_.scale_for(x);
  if (const FqVecOps* vec = fq_vec_ops(level)) {
    FqCounts c;
    vec->binary(x.data(), std::ssize(x), static_cast<float>(scale),
                float_limit(clip_limit()), &c);
    add_counts(c, x, guards);
    return;
  }
  apply_scalar(x, clip_limit(), guards, [&](float v) {
    return static_cast<float>(BinaryFormat::quantize(v, scale));
  });
}

std::unique_ptr<ValueQuantizer> make_weight_quantizer(
    const PrecisionConfig& config) {
  switch (config.kind) {
    case PrecisionKind::kFloat:
      return std::make_unique<IdentityQuantizer>();
    case PrecisionKind::kFixed:
      return std::make_unique<FixedQuantizer>(config.weight_bits,
                                              config.rounding);
    case PrecisionKind::kPow2:
      return std::make_unique<Pow2Quantizer>(config.weight_bits);
    case PrecisionKind::kBinary:
      return std::make_unique<BinaryQuantizer>(config.binary_scale);
  }
  return nullptr;
}

std::unique_ptr<ValueQuantizer> make_data_quantizer(
    const PrecisionConfig& config) {
  if (config.is_float())
    return std::make_unique<IdentityQuantizer>();
  // Pow2 and binary nets still carry fixed-point inputs/feature maps
  // (paper §IV-A3/4: 16-bit fixed-point data).
  return std::make_unique<FixedQuantizer>(config.input_bits,
                                          config.rounding);
}

}  // namespace qnn::quant

#include "quant/quantizer.h"

#include <cmath>
#include <limits>
#include <utility>

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

// {make(0), ..., make(kN - 1)}.
template <std::size_t kN, typename Make>
auto make_candidates(const Make& make) {
  return [&]<std::size_t... kI>(std::index_sequence<kI...>) {
    return std::array{make(static_cast<int>(kI))...};
  }(std::make_index_sequence<kN>{});
}

// The reference of the calibration scores: every candidate's squared
// error folded into its own sum, sample by sample.
template <typename Format, std::size_t kCandidates>
std::array<double, kCandidates> candidate_sse(
    std::span<const float> samples,
    const std::array<Format, kCandidates>& candidates) {
  std::array<double, kCandidates> sse{};
  for (float v : samples) {
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const double e = static_cast<double>(v) -
                       candidates[c].quantize(static_cast<double>(v));
      sse[c] = std::fma(e, e, sse[c]);
    }
  }
  return sse;
}

// Each sum over the sample count (0 for no samples).
template <std::size_t kCandidates>
std::array<double, kCandidates> mean(std::array<double, kCandidates> sse,
                                     std::size_t n) {
  for (double& s : sse) s = n == 0 ? 0.0 : s / static_cast<double>(n);
  return sse;
}

// The first candidate of least MSE (NaN never wins; all NaN or +inf
// keeps candidate 0).
template <std::size_t kCandidates>
int best_candidate(const std::array<double, kCandidates>& mse) {
  double best_mse = std::numeric_limits<double>::infinity();
  int best = 0;
  for (std::size_t c = 0; c < kCandidates; ++c) {
    if (mse[c] < best_mse) {
      best_mse = mse[c];
      best = static_cast<int>(c);
    }
  }
  return best;
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

std::array<double, kFixedCandidates> fixed_candidate_mse(
    std::span<const float> samples, int bits, int frac0, SimdLevel level) {
  const auto candidates = make_candidates<kFixedCandidates>(
      [&](int c) { return FixedPointFormat(bits, frac0 + c); });
  const FqVecOps* vec = fq_vec_ops(level);
  std::array<double, kFixedCandidates> sse{};
  if (vec == nullptr || frac0 < -126 || frac0 + kFixedCandidates - 1 > 126)
    sse = candidate_sse(samples, candidates);
  else
    vec->fixed_sse(samples.data(), std::ssize(samples), frac0,
                   kFixedCandidates,
                   static_cast<std::int32_t>(candidates[0].raw_min()),
                   static_cast<std::int32_t>(candidates[0].raw_max()),
                   sse.data());
  return mean(sse, samples.size());
}

void FixedQuantizer::calibrate_with_samples(std::span<const float> samples,
                                            double max_abs) {
  // Start from the covering (max-abs) format and consider trading range
  // for resolution: each +1 on frac_bits halves the step but clips the
  // top octave. Pick the minimum-MSE candidate (Ristretto's criterion).
  // The MSE evaluation always uses deterministic nearest rounding so the
  // chosen radix does not depend on stochastic draws.
  const int frac0 = FixedPointFormat::for_range(bits_, max_abs).frac_bits();
  const int best =
      samples.empty()
          ? 0
          : best_candidate(fixed_candidate_mse(samples, bits_, frac0,
                                               active_simd_level()));
  format_ = FixedPointFormat(bits_, frac0 + best, rounding_);
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

std::array<double, kPow2Candidates> pow2_candidate_mse(
    std::span<const float> samples, int bits, int exp_max0,
    SimdLevel level) {
  const auto candidates = make_candidates<kPow2Candidates>(
      [&](int c) { return Pow2Format(bits, exp_max0 - c); });
  const FqVecOps* vec = fq_vec_ops(level);
  std::array<double, kPow2Candidates> sse{};
  if (vec == nullptr || candidates.back().exp_min() < -126 || exp_max0 > 127)
    sse = candidate_sse(samples, candidates);
  else
    vec->pow2_sse(samples.data(), std::ssize(samples),
                  candidates[0].exp_min(), exp_max0, kPow2Candidates,
                  sse.data());
  return mean(sse, samples.size());
}

void Pow2Quantizer::calibrate_with_samples(std::span<const float> samples,
                                           double max_abs) {
  const int exp_max0 = Pow2Format::for_range(bits_, max_abs).exp_max();
  const int best =
      samples.empty()
          ? 0
          : best_candidate(pow2_candidate_mse(samples, bits_, exp_max0,
                                              active_simd_level()));
  format_ = Pow2Format(bits_, exp_max0 - best);
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

// Tensor quantizers: map a float tensor in place onto the value grid of
// a target representation (fake quantization, bit-exact w.r.t. the
// integer formats in src/fixed).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "fixed/binary_format.h"
#include "fixed/fixed_format.h"
#include "fixed/pow2_format.h"
#include "quant/guards.h"
#include "quant/qconfig.h"
#include "tensor/microkernel.h"
#include "tensor/tensor.h"

namespace qnn::quant {

class ValueQuantizer {
 public:
  virtual ~ValueQuantizer() = default;

  // Fixes the representable range from an observed max-abs statistic.
  // Must be called before apply() for range-dependent quantizers.
  virtual void calibrate(double max_abs) = 0;

  // Richer calibration: choose the format minimizing mean squared
  // quantization error over observed `samples` (Ristretto's criterion —
  // at very low bit widths clipping outliers beats covering them).
  // Default falls back to max-abs calibration.
  virtual void calibrate_with_samples(std::span<const float> samples,
                                      double max_abs) {
    (void)samples;
    calibrate(max_abs);
  }

  // Quantizes in place at the active SIMD level.
  void apply(Tensor& t) const {
    apply(t.values(), nullptr, active_simd_level());
  }

  // Quantizes `x` in place and, when `guards` is set, adds the guard
  // class of every value before quantization against clip_limit()
  // (GuardCounters::observe) in the same pass. `level` picks the kernel
  // (tensor/microkernel.h, fq_vec_ops); every level gives the same
  // bytes and counts.
  virtual void apply(std::span<float> x, GuardCounters* guards,
                     SimdLevel level) const = 0;

  // Magnitude beyond which master weights should be clamped during QAT
  // (largest representable value); 0 disables clipping.
  virtual double clip_limit() const { return 0.0; }

  virtual std::string describe() const = 0;
  virtual int bits() const = 0;

  // Deep copy, including calibrated format state. Used to build
  // per-thread QuantizedNetwork replicas for parallel fault trials.
  virtual std::unique_ptr<ValueQuantizer> clone() const = 0;
};

// Float baseline: no-op (only NaN and Inf are guard anomalies).
class IdentityQuantizer final : public ValueQuantizer {
 public:
  using ValueQuantizer::apply;
  void calibrate(double) override {}
  void apply(std::span<float> x, GuardCounters* guards,
             SimdLevel level) const override;
  std::string describe() const override { return "float32"; }
  int bits() const override { return 32; }
  std::unique_ptr<ValueQuantizer> clone() const override {
    return std::make_unique<IdentityQuantizer>(*this);
  }
};

class FixedQuantizer final : public ValueQuantizer {
 public:
  explicit FixedQuantizer(int bits, Rounding rounding = Rounding::kNearest)
      : bits_(bits), rounding_(rounding) {}
  using ValueQuantizer::apply;
  void calibrate(double max_abs) override {
    format_ = FixedPointFormat::for_range(bits_, max_abs, rounding_);
  }
  void calibrate_with_samples(std::span<const float> samples,
                              double max_abs) override;
  void apply(std::span<float> x, GuardCounters* guards,
             SimdLevel level) const override;
  double clip_limit() const override {
    return format_ ? format_->max_value() : 0.0;
  }
  std::string describe() const override;
  int bits() const override { return bits_; }
  std::unique_ptr<ValueQuantizer> clone() const override {
    return std::make_unique<FixedQuantizer>(*this);
  }
  const std::optional<FixedPointFormat>& format() const { return format_; }

 private:
  int bits_;
  Rounding rounding_;
  std::optional<FixedPointFormat> format_;
};

class Pow2Quantizer final : public ValueQuantizer {
 public:
  explicit Pow2Quantizer(int bits) : bits_(bits) {}
  using ValueQuantizer::apply;
  void calibrate(double max_abs) override {
    format_ = Pow2Format::for_range(bits_, max_abs);
  }
  void calibrate_with_samples(std::span<const float> samples,
                              double max_abs) override;
  void apply(std::span<float> x, GuardCounters* guards,
             SimdLevel level) const override;
  double clip_limit() const override {
    return format_ ? format_->max_value() : 0.0;
  }
  std::string describe() const override;
  int bits() const override { return bits_; }
  std::unique_ptr<ValueQuantizer> clone() const override {
    return std::make_unique<Pow2Quantizer>(*this);
  }
  const std::optional<Pow2Format>& format() const { return format_; }

 private:
  int bits_;
  std::optional<Pow2Format> format_;
};

// 1-bit: scale is derived from the tensor itself at every apply (the
// mean-abs mode tracks the master weights as they train).
class BinaryQuantizer final : public ValueQuantizer {
 public:
  explicit BinaryQuantizer(BinaryScaleMode mode) : format_(mode) {}
  using ValueQuantizer::apply;
  void calibrate(double) override {}
  // The scale is BinaryFormat::scale_for(x), a serial sum over the span.
  void apply(std::span<float> x, GuardCounters* guards,
             SimdLevel level) const override;
  // BinaryConnect clips masters to [-1, 1].
  double clip_limit() const override { return 1.0; }
  std::string describe() const override { return format_.to_string(); }
  int bits() const override { return 1; }
  std::unique_ptr<ValueQuantizer> clone() const override {
    return std::make_unique<BinaryQuantizer>(*this);
  }

 private:
  BinaryFormat format_;
};

// x[i] = f.quantize(x[i]) for every i, in order, adding the guard
// classes against f.max_value() to `guards` when set. Round-half-away
// formats with frac in [-126, 126] run the level's fixed kernel; other
// rounding modes run the reference loop (stochastic rounding keeps its
// draw order).
void quantize_fixed(const FixedPointFormat& f, std::span<float> x,
                    GuardCounters* guards, SimdLevel level);

// The candidate scores of MSE calibration (DESIGN.md §5): mse[c] is the
// mean squared error of quantizing `samples`, each read as a double,
// onto candidate c's grid at `bits`: fixed point with frac0 + c fraction
// bits (round half away from zero), or power of two with exp_max
// exp_max0 - c. Each sum folds the samples in order with one
// std::fma(e, e, sum) per sample and is divided by their count (0 when
// there are none). The lane kernels (FqVecOps::fixed_sse, pow2_sse) run
// when every candidate fits them, so every level gives the same bits.
inline constexpr int kFixedCandidates = 9;
inline constexpr int kPow2Candidates = 5;
std::array<double, kFixedCandidates> fixed_candidate_mse(
    std::span<const float> samples, int bits, int frac0, SimdLevel level);
std::array<double, kPow2Candidates> pow2_candidate_mse(
    std::span<const float> samples, int bits, int exp_max0,
    SimdLevel level);

// Builds the weight-side quantizer for a config (nullptr = identity).
std::unique_ptr<ValueQuantizer> make_weight_quantizer(
    const PrecisionConfig& config);

// Builds the data-side (inputs + feature maps) quantizer for a config.
std::unique_ptr<ValueQuantizer> make_data_quantizer(
    const PrecisionConfig& config);

}  // namespace qnn::quant

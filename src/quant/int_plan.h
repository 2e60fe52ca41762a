// The integer lowering of a calibrated QuantizedNetwork (DESIGN.md §15).
//
// The accelerator executes a quantized network as integer stages: raw
// two's-complement words in calibrated FixedPointFormats, a weight block
// that is a multiplier, a barrel shifter or a sign-mux depending on the
// precision (paper Fig. 2), a wide accumulator, and a requantizing step
// at every layer boundary. lower_int_plan() is the one place that maps
// layer kinds and quantizer formats onto those stages. Two executors
// read the result: hw::NfuSimulator (the naive int64 reference) and
// quant::IntInferenceEngine (the packed integer kernels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "fixed/fixed_format.h"
#include "nn/network.h"
#include "nn/pool.h"
#include "tensor/tensor.h"

namespace qnn::quant {

class QuantizedNetwork;

// A tensor of raw fixed-point words tagged with its format.
struct RawTensor {
  Shape shape;
  std::vector<std::int64_t> raw;
  FixedPointFormat format{16, 8};

  std::int64_t count() const { return shape.count(); }
  // Decodes to float for inspection / final readout.
  Tensor decode() const;
};

// Encodes a float tensor onto `format`'s grid as raw words.
RawTensor encode_tensor(const Tensor& t, const FixedPointFormat& format);

enum class IntStageKind {
  kConv, kIp, kPool, kRelu, kSigmoid, kTanh, kPassthrough
};

// The stage `layer` lowers to, or nullopt when its kind has no integer
// realization. Inference-time dropout is a passthrough.
std::optional<IntStageKind> int_stage_kind(const nn::Layer& layer);

// The weight-block realizations of paper Fig. 2.
enum class WeightCode {
  kFixed,   // multiplier: raw words on `format`
  kPow2,    // barrel shifter: w = sign * 2^word
  kBinary,  // sign-mux: w = sign * scale
};

// A conv / inner-product weight tensor, `outputs` x `k` row-major.
struct IntWeights {
  WeightCode code = WeightCode::kFixed;
  std::vector<std::int32_t> words;  // kFixed: raw words; kPow2: exponents
  std::vector<std::int8_t> sign;    // kPow2: +1/-1, 0 = zero; kBinary: +1/-1
  FixedPointFormat format{16, 8};   // kFixed
  // kPow2: -min(0, smallest exponent), so every weight is a left shift
  // of the data word by headroom + word.
  int headroom = 0;
  // kBinary: the per-tensor magnitude, applied to the sign-mux sum at
  // requantization (bias excluded).
  double scale = 1.0;
};

struct IntStage {
  IntStageKind kind = IntStageKind::kPassthrough;
  std::size_t layer = 0;  // network layer index
  FixedPointFormat in{16, 8};   // site `layer`
  FixedPointFormat out{16, 8};  // site `layer + 1`

  // Conv and pool windows.
  std::int64_t kernel = 0, stride = 1, pad = 0;
  nn::PoolMode pool_mode = nn::PoolMode::kMax;

  // Conv and inner product.
  std::int64_t in_c = 0;     // conv input channels
  std::int64_t outputs = 0;  // output channels / features
  std::int64_t k = 0;        // reduction length per output
  IntWeights weights;
  // Fraction bits of the accumulator: in + weight frac (kFixed),
  // in + headroom (kPow2), in (kBinary).
  int acc_frac = 0;
  std::vector<std::int64_t> bias;  // per output, at acc_frac; empty = none

  bool has_weights() const {
    return kind == IntStageKind::kConv || kind == IntStageKind::kIp;
  }
  // Output shape for an input of shape `in_shape` (inner products take
  // it flattened; pooling is ceil-mode, windows clipped to the image).
  Shape out_shape(const Shape& in_shape) const;
};

struct IntPlan {
  FixedPointFormat input{16, 8};  // site 0
  std::vector<IntStage> stages;   // one per network layer
};

// Lowers a calibrated, non-float `qnet` over `net` into integer stages.
// Precondition: the quantized parameter image is live in `net` (inside
// freeze_inference(), or after a forward before restore_masters()).
// Throws CheckError when a data site or fixed-point parameter lacks a
// calibrated format or a layer kind has no integer stage.
IntPlan lower_int_plan(nn::Network& net, const QuantizedNetwork& qnet);

}  // namespace qnn::quant

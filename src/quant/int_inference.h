// Native integer inference (DESIGN.md §15): the kernel executor of the
// shared integer lowering (quant/int_plan).
//
// The fake-quantized float path constrains values to fixed-point grids
// but still *computes* in float32. This engine executes the IntPlan of a
// calibrated fixed-point QuantizedNetwork the way the accelerator would:
// the plan's weight words are packed once into int8/int16 panels (the
// plan itself is not kept), activations live as raw two's-complement
// words, conv and inner product run through the packed integer tile
// kernels (tensor/int_gemm) with exact accumulation, and every layer
// boundary requantizes into the site's calibrated format with the
// shift-round-saturate step, fused into the kernel's epilogue (together
// with a ReLU that directly follows). The contract, pinned by
// tests/int_gemm_oracle_test.cc, is word-for-word equality with the
// reference executor hw::NfuSimulator on every supported network.
//
// At construction the accumulator-bound pass (quant/acc_bound) picks
// each conv / inner-product stage's kernel tier and epilogue width from
// its encoded weights, input format and bias; plan() reports the choice
// per stage. The steps between the tiles (input encode, requant, pool,
// im2row pack) run the vector data path of quant/int_datapath.
//
// QuantizedNetwork::freeze_inference() builds one of these whenever the
// config is eligible (fixed-point, <= 16-bit weights and data,
// round-half-away rounding, supported layer kinds); frozen forwards then
// run in the integer domain end-to-end, which is how the serve replica
// tiers (fixed16/fixed8) pick the native path up automatically.
#pragma once

#include <memory>
#include <string>

#include "nn/network.h"
#include "quant/acc_bound.h"
#include "quant/int_plan.h"
#include "tensor/tensor.h"

namespace qnn::quant {

class QuantizedNetwork;

class IntInferenceEngine {
 public:
  // Empty when the network qualifies for the native path; otherwise a
  // human-readable reason (unsupported kind/layer, too-wide formats,
  // a rounding mode other than kNearest, not calibrated, ...).
  static std::string ineligibility_reason(const nn::Network& net,
                                          const QuantizedNetwork& qnet);
  static bool eligible(const nn::Network& net,
                       const QuantizedNetwork& qnet) {
    return ineligibility_reason(net, qnet).empty();
  }

  // Captures weights and formats from `qnet`, which must be calibrated
  // with its quantized parameter image live (i.e. called from inside
  // freeze_inference(), after quantize_params()).
  IntInferenceEngine(nn::Network& net, const QuantizedNetwork& qnet);
  ~IntInferenceEngine();

  IntInferenceEngine(const IntInferenceEngine&) = delete;
  IntInferenceEngine& operator=(const IntInferenceEngine&) = delete;

  // Integer-domain forward: the final site's raw words. Const and safe
  // to call concurrently: every forward sizes its own scratch.
  RawTensor forward_raw(const Tensor& input) const;

  // forward_raw(input).decode(): injective for <= 16-bit formats, so
  // float equality of outputs IS word equality.
  Tensor forward(const Tensor& input) const;

  // True when every weight and data format fits 8 bits and the engine
  // runs on int8 words; false -> int16.
  bool uses_int8() const;

  // Per conv / inner-product stage: word width, kernel tier, proven
  // accumulator bits, fused ReLU, and the fallback reason if any.
  const IntPathPlan& plan() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qnn::quant

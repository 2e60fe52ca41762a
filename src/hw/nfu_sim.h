// Functional NFU simulator: hardware-faithful *integer-domain* inference.
//
// The training framework simulates quantization on float tensors ("fake
// quantization"). The accelerator, however, executes integer arithmetic:
// raw two's-complement words from the buffers, a weight-block stage that
// is a multiplier / barrel shifter / sign-mux depending on precision, a
// wide adder-tree accumulator, and a requantizing nonlinearity stage.
// This module is the naive reference executor of that arithmetic over
// the shared integer lowering (quant/int_plan):
//
//   * weights/biases/activations live as int64 raw words in their
//     calibrated FixedPointFormats;
//   * convolution / inner-product MACs accumulate exactly in an int64
//     accumulator, one hand-written loop per stage kind;
//   * power-of-two weights multiply by shifting; binary weights by
//     conditional negation, with the per-tensor scale applied to the
//     sign-mux sum at requantization (a fixed multiplier there, as
//     DESIGN.md §5 documents);
//   * pooling and ReLU operate on raw words (order-preserving);
//   * every layer boundary requantizes into the site's data format.
//
// Its loops share no code with the packed integer kernels
// (tensor/int_gemm), so the native engine (quant/int_inference) is
// checked against it word for word. The lowering the two share is
// checked separately: against the fake-quantized float path within one
// output grid step (the float path accumulates in float32), and against
// hand-computed golden words (tests/nfu_sim_test.cc).
#pragma once

#include <cstdint>

#include "fixed/approx_mult.h"
#include "quant/int_plan.h"
#include "quant/qnetwork.h"
#include "tensor/tensor.h"

namespace qnn::hw {

class NfuSimulator {
 public:
  // Lowers a calibrated QuantizedNetwork over `net`. Only fixed-point
  // data paths are supported (every non-float paper config qualifies:
  // their data side is fixed-point); the float config has no integer
  // realization. A frozen `qnet` is lowered from its live parameter
  // image and stays frozen; otherwise one forward on a zero input of
  // `input_shape` (N ignored) materializes the quantized weights and
  // the masters are restored afterwards. `multiplier` swaps the
  // weight-block multiplier for an approximate design (fixed-point
  // configs only; pow2/binary have no multiplier).
  NfuSimulator(nn::Network& net, const quant::QuantizedNetwork& qnet,
               const Shape& input_shape,
               const ApproxMultSpec& multiplier = {});

  // Integer-domain forward pass; returns decoded float logits.
  Tensor forward(const Tensor& input) const;
  // The same forward, returning the final site's raw words.
  quant::RawTensor forward_raw(const Tensor& input) const;

  // Number of executed stages (one per layer), for introspection.
  std::size_t num_stages() const { return plan_.stages.size(); }
  const quant::IntPlan& plan() const { return plan_; }

 private:
  quant::IntPlan plan_;
  MultiplyFn mul_;
};

}  // namespace qnn::hw

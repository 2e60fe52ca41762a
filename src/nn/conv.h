// 2-D convolution layer (cross-correlation, as in Caffe), lowered to
// GEMM via im2col.
#pragma once

#include "nn/layer.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/rng.h"

namespace qnn::nn {

struct ConvSpec {
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;      // square kernels, as in all paper nets
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  bool bias = true;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, const ConvSpec& spec);

  const char* kind() const override { return "conv"; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  LayerDesc describe(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }

  // He-uniform initialization (fan-in based).
  void init_weights(Rng& rng);

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const ConvSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }

 private:
  ConvGeometry geometry(const Shape& in) const;
  // Accumulates dW and db and, when grad_in is not null, writes dX.
  void run_backward(const Tensor& grad_out, Tensor* grad_in);

  std::int64_t in_channels_;
  ConvSpec spec_;
  Param weight_;  // (Cout, Cin, K, K)
  Param bias_;    // (Cout) — empty when spec.bias == false
  Tensor cached_in_;

  // Per-shard scratch reused across calls instead of heap-allocating
  // rows*cols floats on every forward/backward. One slot per sample
  // shard so the batch loop can run on the thread pool; sized lazily in
  // forward/backward (clone() copies are resized on first use).
  std::vector<std::vector<float>> colbuf_;   // im2col patches
  std::vector<std::vector<float>> gcol_;     // column-space gradients
  std::vector<std::vector<float>> dwt_;      // dW^T partials [rows, Cout]
  std::vector<std::vector<double>> db_;      // bias-grad partials
  std::vector<float> wt_;                    // W^T [rows, Cout] for dcol
  // Per-shard gemm workspaces: Cin*K*K exceeds the K-chunk width for
  // the paper's larger convolutions, so each shard's gemms carry their
  // own chunk-partial (and bt transpose) buffers across calls.
  std::vector<GemmScratch> gemm_scratch_;
};

}  // namespace qnn::nn

// Max / average 2-D pooling.
//
// Output geometry uses Caffe's ceil mode (the paper's nets are Caffe
// nets, see pool_out_extent), with windows clipped to the input and
// average pooling dividing by the *clipped* window size, matching
// Caffe's AVE pooling. Max pooling scans each window in (row, column)
// order from its first cell and keeps the first maximum; at the AVX2
// level, outputs whose windows lie wholly inside the plane run 8 at a
// time (stride 1 and 2, F32VecOps in tensor/microkernel.h) with the
// same bytes and argmax.
#pragma once

#include "nn/layer.h"

namespace qnn::nn {

enum class PoolMode { kMax, kAvg };

// Output extent of one pooled dimension: ceil((in + 2*pad - kernel) /
// stride) + 1, less the last window when it would start past the input
// and its padding — whatever the pad (Caffe clips only when pad > 0,
// which lets kernel < stride make a window that lies wholly outside the
// image). nn's Pool2d and the integer lowering (quant/int_plan) share it.
std::int64_t pool_out_extent(std::int64_t in, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad);

struct PoolSpec {
  PoolMode mode = PoolMode::kMax;
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
  std::int64_t pad = 0;
};

class Pool2d final : public Layer {
 public:
  explicit Pool2d(const PoolSpec& spec);

  const char* kind() const override {
    return spec_.mode == PoolMode::kMax ? "pool_max" : "pool_avg";
  }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerDesc describe(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Pool2d>(*this); }

  const PoolSpec& spec() const { return spec_; }

 private:
  // The forward into `out`; for max pooling with argmax != nullptr,
  // also each output's flat input index (the backward's routing).
  void pool(const Tensor& in, Tensor& out, std::int64_t* argmax) const;

  PoolSpec spec_;
};

}  // namespace qnn::nn

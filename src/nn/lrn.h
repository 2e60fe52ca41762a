// Local Response Normalization across channels (Krizhevsky et al.) —
// the normalization used by the full CIFAR-10 "ALEX" family of nets.
//
//   out[c] = in[c] / (k + alpha/n * sum_{j in window(c)} in[j]^2)^beta
//
// where window(c) spans `local_size` adjacent channels centered on c.
#pragma once

#include "nn/layer.h"

namespace qnn::nn {

struct LrnSpec {
  std::int64_t local_size = 5;  // must be odd
  double alpha = 1e-4;
  double beta = 0.75;
  double k = 1.0;
};

class Lrn final : public Layer {
 public:
  explicit Lrn(const LrnSpec& spec);

  const char* kind() const override { return "lrn"; }
  Shape output_shape(const Shape& in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerPtr clone() const override { return std::make_unique<Lrn>(*this); }
  const LrnSpec& spec() const { return spec_; }

 private:
  // k + alpha/n * (window sum of squares) for channel c of the pixel
  // whose channel-0 value is px[0] (channel stride `plane`).
  double scale_at(const float* px, std::int64_t plane,
                  std::int64_t channels, std::int64_t c) const;

  LrnSpec spec_;
};

}  // namespace qnn::nn

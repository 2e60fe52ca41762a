#include "nn/lrn.h"

#include <cmath>

#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::nn {

Lrn::Lrn(const LrnSpec& spec) : spec_(spec) {
  QNN_CHECK_MSG(spec.local_size > 0 && spec.local_size % 2 == 1,
                "LRN local_size must be odd and positive");
  QNN_CHECK(spec.beta > 0 && spec.k > 0);
}

double Lrn::scale_at(const float* px, std::int64_t plane,
                     std::int64_t channels, std::int64_t c) const {
  const std::int64_t half = spec_.local_size / 2;
  const double alpha_over_n =
      spec_.alpha / static_cast<double>(spec_.local_size);
  double sum = 0.0;
  const std::int64_t lo = std::max<std::int64_t>(0, c - half);
  const std::int64_t hi = std::min<std::int64_t>(channels - 1, c + half);
  for (std::int64_t j = lo; j <= hi; ++j) {
    const float v = px[j * plane];
    sum += static_cast<double>(v) * v;
  }
  return spec_.k + alpha_over_n * sum;
}

Tensor Lrn::forward(const Tensor& in) {
  QNN_SPAN("lrn_forward", "layer");
  const Shape& s = in.shape();
  QNN_CHECK(s.rank() == 4);
  Tensor out(s);
  const std::int64_t plane = s.h() * s.w();
  // Normalization windows span channels within one sample, so samples
  // are independent and the batch loop shards without changing results.
  // A sample costs one channel window per element.
  const std::int64_t sample_cost = s.c() * plane * spec_.local_size;
  parallel_for_shards(s.n(), kReductionShards, shard_grain(sample_cost),
                      [&](std::size_t, std::int64_t begin,
                          std::int64_t end) {
    for (std::int64_t n = begin; n < end; ++n) {
      for (std::int64_t p = 0; p < plane; ++p) {
        const float* px = in.data() + n * s.c() * plane + p;
        for (std::int64_t c = 0; c < s.c(); ++c) {
          const double scale = scale_at(px, plane, s.c(), c);
          const std::int64_t idx = (n * s.c() + c) * plane + p;
          out[idx] = static_cast<float>(in[idx] *
                                        std::pow(scale, -spec_.beta));
        }
      }
    }
  });
  return out;
}

Tensor Lrn::backward(const Tensor& in, const Tensor& grad_out) {
  const Shape& s = in.shape();
  QNN_CHECK(s.rank() == 4 && grad_out.shape() == s);
  const std::int64_t half = spec_.local_size / 2;
  const double alpha_over_n =
      spec_.alpha / static_cast<double>(spec_.local_size);

  // d out[c] / d in[i] = scale[c]^-beta * [c == i]
  //   - 2 beta alpha/n * in[c] * in[i] * scale[c]^-(beta+1)  for i in
  //     window(c). Accumulate over all output channels c whose window
  //     contains i. Cross terms never leave the sample, so the batch
  //     loop shards with disjoint writes.
  Tensor grad_in(s);
  const std::int64_t plane = s.h() * s.w();
  parallel_for_shards(s.n(), kReductionShards,
                      shard_grain(2 * s.c() * plane * spec_.local_size),
                      [&](std::size_t, std::int64_t begin,
                          std::int64_t end) {
    for (std::int64_t n = begin; n < end; ++n) {
      for (std::int64_t p = 0; p < plane; ++p) {
        const float* px = in.data() + n * s.c() * plane + p;
        for (std::int64_t c = 0; c < s.c(); ++c) {
          const std::int64_t idx_c = (n * s.c() + c) * plane + p;
          // The scale as the forward computed it, rounded to float.
          const double scale =
              static_cast<float>(scale_at(px, plane, s.c(), c));
          const double go = grad_out[idx_c];
          const double pow_beta = std::pow(scale, -spec_.beta);
          // Diagonal term.
          grad_in[idx_c] += static_cast<float>(go * pow_beta);
          // Cross terms.
          const double common = -2.0 * spec_.beta * alpha_over_n * go *
                                in[idx_c] * pow_beta / scale;
          const std::int64_t lo = std::max<std::int64_t>(0, c - half);
          const std::int64_t hi =
              std::min<std::int64_t>(s.c() - 1, c + half);
          for (std::int64_t i = lo; i <= hi; ++i) {
            const std::int64_t idx_i = (n * s.c() + i) * plane + p;
            grad_in[idx_i] +=
                static_cast<float>(common * in[idx_i]);
          }
        }
      }
    }
  });
  return grad_in;
}

}  // namespace qnn::nn

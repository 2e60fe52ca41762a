// Numerical gradient checking for layers: compares analytic backward
// results against central finite differences of a scalar objective.
#pragma once

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "nn/layer.h"
#include "util/rng.h"

namespace qnn::testing {

// Objective: L = sum(out * coeffs) with fixed random coeffs, so
// dL/dout = coeffs. Checks dL/dinput and dL/dparams.
inline void check_layer_gradients(nn::Layer& layer, const Shape& in_shape,
                                  std::uint64_t seed = 3,
                                  double eps = 1e-3, double tol = 5e-3) {
  Rng rng(seed);
  Tensor input(in_shape);
  input.fill_uniform(rng, -1.0f, 1.0f);

  const Shape out_shape = layer.output_shape(in_shape);
  Tensor coeffs(out_shape);
  coeffs.fill_uniform(rng, -1.0f, 1.0f);

  auto objective = [&](const Tensor& in) {
    const Tensor out = layer.forward(in);
    double l = 0.0;
    for (std::int64_t i = 0; i < out.count(); ++i)
      l += static_cast<double>(out[i]) * coeffs[i];
    return l;
  };

  // Analytic gradients.
  for (nn::Param* p : layer.params()) p->zero_grad();
  (void)layer.forward(input);
  const Tensor grad_in = layer.backward(input, coeffs);
  ASSERT_EQ(grad_in.shape().to_string(), in_shape.to_string());

  // Numeric input gradient (subsampled for large tensors).
  const std::int64_t stride = std::max<std::int64_t>(1, input.count() / 64);
  for (std::int64_t i = 0; i < input.count(); i += stride) {
    Tensor plus = input, minus = input;
    plus[i] += static_cast<float>(eps);
    minus[i] -= static_cast<float>(eps);
    const double numeric = (objective(plus) - objective(minus)) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric, tol)
        << "input grad mismatch at flat index " << i;
  }

  // Numeric parameter gradients. The analytic ones were computed above;
  // snapshot each before the extra forwards.
  for (nn::Param* p : layer.params()) {
    const Tensor analytic = p->grad;
    const std::int64_t pstride =
        std::max<std::int64_t>(1, p->count() / 48);
    for (std::int64_t i = 0; i < p->count(); i += pstride) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = objective(input);
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = objective(input);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic[i], numeric, tol)
          << "param " << p->name << " grad mismatch at index " << i;
    }
  }
}

}  // namespace qnn::testing

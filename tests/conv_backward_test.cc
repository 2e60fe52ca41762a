// Byte pin of the conv backward data path (DESIGN.md §9, "Backward data
// path"): Conv2d::backward's dW, db and dX, and backward_params' dW and
// db, against an in-test copy of the per-sample algorithm it replaced —
// dW[Cout, rows] += gO * cols^T through a trans_b gemm, db one serial
// double chain per channel, dcol through a trans_a gemm and col2im one
// tap at a time. Shapes cover cols below, at and past the K-chunk width,
// stride 2 with pad, Cout above Cin*K*K (the gemm's transposed product,
// accumulating through its old-C transpose), batches across the shard
// sizes, 1 and 4 threads, and every SIMD level this CPU supports. A
// network case checks that skipping the first layer's dX leaves every
// parameter gradient byte-equal on LeNet and ConvNet.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/zoo.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "test_env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

std::vector<float> to_vec(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.count());
}

bool same_bytes(const std::vector<float>& a, const Tensor& b) {
  return a.size() == static_cast<std::size_t>(b.count()) &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct Grads {
  std::vector<float> dw, db, dx;
};

// The per-sample algorithm as it stood before the backward data path:
// shard partials in dW's own layout, W transposed by every dcol gemm,
// col2im with a bounds test per element. Accumulates into `from`'s
// dW and db, as backward accumulates into the layer's gradients.
Grads reference_backward(nn::Conv2d& conv, const Grads& from,
                         const Tensor& in, const Tensor& grad_out) {
  ConvGeometry g;
  g.in_c = in.shape().c();
  g.in_h = in.shape().h();
  g.in_w = in.shape().w();
  g.kernel_h = g.kernel_w = conv.spec().kernel;
  g.stride_h = g.stride_w = conv.spec().stride;
  g.pad_h = g.pad_w = conv.spec().pad;
  const std::int64_t n = in.shape().n();
  const std::int64_t rows = g.col_rows(), cols = g.col_cols();
  const std::int64_t cout = conv.spec().out_channels;
  const std::int64_t in_sample = in.shape().count_from(1);
  const std::int64_t out_sample = cout * cols;
  const std::size_t wcount = static_cast<std::size_t>(rows * cout);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const Tensor& weight = conv.weight().value;

  Grads r = from;
  r.dx.assign(static_cast<std::size_t>(in.count()), 0.0f);
  const std::vector<Shard> shards = make_shards(n, kReductionShards);
  std::vector<std::vector<float>> dw(shards.size(),
                                     std::vector<float>(wcount, 0.0f));
  std::vector<std::vector<double>> db(
      shards.size(), std::vector<double>(static_cast<std::size_t>(cout)));
  parallel_run(static_cast<std::int64_t>(shards.size()), [&](std::int64_t si) {
    const std::size_t u = static_cast<std::size_t>(si);
    std::vector<float> colbuf(static_cast<std::size_t>(rows * cols));
    std::vector<float> gcol(colbuf.size());
    for (std::int64_t s = shards[u].begin; s < shards[u].end; ++s) {
      const float* go = grad_out.data() + s * out_sample;
      im2col(g, in.data() + s * in_sample, colbuf.data());
      gemm({.m = cout, .n = rows, .k = cols, .a = go, .b = colbuf.data(),
            .trans_b = true, .c = dw[u].data(), .accumulate = true});
      for (std::int64_t c = 0; c < cout; ++c)
        for (std::int64_t i = 0; i < cols; ++i)
          db[u][static_cast<std::size_t>(c)] += go[c * cols + i];
      gemm({.m = rows, .n = cols, .k = cout,
            .a = weight.data(), .trans_a = true, .b = go,
            .c = gcol.data()});
      float* image = r.dx.data() + s * in_sample;
      std::int64_t row = 0;
      for (std::int64_t c = 0; c < g.in_c; ++c)
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row)
            for (std::int64_t y = 0; y < oh; ++y)
              for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
                const std::int64_t ix = x * g.stride_w - g.pad_w + kw;
                if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                  image[(c * g.in_h + iy) * g.in_w + ix] +=
                      gcol[static_cast<std::size_t>(row * oh * ow +
                                                    y * ow + x)];
              }
    }
  });
  for (std::size_t si = 0; si < shards.size(); ++si) {
    for (std::size_t w = 0; w < wcount; ++w) r.dw[w] += dw[si][w];
    for (std::int64_t c = 0; c < cout; ++c)
      r.db[static_cast<std::size_t>(c)] +=
          static_cast<float>(db[si][static_cast<std::size_t>(c)]);
  }
  return r;
}

struct ConvCase {
  const char* name;
  std::int64_t in_c, hw, out_c, kernel, stride, pad;
};

// cols = OH*OW against the K-chunk width (kGemmKChunk = 256) of the dW
// product, whose K is cols.
const ConvCase kCases[] = {
    {"cols64", 3, 10, 5, 3, 1, 0},        // 8x8 = 64 < 256
    {"cols256", 2, 18, 4, 3, 1, 0},       // 16x16 = 256, one full chunk
    {"cols576", 1, 28, 6, 5, 1, 0},       // 24x24 = 576, three chunks
    {"stride2pad1", 3, 15, 5, 3, 2, 1},   // 8x8, taps past every edge
    {"cout_gt_rows", 1, 10, 16, 3, 1, 1}, // Cout 16 > Cin*K*K 9
};

Tensor random_tensor(const Shape& s, std::uint64_t seed, float scale) {
  Tensor t(s);
  Rng rng(seed);
  t.fill_uniform(rng, -scale, scale);
  return t;
}

TEST(ConvBackwardPin, MatchesPerSampleAlgorithmByteForByte) {
  int runs = 0;
  for (const ConvCase& cc : kCases) {
    for (std::int64_t batch : {1, 3, 17, 32, 33}) {
      nn::ConvSpec spec;
      spec.out_channels = cc.out_c;
      spec.kernel = cc.kernel;
      spec.stride = cc.stride;
      spec.pad = cc.pad;
      nn::Conv2d proto(cc.in_c, spec);
      Rng rng(static_cast<std::uint64_t>(batch) * 131 + 7);
      proto.init_weights(rng);
      proto.bias().value = random_tensor(proto.bias().value.shape(), 11, 0.5f);
      // Gradients already accumulated from an earlier batch.
      proto.weight().grad = random_tensor(proto.weight().grad.shape(), 12, 1.0f);
      proto.bias().grad = random_tensor(proto.bias().grad.shape(), 13, 1.0f);
      const Tensor in = random_tensor(
          Shape{batch, cc.in_c, cc.hw, cc.hw},
          static_cast<std::uint64_t>(batch) * 17 + 1, 1.0f);
      const Shape out_shape = proto.output_shape(in.shape());
      const Tensor grads[2] = {
          random_tensor(out_shape, static_cast<std::uint64_t>(batch) * 19 + 2,
                        4.0f),
          random_tensor(out_shape, static_cast<std::uint64_t>(batch) * 23 + 3,
                        0.25f)};

      // Two batches into the same layer: the second accumulates onto the
      // first's gradients, through the per-thread buffers the first left
      // behind.
      Grads want{to_vec(proto.weight().grad), to_vec(proto.bias().grad), {}};
      std::vector<float> want_dx[2];
      for (int b = 0; b < 2; ++b) {
        want = reference_backward(proto, want, in, grads[b]);
        want_dx[b] = want.dx;
      }

      for (int threads : {1, 4}) {
        ScopedGlobalThreads pool(threads);
        for (SimdLevel level : supported_levels()) {
          ScopedSimdLevel force(level);
          SCOPED_TRACE(std::string(cc.name) + " batch=" +
                       std::to_string(batch) + " threads=" +
                       std::to_string(threads) + " " +
                       simd_level_name(level));
          nn::Conv2d conv = proto;
          nn::Conv2d params_only = proto;
          for (int b = 0; b < 2; ++b) {
            const Tensor dx = conv.backward(in, grads[b]);
            ASSERT_TRUE(same_bytes(want_dx[b], dx)) << "batch " << b;
            params_only.backward_params(in, grads[b]);
          }
          for (nn::Conv2d* layer : {&conv, &params_only}) {
            ASSERT_TRUE(same_bytes(want.dw, layer->weight().grad));
            ASSERT_TRUE(same_bytes(want.db, layer->bias().grad));
          }
          ++runs;
        }
      }
    }
  }
  EXPECT_GE(runs, 50);
}

// Network::backward runs backward_params on the first layer; every
// parameter gradient must equal the one the full chain (dX of layer 0
// included) accumulates.
TEST(ConvBackwardPin, SkippingFirstLayerInputGradKeepsParamGradBytes) {
  for (const char* key : {"lenet", "convnet"}) {
    SCOPED_TRACE(key);
    std::unique_ptr<nn::Network> net = nn::make_network(key, {0.25, 3});
    std::unique_ptr<nn::Network> full = nn::make_network(key, {0.25, 3});
    std::vector<std::int64_t> dims = nn::input_shape_for(key).dims();
    dims[0] = 5;
    const Tensor x = random_tensor(Shape{dims}, 21, 1.0f);
    const std::vector<int> labels{0, 3, 7, 1, 9};

    const nn::LossResult loss =
        nn::softmax_cross_entropy(net->forward(x), labels);
    net->backward(loss.grad_logits);

    std::vector<Tensor> ins{x};
    for (std::size_t i = 0; i < full->num_layers(); ++i)
      ins.push_back(full->layer(i).forward(ins.back()));
    const nn::LossResult full_loss =
        nn::softmax_cross_entropy(ins.back(), labels);
    Tensor g = full_loss.grad_logits;
    for (std::size_t i = full->num_layers(); i-- > 0;)
      g = full->layer(i).backward(ins[i], g);

    const std::vector<nn::Param*> got = net->trainable_params();
    const std::vector<nn::Param*> want = full->trainable_params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      SCOPED_TRACE("param " + std::to_string(p));
      EXPECT_TRUE(same_bytes(to_vec(want[p]->grad), got[p]->grad));
    }
  }
}

}  // namespace
}  // namespace qnn

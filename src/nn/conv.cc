#include "nn/conv.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "obs/trace.h"
#include "protect/abft.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::nn {
namespace {

// Per-thread im2col patches and column-space gradients, reused across
// calls and layers; they only grow. A shard task uses its executing
// thread's pair for one sample at a time. They are gemm's B operand, so
// they must not live in gemm's own per-thread scratch.
struct ColumnBuffers {
  std::vector<float> cols, gcol;
};

float* grown(std::vector<float>& buf, std::int64_t elems) {
  if (buf.size() < static_cast<std::size_t>(elems))
    buf.resize(static_cast<std::size_t>(elems));
  return buf.data();
}

ColumnBuffers& thread_columns() {
  thread_local ColumnBuffers buffers;
  return buffers;
}

// db[c] += the sum of one sample's gO[c, 0..cols), in double. Each
// channel keeps its own serial chain in position order; interleaving
// kChains channels lets their adds overlap instead of waiting on one
// chain's latency. (At 8 chains GCC packs the strided loads into
// vectors lane by lane, which measured no faster than one chain.)
void add_bias_grad(const float* go, std::int64_t cout, std::int64_t cols,
                   double* db) {
  constexpr std::int64_t kChains = 4;
  std::int64_t c = 0;
  for (; c + kChains <= cout; c += kChains) {
    double acc[kChains];
    for (std::int64_t t = 0; t < kChains; ++t) acc[t] = db[c + t];
    const float* src = go + c * cols;
    for (std::int64_t i = 0; i < cols; ++i)
      for (std::int64_t t = 0; t < kChains; ++t) acc[t] += src[t * cols + i];
    for (std::int64_t t = 0; t < kChains; ++t) db[c + t] = acc[t];
  }
  for (; c < cout; ++c) {
    const float* src = go + c * cols;
    for (std::int64_t i = 0; i < cols; ++i) db[c] += src[i];
  }
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, const ConvSpec& spec)
    : in_channels_(in_channels),
      spec_(spec),
      weight_("w", Shape{spec.out_channels, in_channels, spec.kernel,
                         spec.kernel}),
      bias_(spec.bias ? Param("b", Shape{spec.out_channels}) : Param()) {
  QNN_CHECK(in_channels > 0 && spec.out_channels > 0 && spec.kernel > 0);
  QNN_CHECK(spec.stride > 0 && spec.pad >= 0);
}

ConvGeometry Conv2d::geometry(const Shape& in) const {
  QNN_CHECK_MSG(in.rank() == 4 && in.c() == in_channels_,
                "conv input " << in.to_string() << " expects C="
                              << in_channels_);
  ConvGeometry g;
  g.in_c = in.c();
  g.in_h = in.h();
  g.in_w = in.w();
  g.kernel_h = g.kernel_w = spec_.kernel;
  g.stride_h = g.stride_w = spec_.stride;
  g.pad_h = g.pad_w = spec_.pad;
  QNN_CHECK_MSG(g.out_h() > 0 && g.out_w() > 0,
                "conv output collapses for input " << in.to_string());
  return g;
}

Shape Conv2d::output_shape(const Shape& in) const {
  const ConvGeometry g = geometry(in);
  return Shape{in.n(), spec_.out_channels, g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(const Tensor& in) {
  QNN_SPAN_N("conv_forward", "layer", in.shape().n());
  const ConvGeometry g = geometry(in.shape());
  const std::int64_t n = in.shape().n();
  const std::int64_t rows = g.col_rows();   // Cin*K*K
  const std::int64_t cols = g.col_cols();   // OH*OW
  const std::int64_t cout = spec_.out_channels;

  Tensor out(Shape{n, cout, g.out_h(), g.out_w()});
  const std::int64_t in_sample = in.shape().count_from(1);
  const std::int64_t out_sample = cout * cols;
  const float* bias = bias_.value.empty() ? nullptr : bias_.value.data();

  const std::vector<Shard> shards = make_shards(n, kReductionShards);
  // Samples write disjoint output rows, so sharding the batch is
  // bit-deterministic; each sample's im2col lands in the executing
  // thread's column buffer.
  parallel_run(static_cast<std::int64_t>(shards.size()),
               [&](std::int64_t si) {
                 float* colbuf = grown(thread_columns().cols, rows * cols);
                 const Shard& sh = shards[static_cast<std::size_t>(si)];
                 for (std::int64_t s = sh.begin; s < sh.end; ++s) {
                   im2col(g, in.data() + s * in_sample, colbuf);
                   // out[Cout, OHW] = W[Cout, rows] * cols[rows, OHW],
                   // bias folded into the gemm epilogue. The guarded
                   // entry adds ABFT checksums when a protect::AbftScope
                   // is active (inherited via the pool task context);
                   // otherwise it is the plain kernel.
                   protect::gemm_guarded(
                       {.m = cout, .n = cols, .k = rows,
                        .a = weight_.value.data(), .b = colbuf,
                        .c = out.data() + s * out_sample, .bias = bias});
                 }
               });
  return out;
}

Tensor Conv2d::backward(const Tensor& in, const Tensor& grad_out) {
  Tensor grad_in(in.shape());
  run_backward(in, grad_out, &grad_in);
  return grad_in;
}

void Conv2d::backward_params(const Tensor& in, const Tensor& grad_out) {
  run_backward(in, grad_out, nullptr);
}

void Conv2d::run_backward(const Tensor& in, const Tensor& grad_out,
                          Tensor* grad_in) {
  const ConvGeometry g = geometry(in.shape());
  const std::int64_t n = in.shape().n();
  const std::int64_t rows = g.col_rows();
  const std::int64_t cols = g.col_cols();
  const std::int64_t cout = spec_.out_channels;
  QNN_CHECK(grad_out.shape() == output_shape(in.shape()));

  const std::int64_t in_sample = in.shape().count_from(1);
  const std::int64_t out_sample = cout * cols;
  const std::int64_t wcount = weight_.count();
  const bool has_bias = !bias_.value.empty();

  // Each shard accumulates weight/bias gradients into its own partials
  // (dW^T [rows, Cout] and db, zeroed here); grad_in writes are disjoint
  // per sample. Partials merge below in shard-index order, so the
  // reduction is thread-count independent.
  const std::vector<Shard> shards = make_shards(n, kReductionShards);
  const std::int64_t nshards = static_cast<std::int64_t>(shards.size());
  std::vector<float> dwt(static_cast<std::size_t>(nshards * wcount));
  std::vector<double> db(static_cast<std::size_t>(nshards * cout));
  // W^T [rows, Cout] once per backward, not once per sample's dcol.
  std::vector<float> wt;
  if (grad_in != nullptr) {
    wt.resize(static_cast<std::size_t>(wcount));
    transpose_into(wt.data(), weight_.value.data(), rows, cout);
  }

  parallel_run(nshards, [&](std::int64_t si) {
    ColumnBuffers& buffers = thread_columns();
    float* colbuf = grown(buffers.cols, rows * cols);
    float* shard_dwt = dwt.data() + si * wcount;
    double* shard_db = db.data() + si * cout;
    const Shard& sh = shards[static_cast<std::size_t>(si)];
    for (std::int64_t s = sh.begin; s < sh.end; ++s) {
      const float* go = grad_out.data() + s * out_sample;
      // dW^T[rows, Cout] += cols[rows, cols] * gO^T: element (r, c)
      // folds the products of dW[c, r] in the same order, and the
      // partial stays in this layout until the merge.
      im2col(g, in.data() + s * in_sample, colbuf);
      gemm({.m = rows, .n = cout, .k = cols, .a = colbuf, .b = go,
            .trans_b = true, .c = shard_dwt, .accumulate = true});
      if (has_bias) add_bias_grad(go, cout, cols, shard_db);
      if (grad_in == nullptr) continue;
      // dcols[rows, cols] = W^T[rows, Cout] * gO[Cout, cols]
      float* gcol = grown(buffers.gcol, rows * cols);
      gemm({.m = rows, .n = cols, .k = cout, .a = wt.data(), .b = go,
            .c = gcol});
      col2im(g, gcol, grad_in->data() + s * in_sample);
    }
  });

  for (std::int64_t si = 0; si < nshards; ++si) {
    transpose_into(weight_.grad.data(), dwt.data() + si * wcount, cout, rows,
                   /*accumulate=*/true);
    if (has_bias) {
      for (std::int64_t c = 0; c < cout; ++c)
        bias_.grad[c] += static_cast<float>(db[si * cout + c]);
    }
  }
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> p{&weight_};
  if (!bias_.value.empty()) p.push_back(&bias_);
  return p;
}

LayerDesc Conv2d::describe(const Shape& in) const {
  LayerDesc d = Layer::describe(in);
  const ConvGeometry g = geometry(in);
  d.fan_in = g.col_rows();
  d.macs = d.fan_in * spec_.out_channels * g.col_cols();
  d.weights = weight_.count();
  d.biases = bias_.value.empty() ? 0 : bias_.value.count();
  return d;
}

void Conv2d::init_weights(Rng& rng) {
  const double fan_in =
      static_cast<double>(in_channels_ * spec_.kernel * spec_.kernel);
  const double bound = std::sqrt(6.0 / fan_in);  // He-uniform for ReLU nets
  weight_.value.fill_uniform(rng, static_cast<float>(-bound),
                             static_cast<float>(bound));
  if (!bias_.value.empty()) bias_.value.zero();
}

}  // namespace qnn::nn

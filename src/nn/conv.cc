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

void ensure_scratch(std::vector<std::vector<float>>& bufs,
                    std::size_t shards, std::size_t elems) {
  if (bufs.size() < shards) bufs.resize(shards);
  for (std::size_t i = 0; i < shards; ++i)
    if (bufs[i].size() < elems) bufs[i].resize(elems);
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
  ensure_scratch(colbuf_, shards.size(),
                 static_cast<std::size_t>(rows * cols));
  if (gemm_scratch_.size() < shards.size())
    gemm_scratch_.resize(shards.size());
  // Samples write disjoint output rows, so sharding the batch is
  // bit-deterministic; each shard reuses its own im2col and gemm
  // scratch (rows > kGemmKChunk makes the per-sample product K-chunked).
  parallel_run(static_cast<std::int64_t>(shards.size()),
               [&](std::int64_t si) {
                 const std::size_t u = static_cast<std::size_t>(si);
                 float* colbuf = colbuf_[u].data();
                 const Shard& sh = shards[u];
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
                        .c = out.data() + s * out_sample, .bias = bias},
                       &gemm_scratch_[u]);
                 }
               });
  cached_in_ = in;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  Tensor grad_in(cached_in_.shape());
  run_backward(grad_out, &grad_in);
  return grad_in;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  run_backward(grad_out, nullptr);
}

void Conv2d::run_backward(const Tensor& grad_out, Tensor* grad_in) {
  QNN_CHECK_MSG(!cached_in_.empty(), "backward before forward");
  const Tensor& in = cached_in_;
  const ConvGeometry g = geometry(in.shape());
  const std::int64_t n = in.shape().n();
  const std::int64_t rows = g.col_rows();
  const std::int64_t cols = g.col_cols();
  const std::int64_t cout = spec_.out_channels;
  QNN_CHECK(grad_out.shape() == output_shape(in.shape()));

  const std::int64_t in_sample = in.shape().count_from(1);
  const std::int64_t out_sample = cout * cols;
  const std::size_t wcount = static_cast<std::size_t>(weight_.count());
  const bool has_bias = !bias_.value.empty();

  const std::vector<Shard> shards = make_shards(n, kReductionShards);
  ensure_scratch(colbuf_, shards.size(),
                 static_cast<std::size_t>(rows * cols));
  ensure_scratch(dwt_, shards.size(), wcount);
  if (gemm_scratch_.size() < shards.size())
    gemm_scratch_.resize(shards.size());
  if (db_.size() < shards.size()) db_.resize(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i)
    if (db_[i].size() < static_cast<std::size_t>(cout))
      db_[i].resize(static_cast<std::size_t>(cout));
  if (grad_in != nullptr) {
    ensure_scratch(gcol_, shards.size(),
                   static_cast<std::size_t>(rows * cols));
    // W^T once per backward, not once per sample's dcol product.
    if (wt_.size() < wcount) wt_.resize(wcount);
    transpose_into(wt_.data(), weight_.value.data(), rows, cout);
  }

  // Each shard accumulates weight/bias gradients into its own partials;
  // grad_in writes are disjoint per sample. Partials merge below in
  // shard-index order, so the reduction is thread-count independent.
  parallel_run(
      static_cast<std::int64_t>(shards.size()), [&](std::int64_t si) {
        const std::size_t u = static_cast<std::size_t>(si);
        float* colbuf = colbuf_[u].data();
        float* dwt = dwt_[u].data();
        double* db = db_[u].data();
        std::memset(dwt, 0, sizeof(float) * wcount);
        for (std::int64_t c = 0; c < cout; ++c) db[c] = 0.0;
        const Shard& sh = shards[u];
        for (std::int64_t s = sh.begin; s < sh.end; ++s) {
          const float* go = grad_out.data() + s * out_sample;
          // dW^T[rows, Cout] += cols[rows, cols] * gO^T: element (r, c)
          // folds the products of dW[c, r] in the same order, and the
          // partial stays in this layout until the merge.
          im2col(g, in.data() + s * in_sample, colbuf);
          gemm({.m = rows, .n = cout, .k = cols, .a = colbuf, .b = go,
                .trans_b = true, .c = dwt, .accumulate = true},
               &gemm_scratch_[u]);
          if (has_bias) add_bias_grad(go, cout, cols, db);
          if (grad_in == nullptr) continue;
          // dcols[rows, cols] = W^T[rows, Cout] * gO[Cout, cols]
          float* gcol = gcol_[u].data();
          gemm({.m = rows, .n = cols, .k = cout, .a = wt_.data(), .b = go,
                .c = gcol},
               &gemm_scratch_[u]);
          col2im(g, gcol, grad_in->data() + s * in_sample);
        }
      });

  for (std::size_t si = 0; si < shards.size(); ++si) {
    transpose_into(weight_.grad.data(), dwt_[si].data(), cout, rows,
                   /*accumulate=*/true);
    if (has_bias) {
      for (std::int64_t c = 0; c < cout; ++c)
        bias_.grad[c] += static_cast<float>(db_[si][c]);
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

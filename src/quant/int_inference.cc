#include "quant/int_inference.h"

#include <algorithm>
#include <limits>

#include "fixed/plan_sigmoid.h"
#include "obs/trace.h"
#include "quant/int_datapath.h"
#include "quant/qnetwork.h"
#include "tensor/int_gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::quant {
namespace {

// The shift-round-saturate step from `from_frac` onto `f`'s grid.
IntRequant requant_to(int from_frac, const FixedPointFormat& f) {
  const int shift = from_frac - f.frac_bits();
  QNN_CHECK_MSG(shift > -62 && shift < 62, "fixed-point shift out of range");
  return IntRequant{shift, f.raw_min(), f.raw_max()};
}

// A stage's input: raw words, their shape, and the grid they sit on.
// The word type is int8 when every format in the network fits 8 bits
// (the int8 kernel then runs end-to-end), int16 otherwise.
template <typename WordT>
struct View {
  const WordT* w = nullptr;
  Shape shape;
  FixedPointFormat format{16, 8};
};

template <typename WordT>
struct Stage {
  virtual ~Stage() = default;
  // The plan stage: geometry and formats. A conv / inner product drops
  // its weight words and bias once they are packed.
  IntStage spec;
  // Span name and category; literals, since spans keep the pointers.
  const char* span_name = "int.stage";
  const char* span_cat = "int";
  FixedPointFormat out_format{16, 8};  // spec.out, or a fused ReLU's site
  // Scratch words run() needs for an input of shape `in`.
  virtual std::int64_t scratch_words(const Shape&) const { return 0; }
  virtual void run(const View<WordT>& in, WordT* out,
                   WordT* scratch) const = 0;
};

// Conv and inner product: packed weights, one addend per output (the
// aligned bias, minus the 128 * sum(w) the int8 activation offset adds)
// and the fused epilogue's constants, all fixed by plan_gemm().
template <typename WordT>
struct GemmStage : Stage<WordT> {
  static constexpr bool kOffset = sizeof(WordT) == 1;
  std::vector<WordT> weights;
  std::vector<std::int64_t> addend;
  IntTier tier = IntTier::kExact64;
  IntEpilogue epi;

  // A stage whose bound failed runs the exact scalar tier.
  SimdLevel level() const {
    return tier == IntTier::kExact64 ? SimdLevel::kScalar
                                     : active_simd_level();
  }
  IntTileJob job() const {
    IntTileJob j;
    j.body = int_body<WordT>;
    j.groups = int_groups<WordT>(this->spec.k);
    j.epi = epi;
    j.epi.out_bytes = sizeof(WordT);
    return j;
  }
};

// The accumulator-bound pass for one stage: bound |acc| from the
// encoded weights, the input site's raw range and the aligned bias,
// take the tier the bound proves exact, fold bias and offset correction
// into the addend, and pack the weights (as B panels when they are the
// column operand, as A rows otherwise). The plan's words and bias are
// released: only the packed form stays.
template <typename WordT>
IntStagePlan plan_gemm(GemmStage<WordT>& st, const FixedPointFormat* relu_out,
                       bool weights_as_panels) {
  IntStage& spec = st.spec;
  const std::int64_t outputs = spec.outputs, k = spec.k;
  std::vector<WordT> w(spec.weights.words.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const std::int32_t raw = spec.weights.words[i];
    QNN_DCHECK(raw >= std::numeric_limits<WordT>::min() &&
               raw <= std::numeric_limits<WordT>::max());
    w[i] = static_cast<WordT>(raw);
  }
  st.addend = std::move(spec.bias);
  st.addend.resize(static_cast<std::size_t>(outputs), 0);
  spec.weights = IntWeights{};
  spec.bias = {};
  const AccBound bound =
      bound_accumulator(outputs, k, w.data(), spec.in, st.addend.data());

  IntStagePlan plan;
  plan.word_bits = 8 * static_cast<int>(sizeof(WordT));
  plan.tier = choose_int_tier(plan.word_bits, bound, &plan.fallback);
  plan.acc_bits = bound.bits();
  plan.fused_relu = relu_out != nullptr;
  st.tier = plan.tier;
  st.epi.requant = requant_to(spec.acc_frac, spec.out);
  plan.epilogue =
      choose_int_epilogue(plan.tier, bound, st.epi.requant.shift);
  st.epi.i32 = plan.epilogue == IntEpilogueWidth::kI32;

  if constexpr (GemmStage<WordT>::kOffset) {
    for (std::int64_t o = 0; o < outputs; ++o) {
      std::int64_t sum = 0;
      for (std::int64_t p = 0; p < k; ++p) sum += w[o * k + p];
      st.addend[static_cast<std::size_t>(o)] -= 128 * sum;
    }
  }
  if (weights_as_panels) {
    st.weights.resize(static_cast<std::size_t>(int_panels(outputs) *
                                               int_panel_words<WordT>(k)));
    pack_int_panels(outputs, k, w.data(), k, false, st.weights.data());
  } else {
    st.weights.resize(
        static_cast<std::size_t>(outputs * int_row_words<WordT>(k)));
    pack_int_rows(outputs, k, w.data(), k, false, st.weights.data());
  }
  st.epi.relu = relu_out != nullptr;
  if (relu_out != nullptr)
    st.epi.relu_requant = requant_to(spec.out.frac_bits(), *relu_out);
  st.out_format = relu_out != nullptr ? *relu_out : spec.out;
  st.span_cat = int_tier_name(plan.tier);
  return plan;
}

template <typename WordT>
struct ConvStage final : GemmStage<WordT> {
  // Work items are (sample, panel) pairs; each shard packs one panel at a
  // time into its own scratch slot, gathering from the input image
  // zero-padded (and, for int8, offset) once per forward. The padded
  // planes sit between kIntPanel words of slack on each side: the vector
  // pack reads past a run's lanes.
  std::int64_t items(const Shape& s) const {
    const Shape o = this->spec.out_shape(s);
    return s.n() * int_panels(o.h() * o.w());
  }
  std::int64_t grain() const {
    return shard_grain(2 * this->spec.outputs * kIntPanel * this->spec.k);
  }
  std::int64_t padded_words(const Shape& s) const {
    const std::int64_t pad = this->spec.pad;
    return s.n() * this->spec.in_c * (s.h() + 2 * pad) * (s.w() + 2 * pad) +
           2 * kIntPanel;
  }
  std::int64_t scratch_words(const Shape& s) const override {
    return padded_words(s) +
           static_cast<std::int64_t>(
               make_shards(items(s), kReductionShards, grain()).size()) *
               int_panel_words<WordT>(this->spec.k);
  }

  void run(const View<WordT>& in, WordT* out, WordT* scratch) const override {
    const IntStage& sp = this->spec;
    const Shape& s = in.shape;
    QNN_CHECK(s.rank() == 4 && s.c() == sp.in_c);
    const Shape os = sp.out_shape(s);
    const std::int64_t ohw = os.h() * os.w();
    const std::int64_t panels = int_panels(ohw);
    const std::int64_t panel_words = int_panel_words<WordT>(sp.k);
    const IntPatchGeom geom{sp.in_c, sp.kernel, sp.stride, s.h() + 2 * sp.pad,
                            s.w() + 2 * sp.pad, os.w()};
    const std::int64_t plane = sp.in_c * geom.hp * geom.wp;
    WordT* padded = scratch + kIntPanel;
    scratch += padded_words(s);
    pad_planes(in, geom.hp, geom.wp, padded);
    const SimdLevel data_level = active_simd_level();
    const WordT zero = int_pack_word<WordT>(0, GemmStage<WordT>::kOffset);
    const SimdLevel level = this->level();
    IntTileJob job = this->job();
    job.m = sp.outputs;
    job.a = this->weights.data();
    job.epi.row_add = this->addend.data();
    job.epi.ldo = ohw;
    parallel_for_shards(
        items(s), kReductionShards, grain(),
        [&](std::size_t si, std::int64_t begin, std::int64_t end) {
          WordT* panel = scratch + static_cast<std::int64_t>(si) * panel_words;
          IntTileJob part = job;
          part.b = panel;
          for (std::int64_t item = begin; item < end; ++item) {
            const std::int64_t sample = item / panels;
            const std::int64_t j0 = (item % panels) * kIntPanel;
            part.n = std::min(kIntPanel, ohw - j0);
            pack_patch(data_level, geom, padded + sample * plane, j0, part.n,
                       zero, panel);
            part.epi.out = out + sample * sp.outputs * ohw + j0;
            int_tiles(level, part);
          }
        });
  }

  // The input planes in their packed form (int8 offset to u8) with a
  // border of packed zeros `pad` wide.
  void pad_planes(const View<WordT>& in, std::int64_t hp, std::int64_t wp,
                  WordT* padded) const {
    const Shape& s = in.shape;
    const std::int64_t pad = this->spec.pad;
    const WordT zero = int_pack_word<WordT>(0, GemmStage<WordT>::kOffset);
    parallel_for_shards(
        s.n() * this->spec.in_c, kReductionShards, shard_grain(2 * hp * wp),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          for (std::int64_t pl = begin; pl < end; ++pl) {
            const WordT* src = in.w + pl * s.h() * s.w();
            WordT* dst = padded + pl * hp * wp;
            std::fill(dst, dst + hp * wp, zero);
            for (std::int64_t y = 0; y < s.h(); ++y)
              for (std::int64_t x = 0; x < s.w(); ++x)
                dst[(y + pad) * wp + x + pad] = int_pack_word(
                    src[y * s.w() + x], GemmStage<WordT>::kOffset);
          }
        });
  }
};

// Inner products consume flattened inputs (as the NFU does): rows are
// samples, the activation side of the job.
template <typename WordT>
struct IpStage final : GemmStage<WordT> {
  std::int64_t scratch_words(const Shape& s) const override {
    return s[0] * int_row_words<WordT>(this->spec.k);
  }

  void run(const View<WordT>& in, WordT* out, WordT* scratch) const override {
    const std::int64_t n = in.shape[0], k = this->spec.k;
    QNN_CHECK(in.shape.count_from(1) == k);
    pack_int_rows(n, k, in.w, k, GemmStage<WordT>::kOffset, scratch);
    IntTileJob job = this->job();
    job.a_unsigned = true;
    job.m = n;
    job.n = this->spec.outputs;
    job.a = scratch;
    job.b = this->weights.data();
    job.epi.col_add = this->addend.data();
    job.epi.out = out;
    job.epi.ldo = this->spec.outputs;
    int_gemm_packed(this->level(), job);
  }
};

template <typename WordT>
struct PoolStage final : Stage<WordT> {
  void run(const View<WordT>& in, WordT* out, WordT*) const override {
    const IntStage& sp = this->spec;
    const Shape& s = in.shape;
    const Shape os = sp.out_shape(s);
    const IntPoolGeom geom{s.h(),     s.w(),     os.h(), os.w(),
                           sp.kernel, sp.stride, sp.pad};
    const SimdLevel level = active_simd_level();
    parallel_for_shards(
        s.n() * s.c(), kReductionShards,
        shard_grain(2 * geom.oh * geom.ow * sp.kernel * sp.kernel),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          pool_planes(level, geom, sp.pool_mode, in.format.frac_bits(),
                      this->out_format, end - begin,
                      in.w + begin * geom.h * geom.w,
                      out + begin * geom.oh * geom.ow);
        });
  }
};

// ReLU that does not directly follow a conv / inner product (one that
// does runs in that stage's epilogue), and the passthrough: a requant
// of every word.
template <typename WordT>
struct RequantStage final : Stage<WordT> {
  bool relu = false;
  void run(const View<WordT>& in, WordT* out, WordT*) const override {
    const SimdLevel level = active_simd_level();
    parallel_for_shards(
        in.shape.count(), kReductionShards, shard_grain(2),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          requant_words(level, in.w + begin, end - begin,
                        in.format.frac_bits(), this->out_format, relu,
                        out + begin);
        });
  }
};

template <typename WordT>
struct PlanStage final : Stage<WordT> {
  void run(const View<WordT>& in, WordT* out, WordT*) const override {
    const bool is_tanh = this->spec.kind == IntStageKind::kTanh;
    parallel_for_shards(
        in.shape.count(), kReductionShards, shard_grain(8),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin; i < end; ++i) {
            const double x = in.format.from_raw(in.w[i]);
            const double y = is_tanh ? plan_tanh(x) : plan_sigmoid(x);
            out[i] = static_cast<WordT>(this->out_format.to_raw(y));
          }
        });
  }
};

template <typename WordT>
struct Body {
  FixedPointFormat input_format{16, 8};
  std::vector<std::unique_ptr<Stage<WordT>>> stages;

  // One forward. Stage shapes come first, so the activation ping-pong
  // pair and the stages' shared scratch are sized once per forward;
  // nothing is cached between calls, so concurrent forwards are safe.
  RawTensor run(const Tensor& input) const {
    std::vector<Shape> shapes{input.shape()};
    std::int64_t words = input.count(), scratch_words = 0;
    for (const auto& stage : stages) {
      scratch_words =
          std::max(scratch_words, stage->scratch_words(shapes.back()));
      shapes.push_back(stage->spec.out_shape(shapes.back()));
      words = std::max(words, shapes.back().count());
    }
    std::vector<WordT> ping(static_cast<std::size_t>(words));
    std::vector<WordT> pong(static_cast<std::size_t>(words));
    std::vector<WordT> scratch(static_cast<std::size_t>(scratch_words));
    encode_words(active_simd_level(), input.data(), input.count(),
                 input_format, ping.data());
    View<WordT> x{ping.data(), shapes[0], input_format};
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const Stage<WordT>& stage = *stages[i];
      WordT* dst = x.w == ping.data() ? pong.data() : ping.data();
      {
        QNN_SPAN_N(stage.span_name, stage.span_cat,
                   static_cast<std::int64_t>(stage.spec.layer));
        stage.run(x, dst, scratch.data());
      }
      x = View<WordT>{dst, shapes[i + 1], stage.out_format};
    }
    RawTensor r;
    r.shape = x.shape;
    r.format = x.format;
    r.raw.assign(x.w, x.w + x.shape.count());
    return r;
  }
};

// Turns the plan into kernel stages, consuming it: each conv / inner
// product packs its words and releases them.
template <typename WordT>
std::unique_ptr<Body<WordT>> build_body(IntPlan& plan, IntPathPlan* report) {
  auto body = std::make_unique<Body<WordT>>();
  body->input_format = plan.input;
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    IntStage& spec = plan.stages[i];
    std::unique_ptr<Stage<WordT>> stage;
    if (spec.has_weights()) {
      // A ReLU right after the GEMM folds into its epilogue.
      const bool fuse = i + 1 < plan.stages.size() &&
                        plan.stages[i + 1].kind == IntStageKind::kRelu;
      const bool conv = spec.kind == IntStageKind::kConv;
      std::unique_ptr<GemmStage<WordT>> g;
      if (conv) {
        g = std::make_unique<ConvStage<WordT>>();
        g->span_name = fuse ? "int.conv+relu" : "int.conv";
      } else {
        g = std::make_unique<IpStage<WordT>>();
        g->span_name = fuse ? "int.ip+relu" : "int.ip";
      }
      g->spec = std::move(spec);
      IntStagePlan sp =
          plan_gemm(*g, fuse ? &plan.stages[i + 1].out : nullptr,
                    /*weights_as_panels=*/!conv);
      sp.kind = conv ? "conv" : "ip";
      sp.layer = g->spec.layer;
      report->stages.push_back(std::move(sp));
      body->stages.push_back(std::move(g));
      if (fuse) ++i;
      continue;
    }
    switch (spec.kind) {
      case IntStageKind::kPool:
        stage = std::make_unique<PoolStage<WordT>>();
        stage->span_name = "int.pool";
        break;
      case IntStageKind::kRelu: {
        auto relu = std::make_unique<RequantStage<WordT>>();
        relu->relu = true;
        stage = std::move(relu);
        stage->span_name = "int.relu";
        break;
      }
      case IntStageKind::kSigmoid:
      case IntStageKind::kTanh:
        stage = std::make_unique<PlanStage<WordT>>();
        stage->span_name = "int.plan";
        break;
      default:
        stage = std::make_unique<RequantStage<WordT>>();
        stage->span_name = "int.passthrough";
    }
    stage->out_format = spec.out;
    stage->spec = std::move(spec);
    body->stages.push_back(std::move(stage));
  }
  return body;
}

}  // namespace

struct IntInferenceEngine::Impl {
  std::unique_ptr<Body<std::int8_t>> b8;
  std::unique_ptr<Body<std::int16_t>> b16;
  IntPathPlan plan;
};

std::string IntInferenceEngine::ineligibility_reason(
    const nn::Network& net, const QuantizedNetwork& qnet) {
  const PrecisionConfig& cfg = qnet.config();
  if (cfg.kind != PrecisionKind::kFixed)
    return "precision kind is not fixed-point";
  if (!qnet.calibrated()) return "network is not calibrated";
  // The integer requant rounds half away from zero, which is the
  // fake-quant grid's rounding only under kNearest.
  if (cfg.rounding == Rounding::kStochastic)
    return "stochastic rounding is nondeterministic";
  if (cfg.rounding != Rounding::kNearest)
    return "rounding mode is not round-half-away (nearest): the integer "
           "requant would change the frozen outputs";
  for (std::size_t s = 0; s < qnet.num_sites(); ++s) {
    const auto* fq =
        dynamic_cast<const FixedQuantizer*>(&qnet.data_quantizer(s));
    if (fq == nullptr || !fq->format().has_value())
      return "data site without a calibrated fixed-point format";
    if (fq->format()->total_bits() > 16)
      return "data format wider than 16 bits";
  }
  auto& mutable_net = const_cast<nn::Network&>(net);
  std::size_t param_index = 0;
  for (std::size_t li = 0; li < mutable_net.num_layers(); ++li) {
    nn::Layer& layer = mutable_net.layer(li);
    if (!int_stage_kind(layer).has_value())
      return std::string("unsupported layer kind: ") + layer.kind();
    for (nn::Param* p : layer.params()) {
      const auto* fq = dynamic_cast<const FixedQuantizer*>(
          &qnet.weight_quantizer(param_index));
      if (fq == nullptr || !fq->format().has_value())
        return "parameter without a calibrated fixed-point format";
      // Weights become kernel operands; biases stay int64, any width.
      if (p->name == "w" && fq->format()->total_bits() > 16)
        return "weight format wider than 16 bits";
      ++param_index;
    }
  }
  return std::string();
}

IntInferenceEngine::IntInferenceEngine(nn::Network& net,
                                       const QuantizedNetwork& qnet)
    : impl_(std::make_unique<Impl>()) {
  const std::string reason = ineligibility_reason(net, qnet);
  QNN_CHECK_MSG(reason.empty(), "IntInferenceEngine: " << reason);

  IntPlan plan = lower_int_plan(net, qnet);
  bool fits8 = plan.input.total_bits() <= 8;
  for (const IntStage& s : plan.stages)
    fits8 = fits8 && s.out.total_bits() <= 8 &&
            (!s.has_weights() || s.weights.format.total_bits() <= 8);
  if (fits8) {
    impl_->b8 = build_body<std::int8_t>(plan, &impl_->plan);
  } else {
    impl_->b16 = build_body<std::int16_t>(plan, &impl_->plan);
  }
}

IntInferenceEngine::~IntInferenceEngine() = default;

bool IntInferenceEngine::uses_int8() const { return impl_->b8 != nullptr; }

const IntPathPlan& IntInferenceEngine::plan() const { return impl_->plan; }

RawTensor IntInferenceEngine::forward_raw(const Tensor& input) const {
  return impl_->b8 ? impl_->b8->run(input) : impl_->b16->run(input);
}

Tensor IntInferenceEngine::forward(const Tensor& input) const {
  return forward_raw(input).decode();
}

}  // namespace qnn::quant

// Every GemmOp form gemm accepts, for harnesses that must cover all of
// them: operand layout (plain, trans_a, trans_b) x accumulate x bias
// (none, row, column) — 18 forms. trans_a together with trans_b is the
// one combination gemm rejects, so it is not listed.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tensor/gemm.h"

namespace qnn::testing {

enum class FormBias { kNone, kRow, kCol };

struct GemmForm {
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;
  FormBias bias = FormBias::kNone;
};

inline std::vector<GemmForm> all_gemm_forms() {
  std::vector<GemmForm> forms;
  for (int layout = 0; layout < 3; ++layout)
    for (bool accumulate : {false, true})
      for (FormBias bias : {FormBias::kNone, FormBias::kRow, FormBias::kCol})
        forms.push_back({layout == 1, layout == 2, accumulate, bias});
  return forms;
}

inline std::string form_name(const GemmForm& f) {
  std::string name = f.trans_a ? "trans_a" : f.trans_b ? "trans_b" : "plain";
  if (f.accumulate) name += "+accumulate";
  if (f.bias == FormBias::kRow) name += "+row_bias";
  if (f.bias == FormBias::kCol) name += "+col_bias";
  return name;
}

// One problem's operands in every layout a form may ask for.
struct GemmOperands {
  std::int64_t m = 0, n = 0, k = 0;
  const float* a = nullptr;         // [M,K]
  const float* a_t = nullptr;       // [K,M], read by trans_a forms
  const float* b = nullptr;         // [K,N]
  const float* b_t = nullptr;       // [N,K], read by trans_b forms
  const float* row_bias = nullptr;  // M floats
  const float* col_bias = nullptr;  // N floats
  const float* c_seed = nullptr;    // M*N floats: C before the call
};

inline GemmOp bind(const GemmForm& f, const GemmOperands& x, float* c) {
  GemmOp op;
  op.m = x.m;
  op.n = x.n;
  op.k = x.k;
  op.a = f.trans_a ? x.a_t : x.a;
  op.trans_a = f.trans_a;
  op.b = f.trans_b ? x.b_t : x.b;
  op.trans_b = f.trans_b;
  op.c = c;
  op.accumulate = f.accumulate;
  if (f.bias == FormBias::kRow) op.bias = x.row_bias;
  if (f.bias == FormBias::kCol) {
    op.bias = x.col_bias;
    op.bias_axis = BiasAxis::kCol;
  }
  return op;
}

// C starts as c_seed (the old C of accumulate forms, stale bytes an
// overwriting form must ignore), then gemm runs the form into it.
inline std::vector<float> run_form(const GemmForm& f, const GemmOperands& x) {
  std::vector<float> c(x.c_seed, x.c_seed + x.m * x.n);
  gemm(bind(f, x, c.data()));
  return c;
}

// gemm keeps its workspace per thread, so the three states a call can
// find it in are reached through threads:
//
//   cold   fn on a new std::thread, whose workspace starts empty (a
//          rebuilt pool's workers start empty too);
//   warm   a repeat on the same thread, into the buffers the last call
//          sized;
//   stale  after dirty_gemm_workspace(), into oversized buffers that
//          still hold another product's bytes.
template <typename F>
auto on_fresh_thread(F&& fn) {
  decltype(fn()) result;
  std::thread t([&] { result = fn(); });
  t.join();
  return result;
}

// Grows the calling thread's workspace (and its pool's) past any test
// problem here and leaves another product's bytes in it: a trans_a op,
// whose A^T fills the transpose buffer, over several M blocks and K
// chunks, which fill the chunk partials.
inline void dirty_gemm_workspace() {
  const std::int64_t m = 256, n = 64, k = 2048;
  std::vector<float> a(static_cast<std::size_t>(k * m), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(k * n), -0.25f);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .trans_a = true,
        .b = b.data(), .c = c.data()});
}

inline bool bytes_equal(const std::vector<float>& x,
                        const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

}  // namespace qnn::testing

// AVX2/FMA intrinsics kernels — the fast half of the KernelMode::kVector
// backend (see kernels.h for the contract). This is the ONLY translation
// unit in the repository allowed to contain raw SIMD intrinsics; everything
// else goes through the dispatcher (enforced by tools/elan_analyze's raw-simd
// rule). Compiled with -mavx2 -mfma -ffp-contract=off (src/CMakeLists.txt):
// fusion happens exactly where an _mm256_fmadd_ps is written, never behind
// the compiler's back, so the operation sequence — and therefore the
// bit-level result — is fixed by this source text alone.
//
// The GEMM/dot/axpy chains use fused multiply-add (ULP-bounded vs the
// reference kernels); the elementwise kernels use unfused mul/add/sub and
// are bit-identical to the reference loops. Loads are the unaligned forms:
// Tensor storage is 64-byte aligned, but row starts are only aligned when
// cols % 8 == 0, and vmovups on an aligned address costs the same as
// vmovaps on every AVX2-era core.
#include "minidl/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace elan::minidl::detail {
namespace {

/// Fixed lane tree for one ymm accumulator:
/// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — pinned by the instruction
/// sequence below, independent of everything else.
float hsum_tree(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 s = _mm_add_ps(lo, hi);        // l0+l4, l1+l5, l2+l6, l3+l7
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));  // pairs with lanes 2,3
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
  return _mm_cvtss_f32(s);
}

void gemm_panel_avx2(int mr, int nr, int kc, const float* a,
                     std::ptrdiff_t a_row_stride, std::ptrdiff_t a_col_stride,
                     const float* bp, float* c, std::ptrdiff_t c_stride) {
  if (mr == kMicroRows && nr == kPanelWidth) {
    // The hot 8x8 micro-kernel: eight independent fma accumulator chains
    // (one ymm per C row), one panel load per k shared by all eight.
    __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps(), acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps(), acc7 = _mm256_setzero_ps();
    for (int k = 0; k < kc; ++k) {
      const __m256 bv = _mm256_loadu_ps(bp + static_cast<std::ptrdiff_t>(k) * kPanelWidth);
      const float* ak = a + k * a_col_stride;
      acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + a_row_stride), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 2 * a_row_stride), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 3 * a_row_stride), bv, acc3);
      acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 4 * a_row_stride), bv, acc4);
      acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 5 * a_row_stride), bv, acc5);
      acc6 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 6 * a_row_stride), bv, acc6);
      acc7 = _mm256_fmadd_ps(_mm256_broadcast_ss(ak + 7 * a_row_stride), bv, acc7);
    }
    const __m256 accs[kMicroRows] = {acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7};
    for (int r = 0; r < kMicroRows; ++r) {
      float* crow = c + r * c_stride;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), accs[r]));
    }
    return;
  }
  // Edge tiles (mr < 8 and/or nr < 8): one fma chain per row over the full
  // zero-padded panel width, scalar copy-out of the live nr lanes. Per
  // output element the chain is the same ascending-k fma sequence as the
  // hot kernel.
  for (int r = 0; r < mr; ++r) {
    __m256 acc = _mm256_setzero_ps();
    const float* ar = a + r * a_row_stride;
    for (int k = 0; k < kc; ++k) {
      const __m256 bv = _mm256_loadu_ps(bp + static_cast<std::ptrdiff_t>(k) * kPanelWidth);
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ar + k * a_col_stride), bv, acc);
    }
    alignas(32) float lanes[kPanelWidth];
    _mm256_store_ps(lanes, acc);
    float* crow = c + r * c_stride;
    for (int j = 0; j < nr; ++j) crow[j] += lanes[j];
  }
}

void dot_rows_avx2(int kc, const float* a, const float* const* b, int nb,
                   float* out) {
  // All nb accumulator chains advance through k together: one load of the
  // shared a-vector feeds up to eight independent fma chains.
  __m256 acc[8] = {_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                   _mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                   _mm256_setzero_ps(), _mm256_setzero_ps()};
  int k = 0;
  for (; k + kPanelWidth <= kc; k += kPanelWidth) {
    const __m256 av = _mm256_loadu_ps(a + k);
    for (int t = 0; t < nb; ++t) {
      acc[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(b[t] + k), acc[t]);
    }
  }
  for (int t = 0; t < nb; ++t) {
    float sum = hsum_tree(acc[t]);
    const float* bt = b[t];
    for (int kt = k; kt < kc; ++kt) sum = std::fmaf(a[kt], bt[kt], sum);
    out[t] = sum;
  }
}

void axpy_avx2(std::size_t n, float alpha, const float* x, float* y) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void add_avx2(std::size_t n, const float* x, float* y) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void scale_avx2(std::size_t n, float s, float* y) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), sv));
  }
  for (; i < n; ++i) y[i] *= s;
}

void relu_avx2(std::size_t n, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // max(y, +0) maps -0 inputs to +0, matching std::max(0.0f, v).
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) y[i] = std::max(0.0f, y[i]);
}

void relu_bwd_avx2(std::size_t n, const float* z, float* g) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Keep g where z > 0, exactly the reference predicate (z <= 0 -> 0).
    const __m256 keep = _mm256_cmp_ps(_mm256_loadu_ps(z + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(_mm256_loadu_ps(g + i), keep));
  }
  for (; i < n; ++i) {
    if (z[i] <= 0.0f) g[i] = 0.0f;
  }
}

void sgd_update_avx2(std::size_t n, float lr, float momentum, const float* g,
                     float* v, float* p) {
  // Deliberately UNFUSED (mul then add/sub): bit-identical to the scalar
  // reference update, so switching kVector on never perturbs optimizer state.
  const __m256 mv = _mm256_set1_ps(momentum);
  const __m256 lv = _mm256_set1_ps(lr);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vel =
        _mm256_add_ps(_mm256_mul_ps(mv, _mm256_loadu_ps(v + i)), _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(v + i, vel);
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), _mm256_mul_ps(lv, vel)));
  }
  for (; i < n; ++i) {
    v[i] = momentum * v[i] + g[i];
    p[i] -= lr * v[i];
  }
}

float row_max_avx2(std::size_t n, const float* x) {
  if (n < 8) {
    float best = x[0];
    for (std::size_t i = 1; i < n; ++i) best = std::max(best, x[i]);
    return best;
  }
  __m256 acc = _mm256_loadu_ps(x);
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8) acc = _mm256_max_ps(acc, _mm256_loadu_ps(x + i));
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x1));
  float best = _mm_cvtss_f32(m);
  for (; i < n; ++i) best = std::max(best, x[i]);
  return best;
}

}  // namespace

const KernelOps& avx2_kernel_ops() {
  static const KernelOps ops{
      "avx2",     gemm_panel_avx2, dot_rows_avx2, axpy_avx2,
      add_avx2,   scale_avx2,      relu_avx2,     relu_bwd_avx2,
      sgd_update_avx2, row_max_avx2,
  };
  return ops;
}

bool avx2_kernels_compiled() { return true; }

}  // namespace elan::minidl::detail

#else  // !(__AVX2__ && __FMA__): non-x86 target or intrinsics-less build.

namespace elan::minidl::detail {

const KernelOps& avx2_kernel_ops() { return portable_kernel_ops(); }
bool avx2_kernels_compiled() { return false; }

}  // namespace elan::minidl::detail

#endif

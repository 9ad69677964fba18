#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

// The AVX2 kernels are compiled with per-function target attributes (no
// global -mavx2 / -march=native), so a single binary carries both paths and
// picks one per-process via cpuid — CI runners and older machines without
// AVX2 exercise the scalar fallback of the very same build.
#if defined(WMS_SIMD) && (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define WMS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace wmsketch::simd {

namespace {

bool CpuHasAvx2Fma() {
#ifdef WMS_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool InitialEnabled() {
  if (!CpuHasAvx2Fma()) return false;
  return std::getenv("WMS_SIMD_DISABLE") == nullptr;
}

// Atomic because SetEnabled may be called (bench/test toggling) while
// engine worker threads read the flag inside every kernel; relaxed order
// suffices — both paths compute the same results, so there is nothing to
// synchronize beyond the flag itself.
std::atomic<bool> g_enabled{InitialEnabled()};

// ------------------------------------------------------- scalar kernels
//
// These are the semantics of record: every expression matches the seed
// per-feature loops (see wm_sketch.cc) so a WMS_SIMD=OFF build is
// bit-identical to pre-plan behavior, and the AVX2 kernels below reproduce
// them exactly (signs are ±1, so sign application never rounds).

void PlanScatterScalar(float* table, const PlanView& plan, const float* values,
                       double step) {
  const uint32_t d = plan.depth;
  for (size_t i = 0; i < plan.nnz; ++i) {
    const double delta = step * static_cast<double>(values[i]);
    const uint32_t* off = plan.offsets + i * d;
    const float* sg = plan.signs + i * d;
    for (uint32_t j = 0; j < d; ++j) {
      table[off[j]] -= static_cast<float>(delta * static_cast<double>(sg[j]));
    }
  }
}

void MergeScaledTableScalar(float* dst, const float* src, size_t n, double ratio) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] += static_cast<float>(ratio * static_cast<double>(src[i]));
  }
}

void ScaleTableScalar(float* t, size_t n, float f) {
  for (size_t i = 0; i < n; ++i) t[i] *= f;
}

double L2NormSquaredScalar(const float* t, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  }
  return s;
}

float MedianLargeScalar(float* v, size_t n) {
  const size_t mid = (n - 1) / 2;
  std::nth_element(v, v + static_cast<ptrdiff_t>(mid), v + n);
  return v[mid];
}

// --------------------------------------------------------- AVX2 kernels

#ifdef WMS_SIMD_X86

/// True when a kernel call of size `n` runs its vector variant: the AVX2
/// path is on and `n` reaches the kernel's kKernelThresholds field.
inline bool DispatchAvx2(size_t n, uint32_t min_size) {
  return g_enabled.load(std::memory_order_relaxed) && n >= min_size;
}

/// fdelta[i] = float(step · values[i]), the per-feature scatter magnitudes,
/// 4 double-precision products per iteration.
__attribute__((target("avx2,fma"))) void StepDeltasAvx2(const float* values, size_t n,
                                                        double step, float* fdelta) {
  const __m256d vstep = _mm256_set1_pd(step);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(values + i));
    _mm_storeu_ps(fdelta + i, _mm256_cvtpd_ps(_mm256_mul_pd(vstep, v)));
  }
  for (; i < n; ++i) {
    fdelta[i] = static_cast<float>(step * static_cast<double>(values[i]));
  }
}

__attribute__((target("avx2,fma"))) void MergeScaledTableAvx2(float* dst,
                                                              const float* src, size_t n,
                                                              double ratio) {
  const __m256d vratio = _mm256_set1_pd(ratio);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_loadu_ps(src + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(s));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(s, 1));
    const __m128 flo = _mm256_cvtpd_ps(_mm256_mul_pd(vratio, lo));
    const __m128 fhi = _mm256_cvtpd_ps(_mm256_mul_pd(vratio, hi));
    const __m256 add = _mm256_set_m128(fhi, flo);
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), add));
  }
  for (; i < n; ++i) {
    dst[i] += static_cast<float>(ratio * static_cast<double>(src[i]));
  }
}

__attribute__((target("avx2,fma"))) void ScaleTableAvx2(float* t, size_t n, float f) {
  const __m256 vf = _mm256_set1_ps(f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(t + i, _mm256_mul_ps(_mm256_loadu_ps(t + i), vf));
  }
  for (; i < n; ++i) t[i] *= f;
}

__attribute__((target("avx2,fma"))) double L2NormSquaredAvx2(const float* t, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(t + i));
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    s += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  }
  return s;
}

/// Rank-counting selection: v[i] is the lower-middle order statistic iff
/// #(y < v[i]) <= mid < #(y < v[i]) + #(y == v[i]). Eight comparisons per
/// instruction, no data-dependent partitioning, and the input is left
/// untouched. For the depth range this serves (8..64 rows) the O(n²/8)
/// comparison count undercuts nth_element's call-and-branch overhead.
__attribute__((target("avx2"))) float MedianLargeAvx2(const float* v, size_t n) {
  const size_t mid = (n - 1) / 2;
  for (size_t i = 0; i < n; ++i) {
    const __m256 xi = _mm256_set1_ps(v[i]);
    size_t lt = 0, eq = 0;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 w = _mm256_loadu_ps(v + j);
      lt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(w, xi, _CMP_LT_OQ)))));
      eq += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(w, xi, _CMP_EQ_OQ)))));
    }
    for (; j < n; ++j) {
      lt += v[j] < v[i] ? 1 : 0;
      eq += v[j] == v[i] ? 1 : 0;
    }
    if (lt <= mid && mid < lt + eq) return v[i];
  }
  return v[mid];  // unreachable for totally ordered (finite) inputs
}

// -------------------------------------------------------- AVX-512 kernels

bool CpuHasAvx512Scatter() {
  // f for the 16-lane gather/scatter/masks, cd for vpconflictd.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512cd");
}

/// table[offsets[e]] -= amounts[e] in exact lane order: vpconflictd finds,
/// per lane, the set of earlier lanes holding an equal offset, and the
/// masked gather→sub→scatter loop retires a lane only once every earlier
/// duplicate has stored — so duplicate offsets see the same store *sequence*
/// as the scalar loop (combining their amounts first would round
/// differently). Conflict-free blocks (the overwhelmingly common case for
/// hashed offsets) retire in a single round.
__attribute__((target("avx512f,avx512cd"))) void PlanScatterAvx512(
    float* table, const uint32_t* offsets, const float* amounts, size_t n) {
  size_t e = 0;
  for (; e + 16 <= n; e += 16) {
    const __m512i off = _mm512_loadu_si512(offsets + e);
    const __m512 amt = _mm512_loadu_ps(amounts + e);
    const __m512i conf = _mm512_conflict_epi32(off);
    __mmask16 pending = 0xffff;
    while (pending != 0) {
      // Ready: pending lanes none of whose earlier equal-offset lanes are
      // still pending. The earliest pending lane of every distinct offset
      // qualifies, so each round makes progress.
      const __mmask16 ready =
          pending & _mm512_testn_epi32_mask(
                        conf, _mm512_set1_epi32(static_cast<int>(
                                  static_cast<unsigned>(pending))));
      const __m512 cur =
          _mm512_mask_i32gather_ps(_mm512_setzero_ps(), ready, off, table, 4);
      _mm512_mask_i32scatter_ps(table, ready, off, _mm512_sub_ps(cur, amt), 4);
      pending = static_cast<__mmask16>(pending & ~ready);
    }
  }
  for (; e < n; ++e) table[offsets[e]] -= amounts[e];
}

#endif  // WMS_SIMD_X86

}  // namespace

bool Available() { return CpuHasAvx2Fma(); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on && Available(), std::memory_order_relaxed); }

const char* ActiveKernel() { return Enabled() ? "avx2" : "scalar"; }

void GatherSigned(const float* table, const uint32_t* offsets, const float* signs,
                  size_t n, float* out) {
  for (size_t e = 0; e < n; ++e) out[e] = signs[e] * table[offsets[e]];
}

float MedianLarge(float* v, size_t n) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, kKernelThresholds.median_min_depth)) return MedianLargeAvx2(v, n);
#endif
  return MedianLargeScalar(v, n);
}

double PlanMargin(const float* table, const PlanView& plan, const float* values,
                  float* scratch) {
  GatherSigned(table, plan.offsets, plan.signs, plan.entries(), scratch);
  // The seed-order accumulation: the per-feature inner sum is carried in
  // double and folded into the outer accumulator scaled by x_i, exactly as
  // the pre-plan PredictMargin loops did.
  const uint32_t d = plan.depth;
  double acc = 0.0;
  for (size_t i = 0; i < plan.nnz; ++i) {
    const float* g = scratch + i * d;
    double per_feature = 0.0;
    for (uint32_t j = 0; j < d; ++j) per_feature += static_cast<double>(g[j]);
    acc += per_feature * static_cast<double>(values[i]);
  }
  return acc;
}

void PlanScatter(float* table, const PlanView& plan, const float* values, double step,
                 [[maybe_unused]] float* scratch) {  // scratch feeds the AVX2 path only
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(plan.nnz, kKernelThresholds.scatter_min_nnz)) {
    // float(step·xᵢ·σ) == float(step·xᵢ)·σ for σ = ±1, so precomputing the
    // per-feature magnitudes keeps the stores bit-identical to the scalar
    // per-entry formula.
    StepDeltasAvx2(values, plan.nnz, step, scratch);
    const uint32_t d = plan.depth;
    static const bool has_avx512_scatter = CpuHasAvx512Scatter();
    if (has_avx512_scatter && plan.entries() >= 16) {
      // Expand the per-entry signed amounts (σ · float(step·xᵢ), exact for
      // σ = ±1) into a local buffer — the caller's scratch contract is
      // plan.nnz floats and the scatter consumes plan.entries() — then run
      // the conflict-serialized masked scatter.
      thread_local std::vector<float> amounts;
      const size_t entries = plan.entries();
      if (amounts.size() < entries) amounts.resize(entries);
      for (size_t i = 0; i < plan.nnz; ++i) {
        const float fd = scratch[i];
        const float* sg = plan.signs + i * d;
        float* am = amounts.data() + i * d;
        for (uint32_t j = 0; j < d; ++j) am[j] = sg[j] * fd;
      }
      PlanScatterAvx512(table, plan.offsets, amounts.data(), entries);
      return;
    }
    for (size_t i = 0; i < plan.nnz; ++i) {
      const float fd = scratch[i];
      const uint32_t* off = plan.offsets + i * d;
      const float* sg = plan.signs + i * d;
      for (uint32_t j = 0; j < d; ++j) table[off[j]] -= sg[j] * fd;
    }
    return;
  }
#endif
  PlanScatterScalar(table, plan, values, step);
}

void MergeScaledTable(float* dst, const float* src, size_t n, double ratio) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, kKernelThresholds.sweep_min_elems)) {
    MergeScaledTableAvx2(dst, src, n, ratio);
    return;
  }
#endif
  MergeScaledTableScalar(dst, src, n, ratio);
}

void ScaleTable(float* t, size_t n, float f) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, kKernelThresholds.sweep_min_elems)) {
    ScaleTableAvx2(t, n, f);
    return;
  }
#endif
  ScaleTableScalar(t, n, f);
}

double L2NormSquared(const float* t, size_t n) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, kKernelThresholds.sweep_min_elems)) return L2NormSquaredAvx2(t, n);
#endif
  return L2NormSquaredScalar(t, n);
}

}  // namespace wmsketch::simd

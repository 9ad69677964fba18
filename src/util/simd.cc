#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

// The AVX2 kernel is compiled with a per-function target attribute (no
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
// engine worker threads read the flag inside MedianLarge; relaxed order
// suffices — both paths compute the same results, so there is nothing to
// synchronize beyond the flag itself.
std::atomic<bool> g_enabled{InitialEnabled()};

float MedianLargeScalar(float* v, size_t n) {
  const size_t mid = (n - 1) / 2;
  std::nth_element(v, v + static_cast<ptrdiff_t>(mid), v + n);
  return v[mid];
}

// ---------------------------------------------------------- AVX2 kernel

#ifdef WMS_SIMD_X86

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
  if (n >= kKernelThresholds.median_min_depth && Enabled()) return MedianLargeAvx2(v, n);
#endif
  return MedianLargeScalar(v, n);
}

double PlanMargin(const float* table, const PlanView& plan, const float* values) {
  // The seed-order accumulation: the per-feature inner sum is carried in
  // double and folded into the outer accumulator scaled by x_i, exactly as
  // the pre-plan PredictMargin loops did.
  const uint32_t d = plan.depth;
  double acc = 0.0;
  for (size_t i = 0; i < plan.nnz; ++i) {
    const uint32_t* off = plan.offsets + i * d;
    const float* sg = plan.signs + i * d;
    double per_feature = 0.0;
    for (uint32_t j = 0; j < d; ++j) {
      per_feature += static_cast<double>(sg[j] * table[off[j]]);
    }
    acc += per_feature * static_cast<double>(values[i]);
  }
  return acc;
}

void PlanScatter(float* table, const PlanView& plan, const float* values, double step) {
  // The seed per-feature scatter expression (see WmSketch::UpdateWithPlan).
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

void MergeScaledTable(float* dst, const float* src, size_t n, double ratio) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] += static_cast<float>(ratio * static_cast<double>(src[i]));
  }
}

void ScaleTable(float* t, size_t n, float f) {
  for (size_t i = 0; i < n; ++i) t[i] *= f;
}

}  // namespace wmsketch::simd

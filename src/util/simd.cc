#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/math.h"

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

// Dispatch thresholds, one relaxed atomic per field: read on every kernel
// call (possibly from engine worker threads) while SetThresholds may be
// called from a bench/tuning thread. Both paths compute identical results,
// so — exactly as with g_enabled — nothing beyond the fields themselves
// needs synchronizing.
struct AtomicThresholds {
  std::atomic<uint32_t> gather_min_entries{KernelThresholds{}.gather_min_entries};
  std::atomic<uint32_t> paged_gather_min_entries{
      KernelThresholds{}.paged_gather_min_entries};
  std::atomic<uint32_t> fused_median_min_keys{KernelThresholds{}.fused_median_min_keys};
  std::atomic<uint32_t> scatter_min_nnz{KernelThresholds{}.scatter_min_nnz};
  std::atomic<uint32_t> sweep_min_elems{KernelThresholds{}.sweep_min_elems};
  std::atomic<uint32_t> median_min_depth{KernelThresholds{}.median_min_depth};
};
AtomicThresholds g_thresholds;

inline bool DispatchAvx2(size_t n, const std::atomic<uint32_t>& min_size) {
  return g_enabled.load(std::memory_order_relaxed) &&
         n >= min_size.load(std::memory_order_relaxed);
}

// Gather-calibration state: 0 = pending, 1 = running, 2 = settled. The hot
// path pays one acquire load; an explicit SetThresholds settles the state
// so user-chosen thresholds are never clobbered by a late calibration.
std::atomic<int> g_gather_cal_state{0};

// Serializes threshold *writers* (SetThresholds, the calibration's result
// application, SetReadPlanDispatched) so a calibration that was already
// mid-run when SetThresholds arrived cannot clobber the explicit values —
// the calibration re-checks the state under this lock before applying.
// Readers stay lock-free.
std::mutex g_threshold_writer_mu;

// Whether the read-only batch paths should materialize plans for the wide
// gather (see ReadPlanDispatched). Calibrated; conservatively off.
std::atomic<bool> g_read_plan_profitable{false};

// The paged-snapshot analogue (see PagedReadPlanDispatched): whether frozen
// read models should materialize plans for the page-pointer-walk gather.
// Calibrated separately — the paged gather's dependent-gather chain shifts
// the crossover — and conservatively off.
std::atomic<bool> g_paged_read_plan_profitable{false};

// ------------------------------------------------------- scalar kernels
//
// These are the semantics of record: every expression matches the seed
// per-feature loops (see wm_sketch.cc) so a WMS_SIMD=OFF build is
// bit-identical to pre-plan behavior, and the AVX2 kernels below reproduce
// them exactly (signs are ±1, so sign application never rounds).

void GatherSignedScalar(const float* table, const uint32_t* offsets, const float* signs,
                        size_t n, float* out) {
  for (size_t e = 0; e < n; ++e) out[e] = signs[e] * table[offsets[e]];
}

void GatherSignedPagedScalar(const float* const* pages, uint32_t shift, uint32_t mask,
                             const uint32_t* offsets, const float* signs, size_t n,
                             float* out) {
  for (size_t e = 0; e < n; ++e) {
    out[e] = signs[e] * pages[offsets[e] >> shift][offsets[e] & mask];
  }
}

// The fused-median scalar fallbacks: per key, read the d signed cells into a
// small buffer, run the util/math.h sorting network, round through double for
// the factor. This is exactly what the gather-to-scratch route (and the
// per-feature RawMedianFromPlan loop) computes, so routing between them can
// never change a result. Depth is capped at 7 by the callers (deeper medians
// take the rank-selection path).
void GatherMedianFusedScalar(const float* table, const uint32_t* offsets,
                             const float* signs, size_t keys, uint32_t depth,
                             double factor, float* out) {
  float est[7];
  for (size_t k = 0; k < keys; ++k) {
    const uint32_t* off = offsets + k * depth;
    const float* sg = signs + k * depth;
    for (uint32_t j = 0; j < depth; ++j) est[j] = sg[j] * table[off[j]];
    out[k] = static_cast<float>(factor *
                                static_cast<double>(MedianInPlace(est, depth)));
  }
}

void GatherMedianFusedPagedScalar(const float* const* pages, uint32_t shift,
                                  uint32_t mask, const uint32_t* offsets,
                                  const float* signs, size_t keys, uint32_t depth,
                                  double factor, float* out) {
  float est[7];
  for (size_t k = 0; k < keys; ++k) {
    const uint32_t* off = offsets + k * depth;
    const float* sg = signs + k * depth;
    for (uint32_t j = 0; j < depth; ++j) {
      est[j] = sg[j] * pages[off[j] >> shift][off[j] & mask];
    }
    out[k] = static_cast<float>(factor *
                                static_cast<double>(MedianInPlace(est, depth)));
  }
}

void AbsAboveFloorScalar(const float* v, size_t n, float floor, float* abs_out,
                         uint8_t* above_out) {
  for (size_t i = 0; i < n; ++i) {
    abs_out[i] = std::fabs(v[i]);
    // !(|v| <= floor), not (|v| > floor): TopKHeap::Offer rejects on
    // fabs(w) <= floor, so its complement must treat NaN as "not rejected"
    // exactly as the heap would.
    above_out[i] = !(abs_out[i] <= floor) ? 1 : 0;
  }
}

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

__attribute__((target("avx2,fma"))) void GatherSignedAvx2(const float* table,
                                                          const uint32_t* offsets,
                                                          const float* signs, size_t n,
                                                          float* out) {
  size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets + e));
    const __m256 cells = _mm256_i32gather_ps(table, idx, 4);
    const __m256 sg = _mm256_loadu_ps(signs + e);
    _mm256_storeu_ps(out + e, _mm256_mul_ps(sg, cells));
  }
  for (; e < n; ++e) out[e] = signs[e] * table[offsets[e]];
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

// ---- paged-gather and fused-median building blocks (not standalone kernels:
// the `inline` storage keeps them out of the simd-paired coverage regex; they
// are exercised through the *Avx2 kernels below, which the table registers).

/// Eight table cells through the page-pointer indirection: vpgatherqq loads
/// four 64-bit page pointers per half, the in-page offsets become byte
/// distances, and vpgatherqps reads through the absolute addresses (base
/// nullptr, scale 1). Pure loads — bit-identical to pages[off>>s][off&m].
__attribute__((target("avx2,fma"))) inline __m256 PagedCellGather8(
    const float* const* pages, __m128i vshift, __m256i vmask, __m256i off) {
  const __m256i page = _mm256_srl_epi32(off, vshift);
  const __m256i in_page = _mm256_and_si256(off, vmask);
  const long long* ptab = reinterpret_cast<const long long*>(pages);
  const __m256i ptr_lo = _mm256_i32gather_epi64(ptab, _mm256_castsi256_si128(page), 8);
  const __m256i ptr_hi =
      _mm256_i32gather_epi64(ptab, _mm256_extracti128_si256(page, 1), 8);
  const __m256i in_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(in_page));
  const __m256i in_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(in_page, 1));
  const __m256i addr_lo = _mm256_add_epi64(ptr_lo, _mm256_slli_epi64(in_lo, 2));
  const __m256i addr_hi = _mm256_add_epi64(ptr_hi, _mm256_slli_epi64(in_hi, 2));
  const __m128 cells_lo =
      _mm256_i64gather_ps(static_cast<const float*>(nullptr), addr_lo, 1);
  const __m128 cells_hi =
      _mm256_i64gather_ps(static_cast<const float*>(nullptr), addr_hi, 1);
  return _mm256_set_m128(cells_hi, cells_lo);
}

/// (b < a) ? b : a and (a < b) ? b : a — std::min / std::max reproduced
/// exactly. vminps/vmaxps are NOT usable here: they return the second
/// operand on ±0 ties where std::min/std::max return the first, and the
/// fused medians feed heap offers and serialized state downstream.
__attribute__((target("avx2,fma"))) inline __m256 VMinExact(__m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, _mm256_cmp_ps(b, a, _CMP_LT_OQ));
}
__attribute__((target("avx2,fma"))) inline __m256 VMaxExact(__m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, _mm256_cmp_ps(a, b, _CMP_LT_OQ));
}
__attribute__((target("avx2,fma"))) inline void VCSwap(__m256& a, __m256& b) {
  const __m256 lo = VMinExact(a, b);
  const __m256 hi = VMaxExact(a, b);
  a = lo;
  b = hi;
}

/// The util/math.h MedianInPlace sorting networks, one comparator sequence
/// per depth, run on 8 independent columns held in registers. Any edit to
/// the scalar networks must be mirrored here verbatim — the bit-identity
/// tests in hash_plan_test.cc will catch a drift.
__attribute__((target("avx2,fma"))) inline __m256 MedianNetwork8(__m256* v, uint32_t n) {
  switch (n) {
    case 1:
      return v[0];
    case 2:
      return VMinExact(v[0], v[1]);
    case 3:
      VCSwap(v[0], v[1]);
      VCSwap(v[1], v[2]);
      return VMaxExact(v[0], v[1]);
    case 4:
      VCSwap(v[0], v[1]);
      VCSwap(v[2], v[3]);
      VCSwap(v[0], v[2]);
      VCSwap(v[1], v[3]);
      return VMinExact(v[1], v[2]);
    case 5:
      VCSwap(v[0], v[1]);
      VCSwap(v[3], v[4]);
      VCSwap(v[2], v[4]);
      VCSwap(v[2], v[3]);
      VCSwap(v[1], v[4]);
      VCSwap(v[0], v[3]);
      VCSwap(v[0], v[2]);
      VCSwap(v[1], v[3]);
      return VMaxExact(v[1], v[2]);
    case 6:
      VCSwap(v[1], v[2]);
      VCSwap(v[4], v[5]);
      VCSwap(v[0], v[2]);
      VCSwap(v[3], v[5]);
      VCSwap(v[0], v[1]);
      VCSwap(v[3], v[4]);
      VCSwap(v[2], v[5]);
      VCSwap(v[0], v[3]);
      VCSwap(v[1], v[4]);
      VCSwap(v[2], v[4]);
      VCSwap(v[1], v[3]);
      return VMinExact(v[2], v[3]);
    default:  // 7 (callers cap depth at 7)
      VCSwap(v[1], v[2]);
      VCSwap(v[3], v[4]);
      VCSwap(v[5], v[6]);
      VCSwap(v[0], v[2]);
      VCSwap(v[3], v[5]);
      VCSwap(v[4], v[6]);
      VCSwap(v[0], v[1]);
      VCSwap(v[4], v[5]);
      VCSwap(v[2], v[6]);
      VCSwap(v[0], v[4]);
      VCSwap(v[1], v[5]);
      VCSwap(v[0], v[3]);
      VCSwap(v[2], v[5]);
      VCSwap(v[1], v[3]);
      VCSwap(v[2], v[4]);
      VCSwap(v[2], v[3]);
      return v[3];
  }
}

/// float(factor · double(med)) per lane — the exact per-key rounding of the
/// scalar estimate path (widen to double, multiply, round back once).
__attribute__((target("avx2,fma"))) inline __m256 ApplyFactor8(__m256 med,
                                                               __m256d vfactor) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(med));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(med, 1));
  const __m128 flo = _mm256_cvtpd_ps(_mm256_mul_pd(vfactor, lo));
  const __m128 fhi = _mm256_cvtpd_ps(_mm256_mul_pd(vfactor, hi));
  return _mm256_set_m128(fhi, flo);
}

__attribute__((target("avx2,fma"))) void GatherSignedPagedAvx2(
    const float* const* pages, uint32_t shift, uint32_t mask, const uint32_t* offsets,
    const float* signs, size_t n, float* out) {
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  size_t e = 0;
  for (; e + 8 <= n; e += 8) {
    const __m256i off =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offsets + e));
    const __m256 cells = PagedCellGather8(pages, vshift, vmask, off);
    _mm256_storeu_ps(out + e, _mm256_mul_ps(_mm256_loadu_ps(signs + e), cells));
  }
  for (; e < n; ++e) {
    out[e] = signs[e] * pages[offsets[e] >> shift][offsets[e] & mask];
  }
}

__attribute__((target("avx2,fma"))) void GatherMedianFusedAvx2(
    const float* table, const uint32_t* offsets, const float* signs, size_t keys,
    uint32_t depth, double factor, float* out) {
  const __m256d vfactor = _mm256_set1_pd(factor);
  const int d = static_cast<int>(depth);
  // Transposed plan loads: the 8 keys' row-j entries sit a stride of d apart.
  const __m256i stride =
      _mm256_mullo_epi32(_mm256_set1_epi32(d), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 lane[7];
  size_t k = 0;
  for (; k + 8 <= keys; k += 8) {
    const uint32_t* base_off = offsets + k * depth;
    const float* base_sg = signs + k * depth;
    for (int j = 0; j < d; ++j) {
      const __m256i offv =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(base_off) + j, stride, 4);
      const __m256 sgv = _mm256_i32gather_ps(base_sg + j, stride, 4);
      const __m256 cells = _mm256_i32gather_ps(table, offv, 4);
      lane[j] = _mm256_mul_ps(sgv, cells);
    }
    _mm256_storeu_ps(out + k, ApplyFactor8(MedianNetwork8(lane, depth), vfactor));
  }
  if (k < keys) {
    GatherMedianFusedScalar(table, offsets + k * depth, signs + k * depth, keys - k,
                            depth, factor, out + k);
  }
}

__attribute__((target("avx2,fma"))) void GatherMedianFusedPagedAvx2(
    const float* const* pages, uint32_t shift, uint32_t mask, const uint32_t* offsets,
    const float* signs, size_t keys, uint32_t depth, double factor, float* out) {
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256d vfactor = _mm256_set1_pd(factor);
  const int d = static_cast<int>(depth);
  const __m256i stride =
      _mm256_mullo_epi32(_mm256_set1_epi32(d), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 lane[7];
  size_t k = 0;
  for (; k + 8 <= keys; k += 8) {
    const uint32_t* base_off = offsets + k * depth;
    const float* base_sg = signs + k * depth;
    for (int j = 0; j < d; ++j) {
      const __m256i offv =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(base_off) + j, stride, 4);
      const __m256 sgv = _mm256_i32gather_ps(base_sg + j, stride, 4);
      const __m256 cells = PagedCellGather8(pages, vshift, vmask, offv);
      lane[j] = _mm256_mul_ps(sgv, cells);
    }
    _mm256_storeu_ps(out + k, ApplyFactor8(MedianNetwork8(lane, depth), vfactor));
  }
  if (k < keys) {
    GatherMedianFusedPagedScalar(pages, shift, mask, offsets + k * depth,
                                 signs + k * depth, keys - k, depth, factor, out + k);
  }
}

__attribute__((target("avx2,fma"))) void AbsAboveFloorAvx2(const float* v, size_t n,
                                                           float floor, float* abs_out,
                                                           uint8_t* above_out) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 vfloor = _mm256_set1_ps(floor);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(v + i));
    _mm256_storeu_ps(abs_out + i, a);
    // NLE (unordered) == !(a <= floor): matches the scalar kernel on NaN.
    const unsigned m = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(a, vfloor, _CMP_NLE_UQ)));
    for (int b = 0; b < 8; ++b) above_out[i + b] = static_cast<uint8_t>((m >> b) & 1u);
  }
  for (; i < n; ++i) {
    abs_out[i] = std::fabs(v[i]);
    above_out[i] = !(abs_out[i] <= floor) ? 1 : 0;
  }
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

/// Times the AVX2 gather against the scalar loop on an L2-resident table
/// with random offsets, at an update-sized problem (256 entries ≈ one
/// example's nnz·depth) and at a batch-sized one (4096 ≈ one EstimateBatch
/// chunk), and sets the gather dispatch accordingly: full (wins at both
/// sizes), batch-only (wins only wide), or off. A kernel must win by a
/// clear margin (≥20%) to dispatch — vpgatherdps runs at wildly different
/// speeds across parts (microcode mitigations, virtualization), borderline
/// wins flip with scheduling noise, and the scalar loop is never wrong.
void CalibrateGatherImpl() {
  if (!CpuHasAvx2Fma()) return;
  constexpr size_t kTableSize = 1u << 15;  // 128 KiB of floats
  constexpr size_t kBatchEntries = 4096;
  constexpr size_t kUpdateEntries = 256;
  std::vector<float> table(kTableSize);
  std::vector<uint32_t> offsets(kBatchEntries);
  std::vector<float> signs(kBatchEntries);
  std::vector<float> out(kBatchEntries);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (float& c : table) {
    c = static_cast<float>(static_cast<int>(next() & 0xff) - 128) * 0.01f;
  }
  for (size_t i = 0; i < kBatchEntries; ++i) {
    const uint64_t r = next();
    offsets[i] = static_cast<uint32_t>(r) & (kTableSize - 1);
    signs[i] = ((r >> 32) & 1) != 0 ? 1.0f : -1.0f;
  }
  float sink = 0.0f;
  double acc_sink = 0.0;
  // Best-of-7 over fixed-work inner loops: the minimum is the noise-robust
  // estimator for "how fast can this kernel go on this machine".
  const auto best_of = [&](size_t iters, auto&& kernel) {
    double best = 1e300;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t iter = 0; iter < iters; ++iter) kernel();
      const auto t1 = std::chrono::steady_clock::now();
      sink += out[kBatchEntries / 2];  // defeat dead-code elimination
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  const auto gather_pair = [&](size_t n, size_t iters, double required_ratio) {
    const double scalar_time = best_of(iters, [&] {
      GatherSignedScalar(table.data(), offsets.data(), signs.data(), n, out.data());
    });
    const double avx2_time = best_of(iters, [&] {
      GatherSignedAvx2(table.data(), offsets.data(), signs.data(), n, out.data());
    });
    return avx2_time < required_ratio * scalar_time;
  };
  // Update-sized gathers run interleaved with hashing, scatters, and heap
  // offers, whose work the out-of-order core overlaps with scalar table
  // reads for free — in-situ measurements show an isolated ~1.5× gather win
  // evaporating inside the update loop. Demand a 2× isolated win before
  // believing any of it transfers; wide batch gathers run back-to-back with
  // nothing to hide behind, so a clear (1.25×) win suffices there.
  const bool wins_update_size = gather_pair(kUpdateEntries, 128, 0.5);
  const bool wins_batch_size = gather_pair(kBatchEntries, 8, 0.8);

  // The read-path structural comparison at batch size: one fused pass (read
  // table, apply sign, accumulate — what the fused margin/median loops do
  // after hashing) versus the plan route (hardware gather into scratch + an
  // accumulation pass over it). Hashing costs both routes the same and
  // cancels out.
  const double fused_read_time = best_of(8, [&] {
    double acc = 0.0;
    for (size_t e = 0; e < kBatchEntries; ++e) {
      acc += static_cast<double>(signs[e]) * static_cast<double>(table[offsets[e]]);
    }
    acc_sink += acc;
  });
  const double plan_read_time = best_of(8, [&] {
    GatherSignedAvx2(table.data(), offsets.data(), signs.data(), kBatchEntries,
                     out.data());
    double acc = 0.0;
    for (size_t e = 0; e < kBatchEntries; ++e) acc += static_cast<double>(out[e]);
    acc_sink += acc;
  });
  // Paged-gather arms: the same table viewed through a synthetic page array
  // (1024 cells per page — the mid-range PickPageCells outcome), timing the
  // page-pointer-walk gather against the scalar paged loop at both shapes.
  // The dependent pointer gather shifts the crossover, hence the separate
  // threshold.
  constexpr uint32_t kPageShift = 10;
  constexpr uint32_t kPageMask = (1u << kPageShift) - 1;
  std::vector<const float*> pages(kTableSize >> kPageShift);
  for (size_t p = 0; p < pages.size(); ++p) {
    pages[p] = table.data() + (p << kPageShift);
  }
  const auto paged_pair = [&](size_t n, size_t iters, double required_ratio) {
    const double scalar_time = best_of(iters, [&] {
      GatherSignedPagedScalar(pages.data(), kPageShift, kPageMask, offsets.data(),
                              signs.data(), n, out.data());
    });
    const double avx2_time = best_of(iters, [&] {
      GatherSignedPagedAvx2(pages.data(), kPageShift, kPageMask, offsets.data(),
                            signs.data(), n, out.data());
    });
    return avx2_time < required_ratio * scalar_time;
  };
  const bool paged_wins_update_size = paged_pair(kUpdateEntries, 128, 0.5);
  const bool paged_wins_batch_size = paged_pair(kBatchEntries, 8, 0.8);

  // Paged structural read comparison, mirroring the flat one: the fused
  // per-cell page walk (what FusedMarginPaged/FusedEstimatePaged do after
  // hashing) versus the paged plan route (hardware page-walk gather into
  // scratch + an accumulation pass).
  const double fused_paged_read_time = best_of(8, [&] {
    double acc = 0.0;
    for (size_t e = 0; e < kBatchEntries; ++e) {
      acc += static_cast<double>(signs[e]) *
             static_cast<double>(pages[offsets[e] >> kPageShift][offsets[e] & kPageMask]);
    }
    acc_sink += acc;
  });
  const double plan_paged_read_time = best_of(8, [&] {
    GatherSignedPagedAvx2(pages.data(), kPageShift, kPageMask, offsets.data(),
                          signs.data(), kBatchEntries, out.data());
    double acc = 0.0;
    for (size_t e = 0; e < kBatchEntries; ++e) acc += static_cast<double>(out[e]);
    acc_sink += acc;
  });

  // Fused gather+median versus the route it replaces: gather-to-scratch plus
  // the per-key scalar sorting networks, at a batch-estimate shape (depth 5).
  // Both routes are bit-identical, so this is pure routing; the fused kernel
  // must still clearly win to dispatch.
  constexpr uint32_t kMedDepth = 5;
  constexpr size_t kMedKeys = kBatchEntries / kMedDepth;
  std::vector<float> med_out(kMedKeys);
  const double scratch_median_time = best_of(8, [&] {
    GatherSignedAvx2(table.data(), offsets.data(), signs.data(), kMedKeys * kMedDepth,
                     out.data());
    for (size_t k = 0; k < kMedKeys; ++k) {
      med_out[k] = static_cast<float>(
          1.0 * static_cast<double>(MedianInPlace(out.data() + k * kMedDepth, kMedDepth)));
    }
    sink += med_out[kMedKeys / 2];
  });
  const double fused_median_time = best_of(8, [&] {
    GatherMedianFusedAvx2(table.data(), offsets.data(), signs.data(), kMedKeys,
                          kMedDepth, 1.0, med_out.data());
    sink += med_out[kMedKeys / 2];
  });
  if (sink == 12345.678f || acc_sink == 12345.678) std::abort();  // keep sinks live

  // Apply under the writer lock, and only if nobody settled the state while
  // the timing loops ran: an explicit SetThresholds that raced with this
  // calibration must win ("explicit thresholds always stand"). Every clause
  // below only *raises* a threshold or *enables* a flag — the invariant the
  // eligible-call pre-check in the dispatchers relies on.
  std::lock_guard<std::mutex> lk(g_threshold_writer_mu);
  if (g_gather_cal_state.load(std::memory_order_acquire) != 1) return;
  if (!wins_batch_size) {
    // Not even the most gather-friendly shape wins: scalar everywhere.
    g_thresholds.gather_min_entries.store(0xffffffffu, std::memory_order_relaxed);
  } else if (!wins_update_size) {
    // Wide gathers pay, update-sized ones don't: dispatch batch-width only.
    g_thresholds.gather_min_entries.store(1024, std::memory_order_relaxed);
  }
  if (wins_batch_size && plan_read_time < 0.8 * fused_read_time) {
    // Gathers beat fused reads despite the extra pass: let the batched
    // read paths materialize plans.
    g_read_plan_profitable.store(true, std::memory_order_relaxed);
  }
  if (!paged_wins_batch_size) {
    g_thresholds.paged_gather_min_entries.store(0xffffffffu, std::memory_order_relaxed);
  } else if (!paged_wins_update_size) {
    g_thresholds.paged_gather_min_entries.store(1024, std::memory_order_relaxed);
  }
  if (paged_wins_batch_size && plan_paged_read_time < 0.8 * fused_paged_read_time) {
    g_paged_read_plan_profitable.store(true, std::memory_order_relaxed);
  }
  // The fused median replaces an already-vectorized route, so a modest but
  // clear win (≥10%) suffices; anything less and the scratch route stays.
  if (!(fused_median_time < 0.9 * scratch_median_time)) {
    g_thresholds.fused_median_min_keys.store(0xffffffffu, std::memory_order_relaxed);
  }
}

#endif  // WMS_SIMD_X86

#ifdef WMS_SIMD_X86
// WMS_SKIP_CALIBRATION: opt out of the ~1 ms timing run entirely (CI and
// short-lived test binaries). Dispatch then stands on the static defaults —
// both dispatch targets are bit-identical, so this only trades the measured
// per-machine routing for the unmeasured default one.
bool SkipCalibrationByEnv() {
  static const bool skip = std::getenv("WMS_SKIP_CALIBRATION") != nullptr;
  return skip;
}

void EnsureGatherCalibrated() {
  if (g_gather_cal_state.load(std::memory_order_acquire) == 2) return;
  // Deferral, not settlement: with the AVX2 path off nothing can dispatch a
  // gather, so there is nothing to calibrate — but a later SetEnabled(true)
  // must still be able to trigger the measurement.
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  if (SkipCalibrationByEnv()) {
    // Settle on the static defaults without measuring ("explicit choice
    // stands", like SetThresholds).
    std::lock_guard<std::mutex> lk(g_threshold_writer_mu);
    g_gather_cal_state.store(2, std::memory_order_release);
    return;
  }
  int expected = 0;
  if (g_gather_cal_state.compare_exchange_strong(expected, 1,
                                                 std::memory_order_acq_rel)) {
    CalibrateGatherImpl();
    g_gather_cal_state.store(2, std::memory_order_release);
  }
  // A concurrent calibrator is mid-run: proceed with the current thresholds
  // (both dispatch targets are bit-identical, so nothing can go wrong).
}
#endif

}  // namespace

bool Available() { return CpuHasAvx2Fma(); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on && Available(), std::memory_order_relaxed); }

const char* ActiveKernel() { return Enabled() ? "avx2" : "scalar"; }

KernelThresholds Thresholds() {
  KernelThresholds t;
  t.gather_min_entries = g_thresholds.gather_min_entries.load(std::memory_order_relaxed);
  t.paged_gather_min_entries =
      g_thresholds.paged_gather_min_entries.load(std::memory_order_relaxed);
  t.fused_median_min_keys =
      g_thresholds.fused_median_min_keys.load(std::memory_order_relaxed);
  t.scatter_min_nnz = g_thresholds.scatter_min_nnz.load(std::memory_order_relaxed);
  t.sweep_min_elems = g_thresholds.sweep_min_elems.load(std::memory_order_relaxed);
  t.median_min_depth = g_thresholds.median_min_depth.load(std::memory_order_relaxed);
  return t;
}

void SetThresholds(const KernelThresholds& t) {
  // Explicit thresholds settle the calibration state so a later lazy
  // calibration can never clobber them; the writer lock covers a
  // calibration that is already mid-run (it re-checks the state under the
  // same lock before applying its results).
  std::lock_guard<std::mutex> lk(g_threshold_writer_mu);
  g_gather_cal_state.store(2, std::memory_order_release);
  g_thresholds.gather_min_entries.store(t.gather_min_entries, std::memory_order_relaxed);
  g_thresholds.paged_gather_min_entries.store(t.paged_gather_min_entries,
                                              std::memory_order_relaxed);
  g_thresholds.fused_median_min_keys.store(t.fused_median_min_keys,
                                           std::memory_order_relaxed);
  g_thresholds.scatter_min_nnz.store(t.scatter_min_nnz, std::memory_order_relaxed);
  g_thresholds.sweep_min_elems.store(t.sweep_min_elems, std::memory_order_relaxed);
  g_thresholds.median_min_depth.store(t.median_min_depth, std::memory_order_relaxed);
}

void SetReadPlanDispatched(bool on) {
  std::lock_guard<std::mutex> lk(g_threshold_writer_mu);
  g_gather_cal_state.store(2, std::memory_order_release);  // explicit choice stands
  g_read_plan_profitable.store(on, std::memory_order_relaxed);
}

void SetPagedReadPlanDispatched(bool on) {
  std::lock_guard<std::mutex> lk(g_threshold_writer_mu);
  g_gather_cal_state.store(2, std::memory_order_release);  // explicit choice stands
  g_paged_read_plan_profitable.store(on, std::memory_order_relaxed);
}

void CalibrateGather() {
#ifdef WMS_SIMD_X86
  EnsureGatherCalibrated();
#endif
}

// The calibration triggers only on a SIMD-*eligible* call — one that would
// dispatch the AVX2 gather under the thresholds as they stand. That check
// is sound uncalibrated: the calibration only ever *raises*
// gather_min_entries (to batch-only or off) and only ever *enables* the
// read-plan route, so a call that fails the pre-check would fail it after
// calibrating too. Short-lived binaries that never reach an eligible size
// (unit tests, scalar-routed workloads) therefore never pay the ~1 ms run.

bool GatherDispatched(size_t entries) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(entries, g_thresholds.gather_min_entries)) {
    EnsureGatherCalibrated();
  }
#endif
  return DispatchAvx2(entries, g_thresholds.gather_min_entries);
}

bool ReadPlanDispatched(size_t entries) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(entries, g_thresholds.gather_min_entries)) {
    EnsureGatherCalibrated();
  }
#endif
  return g_read_plan_profitable.load(std::memory_order_relaxed) &&
         DispatchAvx2(entries, g_thresholds.gather_min_entries);
}

bool PagedReadPlanDispatched(size_t entries) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(entries, g_thresholds.paged_gather_min_entries)) {
    EnsureGatherCalibrated();
  }
#endif
  return g_paged_read_plan_profitable.load(std::memory_order_relaxed) &&
         DispatchAvx2(entries, g_thresholds.paged_gather_min_entries);
}

bool FusedMedianDispatched([[maybe_unused]] size_t keys) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(keys, g_thresholds.fused_median_min_keys)) {
    EnsureGatherCalibrated();
    return DispatchAvx2(keys, g_thresholds.fused_median_min_keys);
  }
#endif
  return false;
}

void GatherSigned(const float* table, const uint32_t* offsets, const float* signs,
                  size_t n, float* out) {
#ifdef WMS_SIMD_X86
  // Below the crossover (in particular every depth ≤ 7 per-feature median
  // gather) the AVX2 variant would pay the vpgatherdps setup only to run its
  // scalar tail anyway; skip the extra call. The first *eligible* dispatch
  // calibrates whether this machine's hardware gather is worth using at all
  // (and may raise the threshold, hence the re-check).
  if (DispatchAvx2(n, g_thresholds.gather_min_entries)) {
    EnsureGatherCalibrated();
    if (DispatchAvx2(n, g_thresholds.gather_min_entries)) {
      GatherSignedAvx2(table, offsets, signs, n, out);
      return;
    }
  }
#endif
  GatherSignedScalar(table, offsets, signs, n, out);
}

void GatherSignedPaged(const float* const* pages, uint32_t shift, uint32_t mask,
                       const uint32_t* offsets, const float* signs, size_t n,
                       float* out) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, g_thresholds.paged_gather_min_entries)) {
    EnsureGatherCalibrated();
    if (DispatchAvx2(n, g_thresholds.paged_gather_min_entries)) {
      GatherSignedPagedAvx2(pages, shift, mask, offsets, signs, n, out);
      return;
    }
  }
#endif
  GatherSignedPagedScalar(pages, shift, mask, offsets, signs, n, out);
}

void GatherMedianFused(const float* table, const uint32_t* offsets, const float* signs,
                       size_t keys, uint32_t depth, double factor, float* out) {
  assert(depth >= 1 && depth <= 7);
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(keys, g_thresholds.fused_median_min_keys)) {
    EnsureGatherCalibrated();
    if (DispatchAvx2(keys, g_thresholds.fused_median_min_keys)) {
      GatherMedianFusedAvx2(table, offsets, signs, keys, depth, factor, out);
      return;
    }
  }
#endif
  GatherMedianFusedScalar(table, offsets, signs, keys, depth, factor, out);
}

void GatherMedianFusedPaged(const float* const* pages, uint32_t shift, uint32_t mask,
                            const uint32_t* offsets, const float* signs, size_t keys,
                            uint32_t depth, double factor, float* out) {
  assert(depth >= 1 && depth <= 7);
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(keys, g_thresholds.fused_median_min_keys)) {
    EnsureGatherCalibrated();
    if (DispatchAvx2(keys, g_thresholds.fused_median_min_keys)) {
      GatherMedianFusedPagedAvx2(pages, shift, mask, offsets, signs, keys, depth,
                                 factor, out);
      return;
    }
  }
#endif
  GatherMedianFusedPagedScalar(pages, shift, mask, offsets, signs, keys, depth, factor,
                               out);
}

void AbsAboveFloor(const float* v, size_t n, float floor, float* abs_out,
                   uint8_t* above_out) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, g_thresholds.sweep_min_elems)) {
    AbsAboveFloorAvx2(v, n, floor, abs_out, above_out);
    return;
  }
#endif
  AbsAboveFloorScalar(v, n, floor, abs_out, above_out);
}

float MedianLarge(float* v, size_t n) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, g_thresholds.median_min_depth)) return MedianLargeAvx2(v, n);
#endif
  return MedianLargeScalar(v, n);
}

// The seed-order accumulation shared by the flat and paged plan margins: the
// per-feature inner sum is carried in double and folded into the outer
// accumulator scaled by x_i, exactly as the pre-plan PredictMargin loops did
// — so the margin is bit-identical whichever gather path filled `gathered`.
static double PlanAccumulate(const PlanView& plan, const float* gathered,
                             const float* values) {
  const uint32_t d = plan.depth;
  double acc = 0.0;
  for (size_t i = 0; i < plan.nnz; ++i) {
    const float* g = gathered + i * d;
    double per_feature = 0.0;
    for (uint32_t j = 0; j < d; ++j) per_feature += static_cast<double>(g[j]);
    acc += per_feature * static_cast<double>(values[i]);
  }
  return acc;
}

double PlanMargin(const float* table, const PlanView& plan, const float* values,
                  float* scratch) {
  GatherSigned(table, plan.offsets, plan.signs, plan.entries(), scratch);
  return PlanAccumulate(plan, scratch, values);
}

double PlanMarginPaged(const float* const* pages, uint32_t shift, uint32_t mask,
                       const PlanView& plan, const float* values, float* scratch) {
  GatherSignedPaged(pages, shift, mask, plan.offsets, plan.signs, plan.entries(),
                    scratch);
  return PlanAccumulate(plan, scratch, values);
}

void PlanScatter(float* table, const PlanView& plan, const float* values, double step,
                 [[maybe_unused]] float* scratch) {  // scratch feeds the AVX2 path only
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(plan.nnz, g_thresholds.scatter_min_nnz)) {
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
  if (DispatchAvx2(n, g_thresholds.sweep_min_elems)) {
    MergeScaledTableAvx2(dst, src, n, ratio);
    return;
  }
#endif
  MergeScaledTableScalar(dst, src, n, ratio);
}

void ScaleTable(float* t, size_t n, float f) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, g_thresholds.sweep_min_elems)) {
    ScaleTableAvx2(t, n, f);
    return;
  }
#endif
  ScaleTableScalar(t, n, f);
}

double L2NormSquared(const float* t, size_t n) {
#ifdef WMS_SIMD_X86
  if (DispatchAvx2(n, g_thresholds.sweep_min_elems)) return L2NormSquaredAvx2(t, n);
#endif
  return L2NormSquaredScalar(t, n);
}

}  // namespace wmsketch::simd

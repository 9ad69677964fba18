#pragma once

#include <cstddef>
#include <cstdint>

namespace wmsketch::simd {

/// A flat view of one example's hash plan (see sketch/hash_plan.h): the
/// nnz × depth (table-offset, sign) pairs of an example, feature-major, so
/// entry (i, j) sits at i·depth + j. `offsets` are absolute offsets into the
/// row-major depth×width table (j·width + bucket), `signs` are ±1.0f.
struct PlanView {
  const uint32_t* offsets = nullptr;
  const float* signs = nullptr;
  size_t nnz = 0;
  uint32_t depth = 1;

  size_t entries() const { return nnz * depth; }
};

/// True when the CPU supports AVX2+FMA and the vector kernel (MedianLarge's)
/// was compiled in, i.e. the build had WMS_SIMD on and targets x86-64.
bool Available();

/// True when the AVX2 kernel is actually dispatched to: Available() and not
/// turned off via SetEnabled(false).
bool Enabled();

/// Runtime toggle, used by bench_hot_path and the kernel tests to compare
/// the two paths inside one process. Forcing `on` without hardware support
/// is ignored (Enabled() stays false).
void SetEnabled(bool on);

/// "avx2" or "scalar" — the path Enabled() currently selects.
const char* ActiveKernel();

/// The kernel routes, reported as minimum problem sizes (in the units of
/// each kernel's size argument) at which a vector variant would run when
/// Enabled(). The routes are fixed at compile time, and every field but
/// median_min_depth reads UINT32_MAX ("never").
///
/// Table reads have no vector route: on a 4-vCPU AVX-512 KVM guest the
/// plan-based read routes that would use a hardware gather failed to beat
/// the fused scalar loops by 20% in all 50 timed processes, and the
/// gather+median route's batched WM heap-offer update measured slower than
/// the per-feature loop (93k–97k against 111k–124k updates/s at WM 2^18×5,
/// heap 1024). The gradient scatter has none either: at feature hashing
/// w4096 the scalar loop beat the AVX2/AVX-512 scatter in 9 of 10 paired
/// runs. README, Performance, has the measurements.
struct KernelThresholds {
  /// Flat-table gathers (GatherSigned, PlanMargin): UINT32_MAX.
  uint32_t gather_min_entries;
  /// Paged-table gathers (frozen snapshots): UINT32_MAX.
  uint32_t paged_gather_min_entries;
  /// Gather-and-median of batched point estimates: UINT32_MAX.
  uint32_t fused_median_min_keys;
  /// PlanScatter's gradient scatter: UINT32_MAX.
  uint32_t scatter_min_nnz;
  /// MedianLarge rank-selection: minimum depth (never consulted below 8 —
  /// depths 1–7 always take the branchless sorting networks in util/math.h).
  uint32_t median_min_depth;
};

/// The thresholds the dispatcher applies.
inline constexpr KernelThresholds kKernelThresholds{
    .gather_min_entries = UINT32_MAX,
    .paged_gather_min_entries = UINT32_MAX,
    .fused_median_min_keys = UINT32_MAX,
    .scatter_min_nnz = UINT32_MAX,
    .median_min_depth = 8,
};

// The declarations below are constants. They report the fixed routes to
// perfbench's RecordFacts (its `kernel_routes` fact) and to the kernel tests
// that pin them; nothing in the library consults them.

/// kKernelThresholds.
constexpr KernelThresholds Thresholds() { return kKernelThresholds; }

/// Whether a read-only batch materializes a hash plan for a wide gather:
/// never. Every batched read runs the fused hash-and-read loop.
constexpr bool ReadPlanDispatched(size_t /*entries*/) { return false; }

/// ReadPlanDispatched for paged frozen snapshots: never.
constexpr bool PagedReadPlanDispatched(size_t /*entries*/) { return false; }

/// Whether batched medians run an in-register gather+median kernel: never.
constexpr bool FusedMedianDispatched(size_t /*keys*/) { return false; }

/// No-op: the routes are fixed at compile time, there is nothing to time.
inline void CalibrateGather() {}

/// Lower-middle order statistic of v[0..n) for n >= 8 — the median path for
/// sketch depths beyond the util/math.h sorting networks. The AVX2 variant
/// is a branchless rank-counting selection (8 comparisons per instruction,
/// no data-dependent partitioning); the scalar fallback is nth_element. Both
/// return the value of the same order statistic, so the paths are
/// bit-identical; only the scalar path reorders `v`.
float MedianLarge(float* v, size_t n);

/// out[e] = signs[e] · table[offsets[e]], one scalar read per entry (signs
/// are ±1, so the products are exact).
void GatherSigned(const float* table, const uint32_t* offsets, const float* signs,
                  size_t n, float* out);

/// The plan-driven margin accumulation Σᵢ xᵢ · Σⱼ signs[i·d+j] ·
/// table[offsets[i·d+j]], in one pass, with the per-feature inner sums and
/// the outer accumulation in double, in exactly the seed evaluation order.
double PlanMargin(const float* table, const PlanView& plan, const float* values);

/// The signed gradient scatter table[offsets[i·d+j]] -= float(step·values[i]
/// · signs[i·d+j]) over the whole plan, in plan order. Only valid when no
/// other read is interleaved per feature (no tracking heap); the
/// heap-tracking sketches scatter per-feature instead.
void PlanScatter(float* table, const PlanView& plan, const float* values, double step);

/// dst[i] += float(ratio · src[i]) — the MergeScaled table sweep (the double
/// product is rounded to float before the add).
void MergeScaledTable(float* dst, const float* src, size_t n, double ratio);

/// t[i] *= f — the lazy-rescale table sweep.
void ScaleTable(float* t, size_t n, float f);

}  // namespace wmsketch::simd

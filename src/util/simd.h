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

/// True when the CPU supports the AVX2+FMA kernels (and they were compiled
/// in, i.e. the build had WMS_SIMD on and targets x86-64).
bool Available();

/// True when the AVX2 kernels are actually dispatched to: Available(), not
/// killed by the WMS_SIMD_DISABLE environment variable, and not turned off
/// via SetEnabled(false).
bool Enabled();

/// Runtime toggle, used by bench_hot_path and the kernel tests to compare
/// the two paths inside one process. Forcing `on` without hardware support
/// is ignored (Enabled() stays false).
void SetEnabled(bool on);

/// "avx2" or "scalar" — the path Enabled() currently selects.
const char* ActiveKernel();

/// Per-kernel dispatch thresholds: the minimum problem size (in the units of
/// each kernel's size argument) at which the AVX2 variant is dispatched when
/// Enabled(). Below these sizes the cvt-heavy scatter prologue and the sweep
/// setup cost more than they save (see BENCH_hot_path.json history).
/// Thresholds bucket by the size the kernel actually sees (nnz for scatters,
/// elements for table sweeps, depth for medians). The routes are fixed at
/// compile time.
///
/// Table reads have no vector route: the three gather fields read
/// UINT32_MAX ("never"). On a 4-vCPU AVX-512 KVM guest the plan-based read
/// routes that would use a hardware gather failed to beat the fused scalar
/// loops by 20% in all 50 timed processes, and the gather+median route's
/// batched WM heap-offer update measured slower than the per-feature loop
/// (93k–97k against 111k–124k updates/s at WM 2^18×5, heap 1024); README,
/// Performance, has the measurements.
struct KernelThresholds {
  /// Flat-table gathers (GatherSigned, PlanMargin): UINT32_MAX.
  uint32_t gather_min_entries;
  /// Paged-table gathers (frozen snapshots): UINT32_MAX.
  uint32_t paged_gather_min_entries;
  /// Gather-and-median of batched point estimates: UINT32_MAX.
  uint32_t fused_median_min_keys;
  /// PlanScatter's vectorized per-feature step products: minimum nnz.
  uint32_t scatter_min_nnz;
  /// MergeScaledTable / ScaleTable / L2NormSquared: minimum element count.
  uint32_t sweep_min_elems;
  /// MedianLarge rank-selection: minimum depth (never consulted below 8 —
  /// depths 1–7 always take the branchless sorting networks in util/math.h).
  uint32_t median_min_depth;
};

/// The thresholds the dispatcher applies.
inline constexpr KernelThresholds kKernelThresholds{
    .gather_min_entries = UINT32_MAX,
    .paged_gather_min_entries = UINT32_MAX,
    .fused_median_min_keys = UINT32_MAX,
    .scatter_min_nnz = 8,
    .sweep_min_elems = 32,
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
/// table[offsets[i·d+j]], with the per-feature inner sums and the outer
/// accumulation in double, in exactly the seed evaluation order.
/// `scratch` must hold plan.entries() floats.
double PlanMargin(const float* table, const PlanView& plan, const float* values,
                  float* scratch);

/// The signed gradient scatter table[offsets[i·d+j]] -= float(step·values[i])
/// · signs[i·d+j] over the whole plan. Only valid when no other read is
/// interleaved per feature (no tracking heap); the heap-tracking sketches
/// scatter per-feature instead. `scratch` must hold plan.nnz floats.
/// Bit-identical across paths: the AVX2 side vectorizes only the per-feature
/// step·valueᵢ products (sign application and stores are exact), and on
/// AVX-512F+CD parts the stores themselves run as masked vpscatterdps rounds
/// with vpconflictd serializing duplicate offsets in lane order, so even
/// colliding entries see the exact scalar store sequence. The AVX-512 route
/// rides under the same Enabled()/ActiveKernel() "avx2" tag — it is a wider
/// implementation of the same dispatch decision, not a third result path.
void PlanScatter(float* table, const PlanView& plan, const float* values, double step,
                 float* scratch);

/// dst[i] += float(ratio · src[i]) — the MergeScaled table sweep. The double
/// product is rounded to float before the add in both paths (bit-identical).
void MergeScaledTable(float* dst, const float* src, size_t n, double ratio);

/// t[i] *= f — the lazy-rescale table sweep (bit-identical across paths).
void ScaleTable(float* t, size_t n, float f);

/// Σ t[i]² accumulated in double. The AVX2 path uses a 4-lane reduction, so
/// unlike the kernels above its rounding can differ from the scalar
/// left-to-right sum (callers of table norms are tolerance-based).
double L2NormSquared(const float* t, size_t n);

}  // namespace wmsketch::simd

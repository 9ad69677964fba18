#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace wmsketch {

/// Logistic sigmoid 1 / (1 + exp(-x)), stable for large |x|.
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

namespace detail {

/// Compare-exchange of a sorting network: branchless under -O2 (min/max
/// lower to vminss/vmaxss on x86), no libc call.
inline void CSwap(float& a, float& b) {
  const float lo = std::min(a, b);
  const float hi = std::max(a, b);
  a = lo;
  b = hi;
}

}  // namespace detail

/// Median of a small fixed buffer (the per-query path for depth-s sketches);
/// `n` must be >= 1 and the buffer is reordered. For even `n` it returns the
/// lower-middle element (the Count-Sketch convention, where depth is
/// typically odd). Depths 1–7 run an optimal sorting network instead of
/// std::nth_element: the per-feature heap offer in the update loop calls
/// this once per nonzero, and the nth_element call overhead dominated the
/// work at these sizes. Returns the same order statistic on every path.
/// Always inlined, like the sketch/read_path.h kernels: it runs once per
/// feature on every sketch read, where a call costs as much as a depth-1
/// median itself.
[[gnu::always_inline]] inline float MedianInPlace(float* v, size_t n) {
  using detail::CSwap;
  switch (n) {
    case 1:
      return v[0];
    case 2:
      return std::min(v[0], v[1]);
    case 3:
      CSwap(v[0], v[1]);
      CSwap(v[1], v[2]);
      return std::max(v[0], v[1]);
    case 4:
      CSwap(v[0], v[1]);
      CSwap(v[2], v[3]);
      CSwap(v[0], v[2]);
      CSwap(v[1], v[3]);
      return std::min(v[1], v[2]);
    case 5:
      CSwap(v[0], v[1]);
      CSwap(v[3], v[4]);
      CSwap(v[2], v[4]);
      CSwap(v[2], v[3]);
      CSwap(v[1], v[4]);
      CSwap(v[0], v[3]);
      CSwap(v[0], v[2]);
      CSwap(v[1], v[3]);
      return std::max(v[1], v[2]);
    case 6:
      CSwap(v[1], v[2]);
      CSwap(v[4], v[5]);
      CSwap(v[0], v[2]);
      CSwap(v[3], v[5]);
      CSwap(v[0], v[1]);
      CSwap(v[3], v[4]);
      CSwap(v[2], v[5]);
      CSwap(v[0], v[3]);
      CSwap(v[1], v[4]);
      CSwap(v[2], v[4]);
      CSwap(v[1], v[3]);
      return std::min(v[2], v[3]);
    case 7:
      CSwap(v[1], v[2]);
      CSwap(v[3], v[4]);
      CSwap(v[5], v[6]);
      CSwap(v[0], v[2]);
      CSwap(v[3], v[5]);
      CSwap(v[4], v[6]);
      CSwap(v[0], v[1]);
      CSwap(v[4], v[5]);
      CSwap(v[2], v[6]);
      CSwap(v[0], v[4]);
      CSwap(v[1], v[5]);
      CSwap(v[0], v[3]);
      CSwap(v[2], v[5]);
      CSwap(v[1], v[3]);
      CSwap(v[2], v[4]);
      CSwap(v[2], v[3]);
      return v[3];
    default:
      // Depth >= 8, which includes the WM budget planner's own shapes (depth
      // 14 at 8 KB, 30 at 16 KB): simd::MedianLarge, the one kernel with a
      // vector variant (AVX2 rank counting, nth_element fallback; the same
      // order statistic either way).
      return simd::MedianLarge(v, n);
  }
}

/// True iff `x` is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x must be >= 1 and representable).
constexpr uint64_t NextPowerOfTwo(uint64_t x) {
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace wmsketch

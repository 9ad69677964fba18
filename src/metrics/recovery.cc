#include "metrics/recovery.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace wmsketch {

std::vector<FeatureWeight> ExactTopK(const std::vector<float>& w_star, size_t k) {
  TopKHeap heap(k);
  for (uint32_t i = 0; i < w_star.size(); ++i) {
    if (w_star[i] == 0.0f) continue;
    heap.Offer(i, w_star[i]);
  }
  return heap.TopK(k);
}

double RelErrTopK(const std::vector<FeatureWeight>& estimated_topk,
                  const std::vector<float>& w_star, size_t k) {
  assert(k >= 1);
  assert(estimated_topk.size() <= k);

  // ‖w*‖² once; then both K-sparse distances via the identity
  // ‖wᴷ − w*‖² = ‖w*‖² + Σ_{i∈K}[(wᴷᵢ − w*ᵢ)² − w*ᵢ²].
  double norm_sq = 0.0;
  for (const float w : w_star) norm_sq += static_cast<double>(w) * static_cast<double>(w);

  double est_sq = norm_sq;
  std::unordered_set<uint32_t> seen;
  for (const FeatureWeight& fw : estimated_topk) {
    assert(fw.feature < w_star.size());
    const bool inserted = seen.insert(fw.feature).second;
    assert(inserted && "duplicate feature in estimated top-K");
    (void)inserted;
    const double truth = static_cast<double>(w_star[fw.feature]);
    const double diff = static_cast<double>(fw.weight) - truth;
    est_sq += diff * diff - truth * truth;
  }

  double ref_sq = norm_sq;
  for (const FeatureWeight& fw : ExactTopK(w_star, k)) {
    const double truth = static_cast<double>(fw.weight);
    ref_sq -= truth * truth;
  }

  // Guard the degenerate all-top-K-covers-everything case (ref distance 0).
  est_sq = std::max(est_sq, 0.0);
  ref_sq = std::max(ref_sq, 0.0);
  if (ref_sq == 0.0) return est_sq == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(est_sq / ref_sq);
}

}  // namespace wmsketch

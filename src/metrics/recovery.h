#pragma once

#include <cstddef>
#include <vector>

#include "util/top_k_heap.h"

namespace wmsketch {

/// The relative ℓ2 recovery-error metric of Sec. 7.2:
///
///   RelErr(wᴷ, w*) = ‖wᴷ − w*‖₂ / ‖wᴷ* − w*‖₂,
///
/// where wᴷ is the K-sparse vector of a method's estimated top-K weights,
/// w* the uncompressed model's weights, and wᴷ* the true top-K of w*.
/// Bounded below by 1; equals 1 iff the method returned exactly the true
/// top-K with exact values.
///
/// `estimated_topk` may contain fewer than K entries (the missing mass is
/// counted as zeros, as truncation to a K-sparse vector implies). Entries
/// must have distinct features. Requires 1 <= k <= w_star dimension.
double RelErrTopK(const std::vector<FeatureWeight>& estimated_topk,
                  const std::vector<float>& w_star, size_t k);

/// The true top-k of a dense weight vector, sorted by descending magnitude
/// (ties by ascending feature id) — the wᴷ* reference set.
std::vector<FeatureWeight> ExactTopK(const std::vector<float>& w_star, size_t k);

}  // namespace wmsketch

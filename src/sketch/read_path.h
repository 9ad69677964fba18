#pragma once

// Shared batched *read* kernels: the prediction/point-query mirror of the
// batched update path. Both the live classifiers (Learner::PredictBatch /
// EstimateBatch on WM, AWM, and feature hashing) and the frozen serving
// models (src/engine/serving.h) answer batched queries through these, so the
// two paths cannot drift apart.
//
// A read consumes its hashes once: unlike an update, a predict or a point
// query has no scatter or heap stage to share them with. So every read here
// is the fused loop — hash, read, accumulate or take the median per (feature,
// row) pair with nothing materialized — which hashes each pair exactly once
// by construction. A batched call is that loop over the batch, and nothing
// here allocates.

#include <cstdint>
#include <optional>
#include <span>

#include "core/budget.h"
#include "hash/tabulation.h"
#include "stream/sparse_vector.h"
#include "util/math.h"
#include "util/paged_table.h"

namespace wmsketch::readpath {

/// The fused one-pass margin Σᵢ xᵢ·Σⱼ σⱼ(i)·table[hⱼ(i)] · factor — hash,
/// read, and accumulate per feature with nothing materialized.
/// Bit-identical to simd::PlanMargin over the same pairs.
inline double FusedMargin(const float* table, std::span<const SignedBucketHash> rows,
                          const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    double per_feature = 0.0;
    for (size_t j = 0; j < rows.size(); ++j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      per_feature += static_cast<double>(sign) *
                     static_cast<double>(table[j * rows[j].width() + bucket]);
    }
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return factor * acc;
}

/// The fused single-key point estimate float(factor · median_j(σ_j(key)·
/// table[h_j(key)])): hash, read, and take the median with nothing
/// materialized — the one definition of a sketch point query that the live
/// classifiers, their frozen read models and the batched calls below all
/// share, so the "frozen answers == live answers" bit-identity cannot
/// drift copy by copy.
inline float FusedEstimate(const float* table, std::span<const SignedBucketHash> rows,
                           uint32_t key, double factor) {
  float est[kMaxSketchDepth];  // rows.size() never exceeds it (Validate())
  for (size_t j = 0; j < rows.size(); ++j) {
    uint32_t bucket;
    float sign;
    rows[j].BucketAndSign(key, &bucket, &sign);
    est[j] = sign * table[j * rows[j].width() + bucket];
  }
  return static_cast<float>(factor *
                            static_cast<double>(MedianInPlace(est, rows.size())));
}

/// Batched margins: out[e] = FusedMargin(batch[e]) — the per-example
/// PredictMargin loop.
inline void PlanMarginBatch(const float* table, std::span<const SignedBucketHash> rows,
                            std::span<const Example> batch, double factor, double* out) {
  for (size_t e = 0; e < batch.size(); ++e) {
    out[e] = FusedMargin(table, rows, batch[e].x, factor);
  }
}

/// Batched sketch point estimates: out[i] = FusedEstimate(keys[i]) — the
/// per-key RawMedian/SketchQuery loop (sorting-network medians through depth
/// 7, simd::MedianLarge beyond).
inline void GatherMedianBatch(const float* table, std::span<const SignedBucketHash> rows,
                              std::span<const uint32_t> keys, double factor, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = FusedEstimate(table, rows, keys[i], factor);
  }
}

// ------------------------------------------------------------ paged reads
//
// The frozen read models published by the serving layer hold refcounted
// table *pages* (util/paged_table.h) instead of a flat copy, so their read
// paths resolve cells through a PagedView: table[off] becomes
// pages[off >> shift][off & mask]. Everything else — hash evaluation order,
// per-feature double accumulation, median networks — is the flat kernels'
// code verbatim, so a paged frozen model answers bit-identically to the live
// flat model it was captured from.

/// FusedMargin over a paged snapshot — bit-identical to FusedMargin on a
/// flat copy of the same cells.
inline double FusedMarginPaged(const PagedView<float>& table,
                               std::span<const SignedBucketHash> rows,
                               const SparseVector& x, double factor) {
  double acc = 0.0;
  for (size_t i = 0; i < x.nnz(); ++i) {
    const uint32_t feature = x.index(i);
    double per_feature = 0.0;
    for (size_t j = 0; j < rows.size(); ++j) {
      uint32_t bucket;
      float sign;
      rows[j].BucketAndSign(feature, &bucket, &sign);
      per_feature += static_cast<double>(sign) *
                     static_cast<double>(table.At(j * rows[j].width() + bucket));
    }
    acc += per_feature * static_cast<double>(x.value(i));
  }
  return factor * acc;
}

/// FusedEstimate over a paged snapshot — bit-identical to the flat kernel.
inline float FusedEstimatePaged(const PagedView<float>& table,
                                std::span<const SignedBucketHash> rows, uint32_t key,
                                double factor) {
  float est[kMaxSketchDepth];
  for (size_t j = 0; j < rows.size(); ++j) {
    uint32_t bucket;
    float sign;
    rows[j].BucketAndSign(key, &bucket, &sign);
    est[j] = sign * table.At(j * rows[j].width() + bucket);
  }
  return static_cast<float>(factor *
                            static_cast<double>(MedianInPlace(est, rows.size())));
}

/// Batched paged margins — the paged mirror of PlanMarginBatch.
inline void MarginBatchPaged(const PagedView<float>& table,
                             std::span<const SignedBucketHash> rows,
                             std::span<const Example> batch, double factor,
                             double* out) {
  for (size_t e = 0; e < batch.size(); ++e) {
    out[e] = FusedMarginPaged(table, rows, batch[e].x, factor);
  }
}

/// Batched paged point estimates — the paged mirror of GatherMedianBatch.
inline void EstimateBatchPaged(const PagedView<float>& table,
                               std::span<const SignedBucketHash> rows,
                               std::span<const uint32_t> keys, double factor,
                               float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = FusedEstimatePaged(table, rows, keys[i], factor);
  }
}

/// EstimateBatchPaged with an exact active set in front of the tail sketch
/// (the frozen AWM): keys resolved by `lookup` (returning the exact
/// true-scale weight, or no value) answer from it, the rest from the paged
/// tail sketch.
template <typename ActiveLookup>
inline void ActiveEstimateBatchPaged(const PagedView<float>& table,
                                     std::span<const SignedBucketHash> rows,
                                     std::span<const uint32_t> keys, double factor,
                                     ActiveLookup&& lookup, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::optional<float> exact = lookup(keys[i]);
    out[i] = exact.has_value() ? *exact : FusedEstimatePaged(table, rows, keys[i], factor);
  }
}

/// GatherMedianBatch for models with an exact active set in front of the
/// sketch (the live AWM): keys resolved by `lookup` answer from it, the rest
/// from the tail sketch.
template <typename ActiveLookup>
inline void ActiveGatherMedianBatch(const float* table,
                                    std::span<const SignedBucketHash> rows,
                                    std::span<const uint32_t> keys, double factor,
                                    ActiveLookup&& lookup, float* out) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::optional<float> exact = lookup(keys[i]);
    out[i] = exact.has_value() ? *exact : FusedEstimate(table, rows, keys[i], factor);
  }
}

}  // namespace wmsketch::readpath

// Tests for the single-pass hot path: the per-example hash plan, the one
// vector kernel (the depth >= 8 median) against its scalar fallback, the
// sorting-network median, and the batched (plan-arena) ingest path's bitwise
// equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "hash/tabulation.h"
#include "sketch/count_min.h"
#include "sketch/hash_plan.h"
#include "util/math.h"
#include "util/random.h"
#include "util/simd.h"

namespace wmsketch {
namespace {

std::vector<SignedBucketHash> MakeRows(uint32_t depth, uint32_t width, uint64_t seed) {
  SplitMix64 sm(seed);
  std::vector<SignedBucketHash> rows;
  rows.reserve(depth);
  for (uint32_t j = 0; j < depth; ++j) rows.emplace_back(sm.Next(), width);
  return rows;
}

SparseVector RandomVector(std::mt19937& rng, size_t nnz, uint32_t dimension) {
  std::vector<std::pair<uint32_t, float>> pairs;
  std::uniform_int_distribution<uint32_t> id(0, dimension - 1);
  std::uniform_real_distribution<float> val(-2.0f, 2.0f);
  for (size_t i = 0; i < nnz; ++i) {
    float v = val(rng);
    if (v == 0.0f) v = 1.0f;
    pairs.emplace_back(id(rng), v);
  }
  return std::move(SparseVector::FromUnsorted(std::move(pairs))).value();
}

std::vector<Example> MakeStream(int n, uint64_t seed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed);
  std::vector<Example> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

std::string Serialized(const Learner& learner) {
  std::ostringstream out;
  EXPECT_TRUE(SaveLearner(learner, out).ok());
  return out.str();
}

// Restores the ambient kernel selection after a test that toggles it —
// including when the test bails out early on a failed ASSERT, so one
// regression cannot leak a forced kernel path into every later test in the
// binary.
class SimdStateGuard {
 public:
  SimdStateGuard() : was_(simd::Enabled()) {}
  ~SimdStateGuard() { simd::SetEnabled(was_); }

 private:
  bool was_;
};

// ------------------------------------------------------------- hash plan

TEST(HashPlanTest, PlanMatchesDirectBucketAndSign) {
  const uint32_t depth = 5, width = 256;
  const std::vector<SignedBucketHash> rows = MakeRows(depth, width, 123);
  std::mt19937 rng(7);
  HashPlan plan;
  for (int trial = 0; trial < 50; ++trial) {
    const SparseVector x = RandomVector(rng, 1 + trial % 30, 1 << 16);
    plan.Build(rows, x);
    ASSERT_EQ(plan.nnz(), x.nnz());
    ASSERT_EQ(plan.depth(), depth);
    for (size_t i = 0; i < x.nnz(); ++i) {
      ASSERT_TRUE(plan.has(i));
      for (uint32_t j = 0; j < depth; ++j) {
        uint32_t bucket;
        float sign;
        rows[j].BucketAndSign(x.index(i), &bucket, &sign);
        EXPECT_EQ(plan.offsets(i)[j], j * width + bucket);
        EXPECT_EQ(plan.signs(i)[j], sign);
      }
    }
  }
}

TEST(HashPlanTest, ArenaViewsMatchPerExamplePlans) {
  const std::vector<SignedBucketHash> rows = MakeRows(3, 128, 9);
  const std::vector<Example> batch = MakeStream(64, 11);
  HashPlanArena arena;
  arena.Build(rows, batch);
  ASSERT_EQ(arena.size(), batch.size());
  HashPlan single;
  for (size_t e = 0; e < batch.size(); ++e) {
    single.Build(rows, batch[e].x);
    const simd::PlanView v = arena.View(e);
    ASSERT_EQ(v.nnz, single.nnz());
    ASSERT_EQ(v.depth, single.depth());
    for (size_t k = 0; k < v.entries(); ++k) {
      EXPECT_EQ(v.offsets[k], single.View().offsets[k]);
      EXPECT_EQ(v.signs[k], single.View().signs[k]);
    }
  }
}

TEST(HashPlanTest, LazyFillMatchesEagerBuild) {
  const uint32_t depth = 4, width = 64;
  const std::vector<SignedBucketHash> rows = MakeRows(depth, width, 42);
  std::mt19937 rng(3);
  const SparseVector x = RandomVector(rng, 20, 4096);
  HashPlan eager, lazy;
  eager.Build(rows, x);
  lazy.InitLazy(depth, x.nnz());
  for (size_t i = 0; i < x.nnz(); ++i) EXPECT_FALSE(lazy.has(i));
  // Fill out of order; slots are independent.
  for (size_t i = x.nnz(); i-- > 0;) lazy.FillSlot(rows, i, x.index(i));
  for (size_t i = 0; i < x.nnz(); ++i) {
    ASSERT_TRUE(lazy.has(i));
    for (uint32_t j = 0; j < depth; ++j) {
      EXPECT_EQ(lazy.offsets(i)[j], eager.offsets(i)[j]);
      EXPECT_EQ(lazy.signs(i)[j], eager.signs(i)[j]);
    }
  }
}

// -------------------------------------------- batched-path equivalence

// The plan-arena UpdateBatch must leave a model byte-identical to the
// per-example Update loop — margins AND full serialized state, for every
// plan-driven method. (learner_api_test asserts the margin half across all
// methods; this pins the state half to catch a scatter that diverges.)
TEST(HashPlanBatchTest, BatchStateBitIdenticalToPerExampleLoop) {
  const std::vector<Example> stream = MakeStream(2000, 21);
  for (const Method m :
       {Method::kWmSketch, Method::kAwmSketch, Method::kFeatureHashing}) {
    LearnerBuilder b;
    b.SetMethod(m).SetSeed(5);
    if (m == Method::kFeatureHashing) {
      b.SetWidth(512);
    } else {
      b.SetWidth(128).SetDepth(m == Method::kAwmSketch ? 1 : 5).SetHeapCapacity(32);
    }
    Learner one = std::move(b.Build()).value();
    Learner batched = std::move(b.Build()).value();

    std::vector<double> loop_margins, batch_margins;
    for (const Example& ex : stream) loop_margins.push_back(one.Update(ex));
    batched.UpdateBatch(stream, &batch_margins);

    ASSERT_EQ(loop_margins.size(), batch_margins.size());
    for (size_t i = 0; i < loop_margins.size(); ++i) {
      ASSERT_EQ(loop_margins[i], batch_margins[i]) << MethodName(m) << " @" << i;
    }
    EXPECT_EQ(Serialized(one), Serialized(batched)) << MethodName(m);
  }
}

// ---------------------------------------------------------- SIMD kernels

// Machine-checked coverage registry: tools/lint/wms_lint.py (rule
// simd-paired) extracts every target("avx2..."), target("avx512...") and
// target("sse4.2") kernel from src/util/simd.cc and src/util/crc32c.cc and
// fails CI unless its name appears between these markers (and flags any
// entry no source defines) — so no vector kernel can ship without its
// scalar twin being asserted (bit-)equal in a test. Keep each entry's
// comment pointing at the test that exercises it.
// wms-lint: simd-kernel-table begin
constexpr const char* const kAvx2KernelBitIdentityCoverage[] = {
    "MedianLargeAvx2",  // MedianLargeBitIdenticalAcrossKernelPaths, and end to
                        // end in TrainingIsBitIdenticalAcrossKernelPaths
    "Crc32cSse42",      // Crc32cHardwareMatchesScalar (util_test.cc, exact equality)
};
// wms-lint: simd-kernel-table end

TEST(SimdKernelTest, KernelCoverageTableEntriesAreWellFormed) {
  for (const char* name : kAvx2KernelBitIdentityCoverage) {
    ASSERT_NE(name, nullptr);
    const std::string_view sv(name);
    EXPECT_GT(sv.size(), 0u);
    EXPECT_TRUE(sv.ends_with("Avx2") || sv.ends_with("Avx512") || sv.ends_with("Sse42"))
        << name;
  }
}

TEST(SimdKernelTest, ReportsCompileAndCpuState) {
#ifndef WMS_SIMD
  EXPECT_FALSE(simd::Available());  // compiled out: never available
#endif
  if (!simd::Available()) {
    EXPECT_FALSE(simd::Enabled());
    EXPECT_STREQ(simd::ActiveKernel(), "scalar");
  }
}

// The kernel routes are compile-time constants: the gather, scatter,
// read-plan and fused-median routes report "never", the median its fixed
// depth, and CalibrateGather() changes none of it. perfbench's
// `kernel_routes` fact prints these, so it must read the same in every
// process.
TEST(SimdKernelTest, RoutesAreFixedConstants) {
  const auto expect_fixed = [](const char* when) {
    SCOPED_TRACE(when);
    const simd::KernelThresholds t = simd::Thresholds();
    EXPECT_EQ(t.gather_min_entries, UINT32_MAX);
    EXPECT_EQ(t.paged_gather_min_entries, UINT32_MAX);
    EXPECT_EQ(t.fused_median_min_keys, UINT32_MAX);
    EXPECT_EQ(t.scatter_min_nnz, UINT32_MAX);
    EXPECT_EQ(t.median_min_depth, 8u);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{64}, size_t{1024}, SIZE_MAX}) {
      EXPECT_FALSE(simd::ReadPlanDispatched(n)) << n;
      EXPECT_FALSE(simd::PagedReadPlanDispatched(n)) << n;
      EXPECT_FALSE(simd::FusedMedianDispatched(n)) << n;
    }
  };
  expect_fixed("before CalibrateGather");
  simd::CalibrateGather();
  expect_fixed("after CalibrateGather");
}

// End-to-end: a model trained with the AVX2 median produces margins and
// state bit-identical to the scalar fallback. Both shapes run every median
// through simd::MedianLarge (depth >= 8): WM at the budget planner's 8 KB
// shape (width 128, depth 14, heap offers) and AWM at depth 9 (tail
// estimates). Below depth 8 the two paths run the same code.
TEST(SimdKernelTest, TrainingIsBitIdenticalAcrossKernelPaths) {
  if (!simd::Available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  SimdStateGuard guard;
  const std::vector<Example> stream = MakeStream(1500, 33);
  for (const Method m : {Method::kWmSketch, Method::kAwmSketch}) {
    LearnerBuilder b;
    b.SetMethod(m).SetSeed(17);
    if (m == Method::kWmSketch) {
      b.SetWidth(128).SetDepth(14).SetHeapCapacity(128);
    } else {
      b.SetWidth(256).SetDepth(9).SetHeapCapacity(64);
    }
    Learner scalar_model = std::move(b.Build()).value();
    Learner simd_model = std::move(b.Build()).value();

    simd::SetEnabled(false);
    std::vector<double> scalar_margins;
    scalar_model.UpdateBatch(stream, &scalar_margins);
    simd::SetEnabled(true);
    std::vector<double> simd_margins;
    simd_model.UpdateBatch(stream, &simd_margins);

    ASSERT_EQ(scalar_margins.size(), simd_margins.size());
    for (size_t i = 0; i < scalar_margins.size(); ++i) {
      ASSERT_EQ(scalar_margins[i], simd_margins[i]) << MethodName(m) << " @" << i;
    }
    EXPECT_EQ(Serialized(scalar_model), Serialized(simd_model)) << MethodName(m);
  }
}

// ------------------------------------------------------- median networks

TEST(MedianNetworkTest, MatchesNthElementExhaustively) {
  // 0-1 principle over every binary vector plus every permutation of
  // distinct values, for each networked size (and the fallback at 8, 9).
  for (size_t n = 1; n <= 9; ++n) {
    const size_t mid = (n - 1) / 2;
    for (unsigned m = 0; m < (1u << n); ++m) {
      float v[9], r[9];
      for (size_t i = 0; i < n; ++i) v[i] = r[i] = ((m >> i) & 1) ? 1.0f : 0.0f;
      std::nth_element(r, r + mid, r + n);
      EXPECT_EQ(MedianInPlace(v, n), r[mid]) << "binary n=" << n << " m=" << m;
    }
    if (n > 7) continue;  // permutations get large; networks end at 7
    float p[7];
    std::iota(p, p + n, 0.0f);
    do {
      float v[7];
      std::copy(p, p + n, v);
      EXPECT_EQ(MedianInPlace(v, n), static_cast<float>(mid)) << "perm n=" << n;
    } while (std::next_permutation(p, p + n));
  }
}

TEST(MedianNetworkTest, MatchesNthElementOnRandomFloats) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> val(-10.0f, 10.0f);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = 1 + static_cast<size_t>(trial) % 9;
    float v[9], r[9];
    for (size_t i = 0; i < n; ++i) v[i] = r[i] = val(rng);
    const size_t mid = (n - 1) / 2;
    std::nth_element(r, r + mid, r + n);
    ASSERT_EQ(MedianInPlace(v, n), r[mid]);
  }
}

// The depth >= 8 median (rank-counting selection on AVX2, nth_element on
// scalar) must return the bit-identical order statistic on both paths, for
// every size up to kMaxSketchDepth, including heavy-duplicate inputs where
// rank arithmetic is easiest to get wrong.
TEST(MedianNetworkTest, MedianLargeBitIdenticalAcrossKernelPaths) {
  if (!simd::Available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  SimdStateGuard guard;
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> val(-10.0f, 10.0f);
  std::uniform_int_distribution<int> small(-2, 2);  // forces duplicates
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t n = 8 + static_cast<size_t>(trial) % 57;  // 8..64
    std::vector<float> v(n), a(n), b(n);
    const bool dupes = (trial % 2) == 0;
    for (size_t i = 0; i < n; ++i) {
      v[i] = dupes ? static_cast<float>(small(rng)) : val(rng);
    }
    a = v;
    b = v;
    const size_t mid = (n - 1) / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
    simd::SetEnabled(false);
    const float scalar = simd::MedianLarge(a.data(), n);
    simd::SetEnabled(true);
    const float avx2 = simd::MedianLarge(b.data(), n);
    ASSERT_EQ(scalar, v[mid]) << "n=" << n;
    ASSERT_EQ(avx2, v[mid]) << "n=" << n;
  }
}

// ------------------------------------------- single-hash combined ops

TEST(SingleHashOpsTest, CountMinUpdateAndQueryMatchesSeparateCalls) {
  for (const bool conservative : {false, true}) {
    CountMinSketch a(128, 4, 55, conservative), b(128, 4, 55, conservative);
    SplitMix64 keys(8);
    for (int i = 0; i < 3000; ++i) {
      const uint32_t key = static_cast<uint32_t>(keys.Next() % 500);
      a.Update(key, 1.0);
      const double separate = a.Query(key);
      const double combined = b.UpdateAndQuery(key, 1.0);
      ASSERT_EQ(separate, combined) << "conservative=" << conservative << " @" << i;
    }
    EXPECT_EQ(a.TotalMass(), b.TotalMass());
  }
}

// ----------------------------------------------- hash-count invariant

// Exactly one tabulation-hash evaluation per (feature, row) pair per WM
// update (the seed code paid three), and none at all for AWM active-set
// members. Requires the -DWMS_HASH_STATS=ON diagnostics build.
TEST(HashCountTest, UpdateHashesEachFeatureRowPairOnce) {
#ifndef WMS_HASH_STATS
  GTEST_SKIP() << "rebuild with -DWMS_HASH_STATS=ON to count hash evaluations";
#else
  const uint32_t depth = 5;
  Learner wm = std::move(LearnerBuilder()
                             .SetMethod(Method::kWmSketch)
                             .SetWidth(128)
                             .SetDepth(depth)
                             .SetHeapCapacity(16)
                             .Build())
                   .value();
  const std::vector<Example> stream = MakeStream(200, 71);
  for (const Example& ex : stream) {
    g_hash_evaluations = 0;
    wm.Update(ex);
    EXPECT_EQ(g_hash_evaluations, ex.x.nnz() * depth);
  }
  // The AWM hashes at most nnz×depth (tail features once; active members
  // never; evictee fold-backs add 2·depth each, bounded by one per nonzero).
  Learner awm = std::move(LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(128)
                              .SetDepth(1)
                              .SetHeapCapacity(64)
                              .Build())
                    .value();
  for (const Example& ex : stream) {
    g_hash_evaluations = 0;
    awm.Update(ex);
    EXPECT_LE(g_hash_evaluations, 3 * ex.x.nnz());
  }
#endif
}

}  // namespace
}  // namespace wmsketch

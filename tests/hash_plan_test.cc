// Tests for the single-pass hot path: the per-example hash plan, the SIMD
// table kernels and their scalar fallbacks, the sorting-network median, and
// the batched (plan-arena) ingest path's bitwise equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
#include "sketch/count_sketch.h"
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
// simd-paired) extracts every __attribute__((target("avx2..."))) and
// __attribute__((target("avx512...")))  kernel from src/util/simd.cc and
// fails CI unless its name appears between these markers — so no vector
// kernel can ship without its scalar twin being asserted (bit-)equal in
// this binary. Keep each entry's comment pointing at the test that
// exercises it.
// wms-lint: simd-kernel-table begin
constexpr const char* const kAvx2KernelBitIdentityCoverage[] = {
    "StepDeltasAvx2",        // via PlanScatter in Avx2MatchesScalarOnAllKernels
    "MergeScaledTableAvx2",  // Avx2MatchesScalarOnAllKernels (exact equality)
    "ScaleTableAvx2",        // Avx2MatchesScalarOnAllKernels (exact equality)
    "L2NormSquaredAvx2",     // Avx2MatchesScalarOnAllKernels (1e-5 rel: 4-lane reduction reorders)
    "MedianLargeAvx2",       // MedianLargeBitIdenticalAcrossKernelPaths
    "PlanScatterAvx512",     // PlanScatterBitIdenticalOnDuplicateOffsets (exact)
    "Crc32cSse42",           // Crc32cHardwareMatchesScalar (util_test.cc, exact equality)
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

// The kernel routes are compile-time constants: the gather, read-plan and
// fused-median routes report "never", the size thresholds their fixed
// values, and CalibrateGather() changes none of it. perfbench's
// `kernel_routes` fact prints these, so it must read the same in every
// process.
TEST(SimdKernelTest, RoutesAreFixedConstants) {
  const auto expect_fixed = [](const char* when) {
    SCOPED_TRACE(when);
    const simd::KernelThresholds t = simd::Thresholds();
    EXPECT_EQ(t.gather_min_entries, UINT32_MAX);
    EXPECT_EQ(t.paged_gather_min_entries, UINT32_MAX);
    EXPECT_EQ(t.fused_median_min_keys, UINT32_MAX);
    EXPECT_EQ(t.scatter_min_nnz, 8u);
    EXPECT_EQ(t.sweep_min_elems, 32u);
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

// The scatter, merge, and scale kernels are documented bit-identical between
// the scalar and AVX2 paths (signs are ±1 and all element-wise rounding
// matches), so they are held to exact equality. L2 reorders its reduction
// and gets a 1e-5 relative tolerance.
TEST(SimdKernelTest, Avx2MatchesScalarOnAllKernels) {
  if (!simd::Available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  SimdStateGuard guard;

  const uint32_t depth = 5, width = 512;
  const std::vector<SignedBucketHash> rows = MakeRows(depth, width, 31);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> cell(-3.0f, 3.0f);
  std::vector<float> table(static_cast<size_t>(width) * depth);
  for (float& c : table) c = cell(rng);

  const SparseVector x = RandomVector(rng, 37, 1 << 14);
  HashPlan plan;
  plan.Build(rows, x);
  const simd::PlanView view = plan.View();

  // PlanScatter.
  std::vector<float> table_a = table, table_b = table;
  std::vector<float> scatter_scratch(x.nnz());
  simd::SetEnabled(false);
  simd::PlanScatter(table_a.data(), view, x.values().data(), 0.0375,
                    scatter_scratch.data());
  simd::SetEnabled(true);
  simd::PlanScatter(table_b.data(), view, x.values().data(), 0.0375,
                    scatter_scratch.data());
  EXPECT_EQ(table_a, table_b);

  // MergeScaledTable / ScaleTable.
  std::vector<float> src(table.size());
  for (float& c : src) c = cell(rng);
  std::vector<float> dst_a = table, dst_b = table;
  simd::SetEnabled(false);
  simd::MergeScaledTable(dst_a.data(), src.data(), src.size(), -0.731);
  simd::ScaleTable(dst_a.data(), dst_a.size(), 0.25f);
  simd::SetEnabled(true);
  simd::MergeScaledTable(dst_b.data(), src.data(), src.size(), -0.731);
  simd::ScaleTable(dst_b.data(), dst_b.size(), 0.25f);
  EXPECT_EQ(dst_a, dst_b);

  // L2NormSquared: reduction order differs; 1e-5 relative tolerance.
  simd::SetEnabled(false);
  const double l2_scalar = simd::L2NormSquared(table.data(), table.size());
  simd::SetEnabled(true);
  const double l2_avx2 = simd::L2NormSquared(table.data(), table.size());
  EXPECT_NEAR(l2_avx2, l2_scalar, 1e-5 * std::fabs(l2_scalar));
}

// The conflict-serialized AVX-512 scatter on a deliberately tiny offset
// range: many duplicate offsets per 16-lane block, so the serialization (on
// parts that have AVX-512F+CD) must reproduce the scalar store order
// exactly, where an unserialized scatter would reorder rounding.
TEST(SimdKernelTest, PlanScatterBitIdenticalOnDuplicateOffsets) {
  if (!simd::Available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  SimdStateGuard guard;
  std::mt19937 rng(101);
  std::uniform_real_distribution<float> cell(-3.0f, 3.0f);
  const uint32_t d = 3;
  const size_t nnz = 64;
  std::vector<uint32_t> off(nnz * d);
  std::vector<float> sg(nnz * d), vals(nnz), scratch(nnz);
  for (size_t e = 0; e < nnz * d; ++e) {
    off[e] = rng() & 31;
    sg[e] = (rng() & 1) ? 1.0f : -1.0f;
  }
  for (float& x : vals) x = cell(rng);
  std::vector<float> t_scalar(32);
  for (float& c : t_scalar) c = cell(rng);
  std::vector<float> t_simd = t_scalar;
  const simd::PlanView plan{off.data(), sg.data(), nnz, d};
  simd::SetEnabled(false);
  simd::PlanScatter(t_scalar.data(), plan, vals.data(), 0.0317, scratch.data());
  simd::SetEnabled(true);
  simd::PlanScatter(t_simd.data(), plan, vals.data(), 0.0317, scratch.data());
  EXPECT_EQ(t_scalar, t_simd);
}

// End-to-end: a WM/AWM/hash model trained with the AVX2 kernels produces
// margins and state bit-identical to the scalar fallback — which the margin
// dump against the pre-plan seed showed equals WMS_SIMD=OFF behavior.
TEST(SimdKernelTest, TrainingIsBitIdenticalAcrossKernelPaths) {
  if (!simd::Available()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  SimdStateGuard guard;
  const std::vector<Example> stream = MakeStream(1500, 33);
  for (const Method m :
       {Method::kWmSketch, Method::kAwmSketch, Method::kFeatureHashing}) {
    LearnerBuilder b;
    b.SetMethod(m).SetSeed(17);
    if (m == Method::kFeatureHashing) {
      b.SetWidth(1024);
    } else {
      b.SetWidth(256).SetDepth(m == Method::kAwmSketch ? 1 : 3).SetHeapCapacity(64);
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

TEST(SingleHashOpsTest, CountSketchUpdateAndQueryMatchesSeparateCalls) {
  CountSketch a(256, 5, 77), b(256, 5, 77);
  SplitMix64 keys(3);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t key = static_cast<uint32_t>(keys.Next() % 1000);
    const float delta = static_cast<float>((i % 7) - 3) * 0.5f;
    a.Update(key, delta);
    const float separate = a.Query(key);
    const float combined = b.UpdateAndQuery(key, delta);
    ASSERT_EQ(separate, combined) << i;
  }
}

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

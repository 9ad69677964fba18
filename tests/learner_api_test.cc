// Tests for the public Learner facade: builder validation (every invalid
// shape yields a distinct typed error), batch-update equivalence with the
// example-at-a-time path, and immutability of query snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

Learner Build(LearnerBuilder builder) {
  Result<Learner> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

LearnerBuilder StandardBuilder(Method method, uint64_t seed = 42) {
  return LearnerBuilder()
      .SetMethod(method)
      .SetLambda(1e-4)
      .SetLearningRate(LearningRate::Constant(0.2))
      .SetSeed(seed);
}

std::vector<Example> MakeStream(int n, uint64_t seed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed);
  std::vector<Example> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

// ---------------------------------------------------------------- builder

TEST(LearnerBuilderTest, BudgetPlannedConstructionWorksForEveryMethod) {
  for (const Method m : AllMethods()) {
    Result<Learner> built = StandardBuilder(m).SetBudgetBytes(KiB(4)).Build();
    ASSERT_TRUE(built.ok()) << MethodName(m) << ": " << built.status().ToString();
    EXPECT_EQ(built.value().method(), m);
    EXPECT_EQ(built.value().Name(), MethodName(m));
    EXPECT_LE(built.value().MemoryCostBytes(), KiB(4)) << MethodName(m);
    EXPECT_EQ(built.value().steps(), 0u);
  }
}

TEST(LearnerBuilderTest, ExplicitShapeConstructionWorks) {
  Learner awm = Build(StandardBuilder(Method::kAwmSketch)
                          .SetWidth(256)
                          .SetDepth(1)
                          .SetHeapCapacity(64));
  EXPECT_EQ(awm.config().width, 256u);
  EXPECT_EQ(awm.config().depth, 1u);
  EXPECT_EQ(awm.config().heap_capacity, 64u);

  Learner trun = Build(StandardBuilder(Method::kSimpleTruncation).SetHeapCapacity(32));
  EXPECT_EQ(trun.config().heap_capacity, 32u);

  Learner hash = Build(StandardBuilder(Method::kFeatureHashing).SetWidth(512));
  EXPECT_EQ(hash.config().width, 512u);
}

TEST(LearnerBuilderTest, EachInvalidShapeYieldsItsDistinctErrorCode) {
  struct Case {
    const char* name;
    Result<Learner> result;
    ConfigError expected;
  };
  Case cases[] = {
      {"width not a power of two",
       StandardBuilder(Method::kWmSketch).SetWidth(100).SetDepth(2).SetHeapCapacity(8).Build(),
       ConfigError::kWidthNotPowerOfTwo},
      {"zero depth",
       StandardBuilder(Method::kWmSketch).SetWidth(128).SetDepth(0).SetHeapCapacity(8).Build(),
       ConfigError::kDepthZero},
      {"depth above the cap",
       StandardBuilder(Method::kWmSketch).SetWidth(128).SetDepth(65).SetHeapCapacity(8).Build(),
       ConfigError::kDepthTooLarge},
      {"empty active set for AWM",
       StandardBuilder(Method::kAwmSketch).SetWidth(128).SetDepth(1).SetHeapCapacity(0).Build(),
       ConfigError::kActiveSetEmpty},
      {"budget below 1 KiB",
       StandardBuilder(Method::kAwmSketch).SetBudgetBytes(512).Build(),
       ConfigError::kBudgetTooSmall},
      {"no size at all", StandardBuilder(Method::kAwmSketch).Build(),
       ConfigError::kShapeUnderspecified},
      {"budget combined with explicit shape",
       StandardBuilder(Method::kAwmSketch).SetBudgetBytes(KiB(2)).SetWidth(128).Build(),
       ConfigError::kShapeConflict},
  };
  std::set<uint16_t> seen;
  for (const Case& c : cases) {
    ASSERT_FALSE(c.result.ok()) << c.name;
    EXPECT_EQ(c.result.status().detail(), ToDetail(c.expected)) << c.name;
    seen.insert(c.result.status().detail());
  }
  // The codes really are distinct, so callers can dispatch on detail().
  EXPECT_EQ(seen.size(), std::size(cases));
}

TEST(LearnerBuilderTest, ZeroWidthReadsAsNotPowerOfTwo) {
  Result<Learner> r =
      StandardBuilder(Method::kFeatureHashing).SetWidth(0).Build();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().detail(), ToDetail(ConfigError::kWidthNotPowerOfTwo));
}

TEST(LearnerBuilderTest, ShapeKnobsForeignToTheMethodConflict) {
  // Truncation has no sketch table.
  Result<Learner> r1 =
      StandardBuilder(Method::kSimpleTruncation).SetHeapCapacity(16).SetWidth(64).Build();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().detail(), ToDetail(ConfigError::kShapeConflict));
  // Feature hashing has no heap.
  Result<Learner> r2 =
      StandardBuilder(Method::kFeatureHashing).SetWidth(64).SetHeapCapacity(16).Build();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().detail(), ToDetail(ConfigError::kShapeConflict));
}

TEST(LearnerBuilderTest, SetConfigConflictsAreDetected) {
  BudgetConfig cfg = DefaultConfig(Method::kWmSketch, KiB(2)).value();
  Result<Learner> r1 = LearnerBuilder().SetConfig(cfg).SetBudgetBytes(KiB(2)).Build();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().detail(), ToDetail(ConfigError::kShapeConflict));
  Result<Learner> r2 =
      LearnerBuilder().SetMethod(Method::kAwmSketch).SetConfig(cfg).Build();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().detail(), ToDetail(ConfigError::kShapeConflict));
  // Consistent method + config is fine.
  EXPECT_TRUE(LearnerBuilder().SetMethod(Method::kWmSketch).SetConfig(cfg).Build().ok());
}

TEST(LearnerBuilderTest, BuilderIsReusable) {
  const LearnerBuilder base =
      StandardBuilder(Method::kAwmSketch).SetBudgetBytes(KiB(2));
  Learner a = Build(base);
  Learner b = Build(base);
  EXPECT_EQ(a.config().width, b.config().width);
  a.Update(Example{SparseVector::OneHot(3), 1});
  EXPECT_EQ(a.steps(), 1u);
  EXPECT_EQ(b.steps(), 0u);  // independent instances
}

// ------------------------------------------------------------ batch path

// UpdateBatch must be bitwise-equivalent to a loop of Update on a fixed
// seed; checked for WM and AWM per the API contract, plus every other
// method for good measure.
TEST(LearnerBatchTest, UpdateBatchBitwiseEquivalentToLoop) {
  const std::vector<Example> stream = MakeStream(3000, 11);
  const std::vector<Example> held_out = MakeStream(200, 12);
  for (const Method m : AllMethods()) {
    Learner one_by_one = Build(StandardBuilder(m, 7).SetBudgetBytes(KiB(2)));
    Learner batched = Build(StandardBuilder(m, 7).SetBudgetBytes(KiB(2)));
    for (const Example& ex : stream) one_by_one.Update(ex);
    batched.UpdateBatch(stream);

    EXPECT_EQ(one_by_one.steps(), batched.steps()) << MethodName(m);
    for (const Example& ex : held_out) {
      EXPECT_EQ(one_by_one.PredictMargin(ex.x), batched.PredictMargin(ex.x))
          << MethodName(m);
    }
    for (uint32_t f = 0; f < 2048; f += 7) {
      EXPECT_EQ(one_by_one.WeightEstimate(f), batched.WeightEstimate(f))
          << MethodName(m) << " feature " << f;
    }
    const auto top_a = one_by_one.Snapshot(32).top_k();
    const auto top_b = batched.Snapshot(32).top_k();
    ASSERT_EQ(top_a.size(), top_b.size()) << MethodName(m);
    for (size_t i = 0; i < top_a.size(); ++i) EXPECT_EQ(top_a[i], top_b[i]) << MethodName(m);
  }
}

TEST(LearnerBatchTest, BatchWithMarginsMatchesProgressiveValidation) {
  const std::vector<Example> stream = MakeStream(500, 21);
  Learner a = Build(StandardBuilder(Method::kAwmSketch, 5).SetBudgetBytes(KiB(2)));
  Learner b = Build(StandardBuilder(Method::kAwmSketch, 5).SetBudgetBytes(KiB(2)));
  std::vector<double> loop_margins, batch_margins;
  for (const Example& ex : stream) loop_margins.push_back(a.Update(ex));
  b.UpdateBatch(stream, &batch_margins);
  ASSERT_EQ(loop_margins.size(), batch_margins.size());
  for (size_t i = 0; i < loop_margins.size(); ++i) {
    EXPECT_EQ(loop_margins[i], batch_margins[i]) << i;
  }
}

// -------------------------------------------------------------- snapshot

TEST(LearnerSnapshotTest, SnapshotIsImmutableUnderContinuedTraining) {
  const std::vector<Example> stream = MakeStream(4000, 41);
  Learner learner = Build(StandardBuilder(Method::kAwmSketch, 9).SetBudgetBytes(KiB(2)));
  learner.UpdateBatch(std::span<const Example>(stream.data(), 2000));

  const LearnerSnapshot snap = learner.Snapshot(64);
  const std::vector<FeatureWeight> frozen_top = snap.top_k();
  std::vector<float> frozen_estimates;
  for (uint32_t f = 0; f < 512; ++f) frozen_estimates.push_back(snap.Estimate(f));
  const uint64_t frozen_steps = snap.steps();

  // A copy shares the same frozen state.
  const LearnerSnapshot copy = snap;  // NOLINT(performance-unnecessary-copy-initialization)

  learner.UpdateBatch(std::span<const Example>(stream.data() + 2000, 2000));

  EXPECT_EQ(snap.steps(), frozen_steps);
  EXPECT_EQ(learner.steps(), frozen_steps + 2000);
  ASSERT_EQ(snap.top_k().size(), frozen_top.size());
  for (size_t i = 0; i < frozen_top.size(); ++i) {
    EXPECT_EQ(snap.top_k()[i], frozen_top[i]);
    EXPECT_EQ(copy.top_k()[i], frozen_top[i]);
  }
  int diverged = 0;
  for (uint32_t f = 0; f < 512; ++f) {
    EXPECT_EQ(snap.Estimate(f), frozen_estimates[f]) << f;
    EXPECT_EQ(copy.Estimate(f), frozen_estimates[f]) << f;
    diverged += (learner.WeightEstimate(f) != frozen_estimates[f]);
  }
  // The live model kept moving; the snapshot did not.
  EXPECT_GT(diverged, 0);
}

TEST(LearnerSnapshotTest, EstimatesMatchLiveModelAtCaptureTime) {
  const std::vector<Example> stream = MakeStream(2000, 51);
  for (const Method m : AllMethods()) {
    Learner learner = Build(StandardBuilder(m, 13).SetBudgetBytes(KiB(2)));
    learner.UpdateBatch(stream);
    const LearnerSnapshot snap = learner.Snapshot(32);
    for (uint32_t f = 0; f < 2048; f += 5) {
      EXPECT_EQ(snap.Estimate(f), learner.WeightEstimate(f))
          << MethodName(m) << " feature " << f;
    }
    EXPECT_EQ(snap.steps(), learner.steps());
    EXPECT_EQ(snap.memory_cost_bytes(), learner.MemoryCostBytes());
    EXPECT_EQ(snap.method(), m);
  }
}

TEST(LearnerSnapshotTest, ScanTopKRanksHashedModels) {
  const std::vector<Example> stream = MakeStream(2000, 61);
  Learner hash = Build(StandardBuilder(Method::kFeatureHashing, 15).SetBudgetBytes(KiB(2)));
  hash.UpdateBatch(stream);
  const LearnerSnapshot snap = hash.Snapshot(16);
  EXPECT_TRUE(snap.top_k().empty());  // no identifiers stored
  const auto scanned =
      snap.ScanTopK(16, ClassificationProfile::SmallTest().dimension);
  ASSERT_EQ(scanned.size(), 16u);
  // Descending magnitude, and every weight agrees with the frozen model.
  for (size_t i = 1; i < scanned.size(); ++i) {
    EXPECT_GE(std::fabs(scanned[i - 1].weight), std::fabs(scanned[i].weight));
  }
  for (const FeatureWeight& fw : scanned) {
    EXPECT_EQ(fw.weight, snap.Estimate(fw.feature));
  }
}

}  // namespace
}  // namespace wmsketch

// Tests for the read-optimized serving path: the batched SIMD read methods
// (facade PredictBatch/EstimateBatch and their bitwise equivalence with the
// per-call loops), frozen ReadModels, and the RCU-style snapshot publication
// layer (ServeEvery cadence, chunked-batch boundaries, snapshot
// immutability, handle lifecycle, sharded publication at merge barriers).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "engine/serving.h"
#include "engine/sharded_learner.h"
#include "util/memory_cost.h"
#include "util/random.h"

namespace wmsketch {
namespace {

std::vector<Example> MakeStream(int n, uint64_t seed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed);
  std::vector<Example> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

std::vector<uint32_t> RandomFeatureIds(size_t n, uint32_t dimension, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint32_t> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<uint32_t>(rng.Next() % dimension));
  return ids;
}

std::string Serialized(const Learner& learner) {
  std::ostringstream out;
  EXPECT_TRUE(SaveLearner(learner, out).ok());
  return out.str();
}

LearnerBuilder ShapeBuilder(Method m, uint32_t depth) {
  LearnerBuilder b;
  b.SetMethod(m).SetSeed(17).SetLambda(1e-6);
  if (m == Method::kFeatureHashing) {
    b.SetWidth(1024);
  } else {
    b.SetWidth(256).SetDepth(depth).SetHeapCapacity(64);
  }
  return b;
}

// ----------------------------------------------- batched read equivalence

// The batched read paths must be bit-identical to the per-call loops, for
// every plan-driven method and for depths on both sides of the median
// dispatch boundary (networks at d <= 7, rank selection at d >= 8).
TEST(BatchReadTest, PredictAndEstimateBatchBitIdenticalToLoops) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(2500, 3);
  const std::vector<uint32_t> ids = RandomFeatureIds(4096, profile.dimension, 5);

  struct Case {
    Method method;
    uint32_t depth;
  };
  const Case cases[] = {{Method::kWmSketch, 3},  {Method::kWmSketch, 9},
                        {Method::kAwmSketch, 1}, {Method::kAwmSketch, 3},
                        {Method::kFeatureHashing, 0}};
  for (const Case& c : cases) {
    Learner model = std::move(ShapeBuilder(c.method, c.depth).Build()).value();
    model.UpdateBatch(std::span<const Example>(stream.data(), 2000));
    SCOPED_TRACE(model.Name() + " d" + std::to_string(c.depth));

    const std::span<const Example> queries(stream.data() + 2000, 500);
    std::vector<double> batched;
    model.PredictBatch(queries, &batched);
    ASSERT_EQ(batched.size(), queries.size());
    for (size_t e = 0; e < queries.size(); ++e) {
      ASSERT_EQ(batched[e], model.PredictMargin(queries[e].x)) << e;
    }

    std::vector<float> estimates;
    model.EstimateBatch(ids, &estimates);
    ASSERT_EQ(estimates.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(estimates[i], model.WeightEstimate(ids[i])) << ids[i];
    }
  }
}

// Appending semantics: batch calls extend the output vectors.
TEST(BatchReadTest, BatchCallsAppend) {
  Learner model = std::move(ShapeBuilder(Method::kWmSketch, 3).Build()).value();
  const std::vector<Example> stream = MakeStream(600, 9);
  model.UpdateBatch(std::span<const Example>(stream.data(), 500));
  std::vector<double> margins{1.5};
  model.PredictBatch(std::span<const Example>(stream.data() + 500, 100), &margins);
  EXPECT_EQ(margins.size(), 101u);
  EXPECT_EQ(margins[0], 1.5);
}

// ------------------------------------------------------- frozen ReadModel

template <typename T>
void ExpectSameBits(const std::vector<T>& got, const std::vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&got[i], &want[i], sizeof(T)))
        << what << " @" << i << ": " << got[i] << " vs " << want[i];
  }
}

// A frozen read model must answer exactly what the live model answered at
// capture time — and keep answering it after further training — bit for
// bit, through every read: the live batched calls, the frozen model's
// per-call and batched calls, and a LearnerSnapshot. Depths 9 and 14 read
// through the rank-selection median (simd::MedianLarge), the other shapes
// through the sorting networks; AWM at depth > 1 reads a multi-row tail.
TEST(ReadModelTest, FrozenAnswersMatchCaptureMoment) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(3000, 11);
  const std::vector<uint32_t> ids = RandomFeatureIds(512, profile.dimension, 6);
  struct Case {
    Method method;
    uint32_t depth;
  };
  const Case cases[] = {{Method::kWmSketch, 3},  {Method::kWmSketch, 9},
                        {Method::kWmSketch, 14}, {Method::kAwmSketch, 1},
                        {Method::kAwmSketch, 3}, {Method::kAwmSketch, 9},
                        {Method::kFeatureHashing, 0}};
  for (const Case& c : cases) {
    Learner model = std::move(ShapeBuilder(c.method, c.depth).Build()).value();
    SCOPED_TRACE(model.Name() + " d" + std::to_string(c.depth));
    model.UpdateBatch(std::span<const Example>(stream.data(), 1500));
    const std::unique_ptr<const ReadModel> frozen = model.impl().MakeReadModel();
    const LearnerSnapshot snap = model.Snapshot();

    // The live per-call answers at the capture moment, which the live
    // batched reads must match.
    const std::span<const Example> queries(stream.data() + 1500, 300);
    std::vector<double> live_margins;
    std::vector<float> live_estimates;
    for (const Example& ex : queries) live_margins.push_back(model.PredictMargin(ex.x));
    for (const uint32_t id : ids) live_estimates.push_back(model.WeightEstimate(id));
    std::vector<double> margins;
    model.PredictBatch(queries, &margins);
    ExpectSameBits(margins, live_margins, "live PredictBatch");
    std::vector<float> estimates;
    model.EstimateBatch(ids, &estimates);
    ExpectSameBits(estimates, live_estimates, "live EstimateBatch");

    // Train past the capture: frozen answers must not move.
    model.UpdateBatch(std::span<const Example>(stream.data() + 1800, 1200));
    frozen->PredictBatch(queries, margins.data());
    ExpectSameBits(margins, live_margins, "frozen PredictBatch");
    for (size_t e = 0; e < queries.size(); ++e) margins[e] = frozen->PredictMargin(queries[e].x);
    ExpectSameBits(margins, live_margins, "frozen PredictMargin");
    frozen->EstimateBatch(ids, estimates.data());
    ExpectSameBits(estimates, live_estimates, "frozen EstimateBatch");
    for (size_t i = 0; i < ids.size(); ++i) estimates[i] = frozen->Estimate(ids[i]);
    ExpectSameBits(estimates, live_estimates, "frozen Estimate");
    for (size_t i = 0; i < ids.size(); ++i) estimates[i] = snap.Estimate(ids[i]);
    ExpectSameBits(estimates, live_estimates, "LearnerSnapshot::Estimate");
  }
}

// The default read model (a copy of the tracked weights) serves the Sec. 7
// baselines: point estimates exactly, margins as the linear functional of
// the copied weights (equal to the live margin up to per-term float
// rounding).
TEST(ReadModelTest, GenericFallbackServesBaselines) {
  const std::vector<Example> stream = MakeStream(2000, 21);
  Learner model = std::move(LearnerBuilder()
                                .SetMethod(Method::kSimpleTruncation)
                                .SetBudgetBytes(KiB(4))
                                .SetSeed(7)
                                .Build())
                      .value();
  model.UpdateBatch(stream);
  const std::unique_ptr<const ReadModel> frozen = model.impl().MakeReadModel();
  for (int e = 0; e < 200; ++e) {
    const double live = model.PredictMargin(stream[static_cast<size_t>(e)].x);
    const double served = frozen->PredictMargin(stream[static_cast<size_t>(e)].x);
    EXPECT_NEAR(served, live, 1e-5 * (1.0 + std::fabs(live))) << e;
  }
  for (uint32_t f = 0; f < 200; ++f) {
    EXPECT_EQ(frozen->Estimate(f), model.WeightEstimate(f)) << f;
  }
}

// ---------------------------------------------------- publication cadence

TEST(ServingTest, ServeEveryPublishesOnExactBoundaries) {
  constexpr uint64_t kEvery = 128;
  Learner model =
      std::move(ShapeBuilder(Method::kWmSketch, 3).ServeEvery(kEvery).Build()).value();
  EXPECT_EQ(model.serve_every(), kEvery);
  Result<ServingHandle> acquired = model.AcquireServingHandle();
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  ServingHandle handle = std::move(acquired).value();

  // The initial snapshot (published at acquisition) serves immediately.
  EXPECT_EQ(handle.Refresh(), 1u);
  EXPECT_EQ(handle.steps(), 0u);

  const std::vector<Example> stream = MakeStream(1000, 31);
  for (size_t i = 0; i < stream.size(); ++i) {
    model.Update(stream[i]);
    handle.Refresh();
    // The reader always sees the last completed boundary: staleness in
    // updates is bounded by kEvery.
    EXPECT_EQ(handle.steps(), (model.steps() / kEvery) * kEvery);
    EXPECT_LT(model.steps() - handle.steps(), kEvery);
  }
  EXPECT_EQ(handle.version(), 1u + model.steps() / kEvery);
}

TEST(ServingTest, UpdateBatchChunksAtBoundariesAndStaysBitIdentical) {
  constexpr uint64_t kEvery = 256;
  const std::vector<Example> stream = MakeStream(1000, 41);

  Learner plain = std::move(ShapeBuilder(Method::kAwmSketch, 1).Build()).value();
  plain.UpdateBatch(stream);

  Learner served =
      std::move(ShapeBuilder(Method::kAwmSketch, 1).ServeEvery(kEvery).Build()).value();
  ServingHandle handle = std::move(served.AcquireServingHandle()).value();
  std::vector<double> margins;
  served.UpdateBatch(stream, &margins);
  EXPECT_EQ(margins.size(), stream.size());

  // Chunking at publish boundaries must not change the model.
  EXPECT_EQ(Serialized(served), Serialized(plain));
  // 1000 updates with K=256: published at 0 (acquire), 256, 512, 768.
  handle.Refresh();
  EXPECT_EQ(handle.steps(), 768u);
  EXPECT_EQ(handle.version(), 4u);
}

// A merge sums step counts, jumping steps() past the next publish boundary;
// the chunked UpdateBatch must catch up (publish promptly, re-anchor the
// cadence) instead of wrapping its chunk arithmetic and skipping
// publication for the whole batch.
TEST(ServingTest, MergeJumpingPastBoundaryKeepsStalenessBounded) {
  constexpr uint64_t kEvery = 200;
  LearnerBuilder b = ShapeBuilder(Method::kWmSketch, 3);
  Learner served = std::move(b.ServeEvery(kEvery).Build()).value();
  ServingHandle handle = std::move(served.AcquireServingHandle()).value();

  Learner peer = std::move(ShapeBuilder(Method::kWmSketch, 3).Build()).value();
  peer.UpdateBatch(MakeStream(1000, 91));
  ASSERT_TRUE(served.Merge(peer).ok());  // steps jump 0 -> 1000, past 200

  const std::vector<Example> stream = MakeStream(500, 92);
  served.UpdateBatch(stream);
  handle.Refresh();
  // Catch-up publish at 1000 (+ boundary publishes at 1200 and 1400): the
  // reader is never more than kEvery updates behind.
  EXPECT_EQ(handle.steps(), 1400u);
  EXPECT_LT(served.steps() - handle.steps(), kEvery);
}

TEST(ServingTest, ExplicitPublishAndPinnedSnapshotImmutability) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner model = std::move(ShapeBuilder(Method::kWmSketch, 3).Build()).value();
  const std::vector<Example> stream = MakeStream(2000, 51);
  model.UpdateBatch(std::span<const Example>(stream.data(), 1000));

  ServingHandle handle = std::move(model.AcquireServingHandle()).value();
  handle.Refresh();
  EXPECT_EQ(handle.steps(), 1000u);

  const std::vector<uint32_t> ids = RandomFeatureIds(64, profile.dimension, 8);
  std::vector<float> before(ids.size());
  handle.EstimateBatch(ids, before.data());

  // Train on without publishing: the handle keeps serving version 1 bit-
  // for-bit (ServeEvery is 0 — only explicit publication advances it).
  model.UpdateBatch(std::span<const Example>(stream.data() + 1000, 1000));
  std::vector<float> still(ids.size());
  handle.EstimateBatch(ids, still.data());
  EXPECT_EQ(handle.version(), 1u);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(still[i], before[i]);

  // Explicit publication advances the served version and the answers.
  model.PublishServingSnapshot();
  EXPECT_EQ(handle.Refresh(), 2u);
  EXPECT_EQ(handle.steps(), 2000u);
  std::vector<float> after(ids.size());
  handle.EstimateBatch(ids, after.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(after[i], model.WeightEstimate(ids[i]));
  }
}

TEST(ServingTest, HandleTopKMatchesPublishedModel) {
  Learner model = std::move(ShapeBuilder(Method::kAwmSketch, 1).Build()).value();
  model.UpdateBatch(MakeStream(3000, 61));
  ServingHandle handle = std::move(model.AcquireServingHandle()).value();
  const std::vector<FeatureWeight> served = handle.TopK(16);
  const std::vector<FeatureWeight> live = model.TopK(16);
  ASSERT_EQ(served.size(), live.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].feature, live[i].feature);
    EXPECT_EQ(served[i].weight, live[i].weight);
  }
}

TEST(ServingTest, HandleSlotsExhaustAndRecycle) {
  Learner model = std::move(ShapeBuilder(Method::kFeatureHashing, 0).Build()).value();
  std::vector<ServingHandle> handles;
  for (size_t i = 0; i < ServingState::kMaxHandles; ++i) {
    Result<ServingHandle> h = model.AcquireServingHandle();
    ASSERT_TRUE(h.ok()) << i;
    handles.push_back(std::move(h).value());
  }
  EXPECT_EQ(model.AcquireServingHandle().status().code(),
            StatusCode::kFailedPrecondition);
  handles.pop_back();  // releasing a handle frees its slot
  EXPECT_TRUE(model.AcquireServingHandle().ok());
}

TEST(ServingTest, HandlesOutliveTheLearner) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<uint32_t> ids = RandomFeatureIds(32, profile.dimension, 10);
  std::vector<float> expected(ids.size());
  ServingHandle handle = [&] {
    Learner model = std::move(ShapeBuilder(Method::kWmSketch, 3).Build()).value();
    model.UpdateBatch(MakeStream(1500, 71));
    ServingHandle h = std::move(model.AcquireServingHandle()).value();
    h.EstimateBatch(ids, expected.data());
    return h;
  }();  // learner destroyed here
  std::vector<float> after(ids.size());
  handle.EstimateBatch(ids, after.data());
  EXPECT_EQ(handle.version(), 1u);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(after[i], expected[i]);
}

// ------------------------------------------------------- sharded serving

TEST(ServingTest, ShardedPublishesAtBarriersAndCollapse) {
  const std::vector<Example> stream = MakeStream(4000, 81);
  LearnerBuilder builder = ShapeBuilder(Method::kAwmSketch, 1);
  ShardedLearner engine =
      std::move(builder.Shards(2).ServeEvery(1000).BuildSharded()).value();
  Result<ServingHandle> acquired = engine.AcquireServingHandle();
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  ServingHandle handle = std::move(acquired).value();
  EXPECT_GE(handle.Refresh(), 1u);  // acquisition barrier published

  ASSERT_TRUE(engine.PushBatch(stream).ok());
  handle.Refresh();
  EXPECT_GE(handle.steps(), 3000u);  // ServeEvery(1000) barriers fired

  uint64_t last_version = handle.version();
  Learner collapsed = std::move(engine.Collapse()).value();
  EXPECT_GT(handle.Refresh(), last_version);
  EXPECT_EQ(handle.steps(), stream.size());  // final snapshot: all examples

  // The handle serves the collapsed model's state.
  for (uint32_t f = 0; f < 64; ++f) {
    ASSERT_EQ(handle.Estimate(f), collapsed.WeightEstimate(f)) << f;
  }
  // The collapsed learner inherited the serving state: further training
  // keeps publishing on the ServeEvery cadence.
  collapsed.UpdateBatch(MakeStream(1200, 82));
  handle.Refresh();
  EXPECT_GT(handle.steps(), stream.size());

  EXPECT_EQ(engine.AcquireServingHandle().status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace wmsketch

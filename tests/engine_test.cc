// Tests for the mergeability layer (BudgetedClassifier::Merge and friends),
// the sharded parallel training engine built on top of it, and the
// concurrent behavior of the wait-free serving path (this suite is what the
// TSan CI job runs).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "api/learner.h"
#include "core/awm_sketch.h"
#include "core/wm_sketch.h"
#include "datagen/classification_gen.h"
#include "engine/serving.h"
#include "engine/sharded_learner.h"
#include "engine/spsc_ring.h"
#include "linear/dense_linear_model.h"
#include "metrics/recovery.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

std::vector<Example> MakeStream(const ClassificationProfile& profile, uint64_t seed,
                                int n) {
  SyntheticClassificationGen gen(profile, seed);
  std::vector<Example> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

LearnerBuilder AwmBuilder(uint64_t seed = 42) {
  return LearnerBuilder()
      .SetMethod(Method::kAwmSketch)
      .SetWidth(1024)
      .SetDepth(1)
      .SetHeapCapacity(256)
      .SetLambda(1e-6)
      .SetSeed(seed);
}

LearnerBuilder WmBuilder(uint64_t seed = 42) {
  return LearnerBuilder()
      .SetMethod(Method::kWmSketch)
      .SetWidth(512)
      .SetDepth(3)
      .SetHeapCapacity(128)
      .SetLambda(1e-6)
      .SetSeed(seed);
}

std::string Serialized(const Learner& learner) {
  std::ostringstream out;
  EXPECT_TRUE(SaveLearner(learner, out).ok());
  return out.str();
}

// ------------------------------------------------------------ SPSC ring

// Pushes `value` through the producer side; false while the ring is full.
template <typename T>
bool PushCopy(SpscRing<T>& ring, const T& value) {
  T* slot = ring.WriteSlot();
  if (slot == nullptr) return false;
  *slot = value;
  ring.CommitPush();
  return true;
}

// A producer and a consumer thread run many laps of a small ring. The
// consumer reads in place: every span starts at the slot the next item
// occupies, never runs past the ring's last slot, and yields the items in
// push order.
TEST(SpscRingTest, InPlaceSpansKeepOrderAcrossLaps) {
  SpscRing<std::vector<int>> ring(8);
  const size_t cap = ring.capacity();
  ASSERT_EQ(cap, 8u);
  constexpr int kCount = 20000;  // 2,500 laps
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    int next = 0;
    const std::vector<int>* base = nullptr;
    while (next < kCount) {
      const std::span<std::vector<int>> run = ring.ReadSpan(5);
      if (run.empty()) {
        std::this_thread::yield();
        continue;
      }
      const size_t at = static_cast<size_t>(next) % cap;
      if (base == nullptr) base = run.data() - at;
      if (run.data() != base + at || at + run.size() > cap || run.size() > 5) {
        fail.store(true);
        return;
      }
      for (const std::vector<int>& item : run) {
        if (item.size() != static_cast<size_t>(next % 7) + 1 || item.front() != next ||
            item.back() != next) {
          fail.store(true);
          return;
        }
        ++next;
      }
      ring.CommitPop(run.size());
    }
  });
  for (int i = 0; i < kCount;) {
    if (PushCopy(ring, std::vector<int>(static_cast<size_t>(i % 7) + 1, i))) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.Empty());
}

// WriteSlot fails exactly when capacity() items are pushed and not yet
// popped, and CommitPop(n) hands back exactly n slots.
TEST(SpscRingTest, FullAtCapacityAndCommitPopFreesExactlyN) {
  SpscRing<int> ring(3);
  ASSERT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.Empty());
  EXPECT_TRUE(ring.ReadSpan(8).empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(PushCopy(ring, i)) << i;
  EXPECT_EQ(ring.WriteSlot(), nullptr);

  std::span<int> run = ring.ReadSpan(3);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0], 0);
  EXPECT_EQ(run[2], 2);
  EXPECT_EQ(ring.WriteSlot(), nullptr);  // reading alone frees nothing
  ring.CommitPop(2);
  EXPECT_TRUE(PushCopy(ring, 4));
  EXPECT_TRUE(PushCopy(ring, 5));
  EXPECT_EQ(ring.WriteSlot(), nullptr);

  // Items 2..5 are in flight; 4 and 5 sit past the wrap, so the first span
  // stops at the ring's last slot.
  run = ring.ReadSpan(8);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0], 2);
  EXPECT_EQ(run[1], 3);
  ring.CommitPop(1);
  EXPECT_TRUE(PushCopy(ring, 6));
  EXPECT_EQ(ring.WriteSlot(), nullptr);
  run = ring.ReadSpan(8);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0], 3);
  ring.CommitPop(1);
  run = ring.ReadSpan(8);
  ASSERT_EQ(run.size(), 3u);
  EXPECT_EQ(run[0], 4);
  EXPECT_EQ(run[2], 6);
  ring.CommitPop(3);
  EXPECT_TRUE(ring.Empty());
}

// A slot keeps the buffers of the longest example it has held: copying a
// shorter example in reuses them.
TEST(SpscRingTest, SlotKeepsCapacityWhenAShorterExampleIsCopiedIn) {
  std::vector<uint32_t> long_ids(100);
  for (uint32_t i = 0; i < 100; ++i) long_ids[i] = 3 * i;
  const Example long_ex{SparseVector(long_ids, std::vector<float>(100, 1.0f)), 1};
  const Example short_ex{SparseVector({7, 9, 11}, {1.0f, -1.0f, 2.0f}), -1};

  SpscRing<Example> ring(2);
  ASSERT_TRUE(PushCopy(ring, long_ex));
  ASSERT_TRUE(PushCopy(ring, short_ex));
  std::span<Example> run = ring.ReadSpan(2);
  ASSERT_EQ(run.size(), 2u);
  const uint32_t* ids = run[0].x.indices().data();
  const float* values = run[0].x.values().data();
  ring.CommitPop(2);

  // The next lap starts at the slot that held the long example.
  ASSERT_TRUE(PushCopy(ring, short_ex));
  run = ring.ReadSpan(1);
  ASSERT_EQ(run.size(), 1u);
  EXPECT_EQ(run[0].x, short_ex.x);
  EXPECT_EQ(run[0].y, short_ex.y);
  EXPECT_GE(run[0].x.indices().capacity(), 100u);
  EXPECT_GE(run[0].x.values().capacity(), 100u);
  EXPECT_EQ(run[0].x.indices().data(), ids);
  EXPECT_EQ(run[0].x.values().data(), values);
  ring.CommitPop(1);
}

// -------------------------------------------------- merge: error paths

TEST(MergeTest, BaselinesReportUnimplemented) {
  for (const Method m : {Method::kSimpleTruncation, Method::kProbabilisticTruncation,
                         Method::kSpaceSavingFrequent, Method::kCountMinFrequent,
                         Method::kFeatureHashing}) {
    Result<Learner> a =
        LearnerBuilder().SetMethod(m).SetBudgetBytes(KiB(4)).SetSeed(1).Build();
    Result<Learner> b =
        LearnerBuilder().SetMethod(m).SetBudgetBytes(KiB(4)).SetSeed(1).Build();
    ASSERT_TRUE(a.ok() && b.ok()) << MethodName(m);
    const Status st = a.value().Merge(b.value());
    EXPECT_EQ(st.code(), StatusCode::kUnimplemented) << MethodName(m);
    EXPECT_EQ(a.value().CanMerge(b.value()).code(), StatusCode::kUnimplemented);
  }
}

TEST(MergeTest, ShapeAndSeedMismatchesRejected) {
  Learner base = std::move(WmBuilder().Build()).value();
  // Different width.
  Learner wide = std::move(WmBuilder().SetWidth(1024).Build()).value();
  EXPECT_EQ(base.Merge(wide).code(), StatusCode::kInvalidArgument);
  // Different depth.
  Learner deep = std::move(WmBuilder().SetDepth(5).Build()).value();
  EXPECT_EQ(base.Merge(deep).code(), StatusCode::kInvalidArgument);
  // Different seed: identical shape but different hash rows.
  Learner reseeded = std::move(WmBuilder(43).Build()).value();
  EXPECT_EQ(base.Merge(reseeded).code(), StatusCode::kInvalidArgument);
  // Different heap capacity.
  Learner bigheap = std::move(WmBuilder().SetHeapCapacity(64).Build()).value();
  EXPECT_EQ(base.Merge(bigheap).code(), StatusCode::kInvalidArgument);
  // Different method entirely.
  Learner awm = std::move(AwmBuilder().Build()).value();
  EXPECT_EQ(base.Merge(awm).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(awm.Merge(base).code(), StatusCode::kInvalidArgument);
  // A failed merge leaves the target untouched.
  EXPECT_EQ(base.steps(), 0u);
}

// ---------------------------------------------- merge: linearity checks

TEST(MergeTest, WmDepthOneMergeIsExactlyAdditive) {
  // With depth 1 the median is the identity, so per-bucket additivity makes
  // merged estimates exactly the sum of the two models' estimates.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  auto builder = WmBuilder().SetDepth(1);
  Learner a = std::move(builder.Build()).value();
  Learner b = std::move(builder.Build()).value();
  const std::vector<Example> sa = MakeStream(profile, 11, 2000);
  const std::vector<Example> sb = MakeStream(profile, 22, 2000);
  a.UpdateBatch(sa);
  b.UpdateBatch(sb);

  std::vector<float> expected(profile.dimension);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    expected[f] = a.WeightEstimate(f) + b.WeightEstimate(f);
  }
  ASSERT_TRUE(a.CanMerge(b).ok());
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.steps(), 4000u);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    const float tol = 1e-4f + 1e-3f * std::fabs(expected[f]);
    EXPECT_NEAR(a.WeightEstimate(f), expected[f], tol) << f;
  }
}

TEST(MergeTest, AwmMergeAddsEstimatesOnHeavyFeatures) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(AwmBuilder().Build()).value();
  Learner b = std::move(AwmBuilder().Build()).value();
  a.UpdateBatch(MakeStream(profile, 31, 3000));
  b.UpdateBatch(MakeStream(profile, 32, 3000));

  // The merged estimate of each feature that holds an active-set slot in the
  // merged model must be the exact sum of the two models' estimates.
  std::vector<float> expected(profile.dimension);
  for (uint32_t f = 0; f < profile.dimension; ++f) {
    expected[f] = a.WeightEstimate(f) + b.WeightEstimate(f);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.steps(), 6000u);
  const std::vector<FeatureWeight> top = a.TopK(32);
  ASSERT_FALSE(top.empty());
  for (const FeatureWeight& fw : top) {
    const float tol = 1e-4f + 1e-3f * std::fabs(expected[fw.feature]);
    EXPECT_NEAR(fw.weight, expected[fw.feature], tol) << fw.feature;
  }
}

TEST(MergeTest, ScaleWeightsAveragesAndClonesAreIndependent) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(AwmBuilder().Build()).value();
  a.UpdateBatch(MakeStream(profile, 5, 1500));

  std::unique_ptr<BudgetedClassifier> clone = a.impl().Clone();
  ASSERT_NE(clone, nullptr);
  const uint32_t probe = a.TopK(1).at(0).feature;
  const float before = a.WeightEstimate(probe);
  EXPECT_FLOAT_EQ(clone->WeightEstimate(probe), before);

  // Scaling the clone must not disturb the original (deep copy)...
  ASSERT_TRUE(clone->ScaleWeights(0.5).ok());
  EXPECT_NEAR(clone->WeightEstimate(probe), 0.5f * before, 1e-5f + 1e-4f * std::fabs(before));
  EXPECT_FLOAT_EQ(a.WeightEstimate(probe), before);
  // ...and non-positive factors are rejected.
  EXPECT_EQ(clone->ScaleWeights(0.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(clone->ScaleWeights(-1.0).code(), StatusCode::kInvalidArgument);

  // SetSteps overrides only the counter.
  ASSERT_TRUE(clone->SetSteps(99).ok());
  EXPECT_EQ(clone->steps(), 99u);
}

TEST(MergeTest, MergeThenHalveMatchesParameterMixing) {
  // avg = (w_a + w_b) / 2 through the public pieces.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  Learner a = std::move(WmBuilder().SetDepth(1).Build()).value();
  Learner b = std::move(WmBuilder().SetDepth(1).Build()).value();
  a.UpdateBatch(MakeStream(profile, 61, 1000));
  b.UpdateBatch(MakeStream(profile, 62, 1000));
  const uint32_t probe = a.TopK(1).at(0).feature;
  const float wa = a.WeightEstimate(probe), wb = b.WeightEstimate(probe);
  ASSERT_TRUE(a.Merge(b).ok());
  ASSERT_TRUE(a.impl().ScaleWeights(0.5).ok());
  const float avg = 0.5f * (wa + wb);
  EXPECT_NEAR(a.WeightEstimate(probe), avg, 1e-4f + 1e-3f * std::fabs(avg));
}

// ------------------------------------------------------ sharded engine

TEST(ShardedLearnerTest, RequiresMergeableMethodForMultipleShards) {
  Result<ShardedLearner> r = LearnerBuilder()
                                 .SetMethod(Method::kSimpleTruncation)
                                 .SetBudgetBytes(KiB(4))
                                 .Shards(4)
                                 .BuildSharded();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);

  // A single shard never merges, so any method works.
  Result<ShardedLearner> single = LearnerBuilder()
                                      .SetMethod(Method::kSimpleTruncation)
                                      .SetBudgetBytes(KiB(4))
                                      .Shards(1)
                                      .BuildSharded();
  EXPECT_TRUE(single.ok());

  EXPECT_FALSE(LearnerBuilder().SetBudgetBytes(KiB(4)).Shards(0).BuildSharded().ok());
}

TEST(ShardedLearnerTest, SingleShardIsBitIdenticalToSequential) {
  // Long examples first, then short ones of varying nnz: the stream runs
  // almost four laps of the worker's 1,024-slot ring, so later examples are
  // copied into slots that still hold the buffers of longer ones.
  ClassificationProfile long_profile = ClassificationProfile::SmallTest();
  long_profile.min_nnz = 80;
  long_profile.max_nnz = 120;
  std::vector<Example> stream = MakeStream(long_profile, 76, 1500);
  const std::vector<Example> short_tail =
      MakeStream(ClassificationProfile::SmallTest(), 77, 2500);
  stream.insert(stream.end(), short_tail.begin(), short_tail.end());

  for (const bool use_wm : {false, true}) {
    LearnerBuilder builder = use_wm ? WmBuilder() : AwmBuilder();
    Learner sequential = std::move(builder.Build()).value();
    sequential.UpdateBatch(stream);

    ShardedLearner engine = std::move(builder.Shards(1).SetSyncInterval(512).BuildSharded()).value();
    ASSERT_TRUE(engine.PushBatch(stream).ok());
    Result<Learner> collapsed = engine.Collapse();
    ASSERT_TRUE(collapsed.ok());

    EXPECT_EQ(collapsed.value().steps(), sequential.steps());
    // Byte-for-byte identical serialized state: same tables, same scales,
    // same heap layout, same counters.
    EXPECT_EQ(Serialized(collapsed.value()), Serialized(sequential))
        << (use_wm ? "wm" : "awm");

    EXPECT_EQ(engine.Collapse().status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.Push(stream[0]).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.SyncNow().code(), StatusCode::kFailedPrecondition);
  }
}

// The two push paths route and train identically: PushBatch copies each
// example into its ring slot, Push moves it in. Three AWM shards fed the
// same stream through either (in ragged blocks, or one example at a time)
// collapse to the same bytes, and so does a second run of each.
TEST(ShardedLearnerTest, PushAndPushBatchCollapseToTheSameBytes) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 17, 6000);
  const auto train = [&](bool batched) -> std::string {
    ShardedLearner engine =
        std::move(AwmBuilder().Shards(3).SetSyncInterval(1000).BuildSharded()).value();
    if (batched) {
      size_t at = 0;
      for (size_t block = 1; at < stream.size(); block = block * 5 % 331 + 1) {
        const size_t n = std::min(block, stream.size() - at);
        EXPECT_TRUE(engine.PushBatch(std::span<const Example>(stream.data() + at, n)).ok());
        at += n;
      }
    } else {
      for (const Example& ex : stream) EXPECT_TRUE(engine.Push(Example(ex)).ok());
    }
    Result<Learner> collapsed = engine.Collapse();
    EXPECT_TRUE(collapsed.ok());
    if (!collapsed.ok()) return {};
    EXPECT_EQ(collapsed.value().steps(), stream.size());
    return Serialized(collapsed.value());
  };
  const std::string batched = train(true);
  ASSERT_FALSE(batched.empty());
  EXPECT_EQ(train(false), batched);
  EXPECT_EQ(train(true), batched);
  EXPECT_EQ(train(false), batched);
}

TEST(ShardedLearnerTest, StatsCountEveryExampleExactly) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 13, 3000);
  ShardedLearner engine =
      std::move(AwmBuilder().Shards(4).SetSyncInterval(1000).BuildSharded()).value();
  ASSERT_TRUE(engine.PushBatch(stream).ok());
  ASSERT_TRUE(engine.SyncNow().ok());  // barrier: per-shard counts now exact
  const ShardedLearnerStats stats = engine.Stats();
  EXPECT_EQ(stats.pushed, stream.size());
  EXPECT_GE(stats.syncs, 3u);  // two periodic (at 1000, 2000) + the explicit one
  ASSERT_EQ(stats.per_shard.size(), 4u);
  uint64_t total = 0;
  for (const uint64_t n : stats.per_shard) {
    EXPECT_GT(n, 0u);  // hash partitioning spreads the stream across shards
    total += n;
  }
  EXPECT_EQ(total, stream.size());

  Result<Learner> collapsed = engine.Collapse();
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed.value().steps(), stream.size());
}

TEST(ShardedLearnerTest, ShardedRecoveryQualityWithinToleranceOfSequential) {
  // Recovery quality of the 4-shard collapsed model should be in the same
  // regime as the sequential model on the same stream — parameter mixing
  // loses a little, but must stay far from the unsorted-noise regime.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const int kExamples = 12000;
  const size_t kTopK = 64;
  const std::vector<Example> stream = MakeStream(profile, 99, kExamples);

  LearnerOptions ref_opts;
  ref_opts.lambda = 1e-6;
  ref_opts.seed = 42;
  DenseLinearModel reference(profile.dimension, ref_opts);
  for (const Example& ex : stream) reference.Update(ex.x, ex.y);
  const std::vector<float> w_star = reference.Weights();

  Learner sequential = std::move(AwmBuilder().Build()).value();
  sequential.UpdateBatch(stream);
  const double seq_err = RelErrTopK(sequential.TopK(kTopK), w_star, kTopK);

  ShardedLearner engine =
      std::move(AwmBuilder().Shards(4).SetSyncInterval(2000).BuildSharded()).value();
  ASSERT_TRUE(engine.PushBatch(stream).ok());
  Learner collapsed = std::move(engine.Collapse()).value();
  EXPECT_EQ(collapsed.steps(), static_cast<uint64_t>(kExamples));
  const double sharded_err = RelErrTopK(collapsed.TopK(kTopK), w_star, kTopK);

  // RelErr is bounded below by 1. The schedule-matched mixing rule keeps the
  // 4-shard collapse within a few percent of sequential (measured ~0.07
  // delta on this stream); 0.25 leaves headroom without admitting the
  // plain-averaging regime (~0.7 delta).
  EXPECT_LT(sharded_err, seq_err + 0.25)
      << "sequential=" << seq_err << " sharded=" << sharded_err;

  // The collapsed model is an ordinary Learner: snapshots and serialization
  // work unchanged.
  const LearnerSnapshot snap = collapsed.Snapshot(kTopK);
  EXPECT_EQ(snap.steps(), static_cast<uint64_t>(kExamples));
  std::stringstream io;
  ASSERT_TRUE(SaveLearner(collapsed, io).ok());
  Result<Learner> restored = LoadLearner(io, ref_opts);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().steps(), collapsed.steps());
}

// ---------------------------------------------------- concurrent serving

// Readers spin on ServingHandles while the writer trains and publishes
// every K updates. Checked invariants: observed versions and step counts
// are monotone; every snapshot is internally consistent (two reads of the
// same feature under one pin are bit-identical — a torn or mutated table
// would break this); margins are finite. Run under TSan in CI, this is
// also the race-freedom proof of the pin/publish/reclaim protocol.
TEST(ServingConcurrencyTest, PredictUnderUpdateIsMonotoneAndConsistent) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 7, 12000);

  Learner model = std::move(WmBuilder().ServeEvery(512).Build()).value();
  constexpr int kReaders = 3;
  std::vector<ServingHandle> handles;
  for (int r = 0; r < kReaders; ++r) {
    Result<ServingHandle> h = model.AcquireServingHandle();
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(std::move(h).value());
  }

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ServingHandle& handle = handles[static_cast<size_t>(r)];
      const std::span<const Example> queries(stream.data(), 64);
      std::vector<double> margins(queries.size());
      const uint32_t probe = 11;
      uint64_t last_version = 0;
      uint64_t last_steps = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t v = handle.Refresh();
        const uint64_t s = handle.steps();
        if (v < last_version || s < last_steps) {
          failed.store(true);
          return;
        }
        last_version = v;
        last_steps = s;
        handle.PredictBatch(queries, margins.data());
        for (const double m : margins) {
          if (!std::isfinite(m)) {
            failed.store(true);
            return;
          }
        }
        // Internal consistency under one pin: the snapshot is immutable, so
        // two point queries of the same feature in one batch must agree
        // bit-for-bit no matter how many versions the writer publishes.
        const uint32_t ids[2] = {probe, probe};
        float est[2];
        handle.EstimateBatch(ids, est);
        if (est[0] != est[1]) {
          failed.store(true);
          return;
        }
      }
    });
  }

  // The writer trains (and publishes every 512 updates) while readers spin.
  constexpr size_t kChunk = 256;
  for (size_t at = 0; at < stream.size(); at += kChunk) {
    model.UpdateBatch(std::span<const Example>(
        stream.data() + at, std::min(kChunk, stream.size() - at)));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  // Every boundary was published; the readers' final refresh can observe it.
  EXPECT_EQ(handles[0].Refresh(), 1u + model.steps() / 512);
  EXPECT_EQ(handles[0].steps(), (model.steps() / 512) * 512);
}

// The same under sharded ingestion: readers serve from merge-barrier
// snapshots while the owner pushes and workers train.
TEST(ServingConcurrencyTest, ShardedPredictUnderPushIsMonotone) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 23, 8000);

  ShardedLearner engine =
      std::move(AwmBuilder().Shards(2).ServeEvery(2000).BuildSharded()).value();
  Result<ServingHandle> acquired = engine.AcquireServingHandle();
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  ServingHandle handle = std::move(acquired).value();

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    const std::span<const Example> queries(stream.data(), 32);
    std::vector<double> margins(queries.size());
    uint64_t last_version = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t v = handle.Refresh();
      if (v < last_version) {
        failed.store(true);
        return;
      }
      last_version = v;
      handle.PredictBatch(queries, margins.data());
    }
  });

  ASSERT_TRUE(engine.PushBatch(stream).ok());
  Result<Learner> collapsed = engine.Collapse();
  ASSERT_TRUE(collapsed.ok());
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(failed.load());
  handle.Refresh();
  EXPECT_EQ(handle.steps(), stream.size());
}

TEST(ShardedLearnerTest, DestructorWithoutCollapseJoinsCleanly) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const std::vector<Example> stream = MakeStream(profile, 3, 500);
  {
    ShardedLearner engine = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
    ASSERT_TRUE(engine.PushBatch(stream).ok());
    // Dropped without Collapse: workers must stop and join without hanging.
  }
  // Move assignment over a live engine must likewise join the replaced
  // engine's workers (not std::terminate on a joinable std::thread).
  ShardedLearner a = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
  ShardedLearner b = std::move(AwmBuilder().Shards(2).BuildSharded()).value();
  ASSERT_TRUE(a.PushBatch(stream).ok());
  a = std::move(b);
  ASSERT_TRUE(a.Push(stream[0]).ok());
  SUCCEED();
}

}  // namespace
}  // namespace wmsketch

// Randomized interleaving coverage for the copy-on-write paged storage:
// updates × snapshot publications × clones × merges, several seeds, three
// table-backed methods. Two invariants are asserted bit-for-bit:
//
//   1. Pinned snapshots are frozen: every ReadModel pinned at some
//      instant keeps returning the exact bits it returned at capture time,
//      no matter how much the live model (or its clones) mutate, merge, or
//      publish afterwards — page aliasing must never leak a writer-side
//      mutation into a published page.
//   2. Publication is free of side effects: a reference learner that
//      receives the identical update/merge sequence but never publishes or
//      clones stays bit-identical to the live model under test.
//
// The threaded section runs the same machinery under concurrent readers so
// TSan (CI job) checks the page-sharing path for races; ASan runs the whole
// file via the full suite.

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/learner.h"
#include "core/awm_sketch.h"
#include "core/wm_sketch.h"
#include "datagen/classification_gen.h"
#include "engine/serving.h"
#include "linear/classifier.h"
#include "linear/feature_hashing.h"
#include "util/random.h"

namespace wmsketch {
namespace {

constexpr uint32_t kProbeFeatures = 64;
constexpr size_t kProbeExamples = 8;

struct Pinned {
  std::unique_ptr<const ReadModel> model;
  std::vector<double> margins;    // expected bits, recorded at capture
  std::vector<float> estimates;   // expected bits, recorded at capture
};

std::vector<uint32_t> ProbeFeatures(uint64_t seed, uint32_t dimension) {
  SplitMix64 rng(seed);
  std::vector<uint32_t> out;
  out.reserve(kProbeFeatures);
  for (uint32_t i = 0; i < kProbeFeatures; ++i) {
    out.push_back(static_cast<uint32_t>(rng.Next() % dimension));
  }
  return out;
}

void ExpectBitEqualFloats(const std::vector<float>& a, const std::vector<float>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(float)))
        << what << " slot " << i << ": " << a[i] << " vs " << b[i];
  }
}

void ExpectBitEqualDoubles(const std::vector<double>& a, const std::vector<double>& b,
                           const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(double)))
        << what << " slot " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Capture a snapshot of `model` and record its probe answers.
Pinned Pin(const BudgetedClassifier& model, const std::vector<uint32_t>& features,
           const std::vector<Example>& probes) {
  Pinned p;
  p.model = model.MakeReadModel();
  p.margins.resize(probes.size());
  for (size_t e = 0; e < probes.size(); ++e) {
    p.margins[e] = p.model->PredictMargin(probes[e].x);
  }
  p.estimates.resize(features.size());
  p.model->EstimateBatch(features, p.estimates.data());
  return p;
}

/// Assert a pinned snapshot still answers with its recorded bits.
void VerifyPinned(const Pinned& p, const std::vector<uint32_t>& features,
                  const std::vector<Example>& probes) {
  std::vector<double> margins(probes.size());
  p.model->PredictBatch(probes, margins.data());
  ExpectBitEqualDoubles(p.margins, margins, "pinned margin");
  std::vector<float> estimates(features.size());
  p.model->EstimateBatch(features, estimates.data());
  ExpectBitEqualFloats(p.estimates, estimates, "pinned estimate");
  // The single-call path must agree with the recorded bits too.
  for (size_t i = 0; i < features.size(); ++i) {
    const float single = p.model->Estimate(features[i]);
    EXPECT_EQ(0, std::memcmp(&single, &p.estimates[i], sizeof(float)));
  }
}

/// Assert the live model under test answers bit-identically to the
/// never-published reference.
void VerifyLiveAgainstReference(const BudgetedClassifier& live,
                                const BudgetedClassifier& ref,
                                const std::vector<uint32_t>& features,
                                const std::vector<Example>& probes) {
  std::vector<float> a(features.size()), b(features.size());
  live.EstimateBatch(features, a.data());
  ref.EstimateBatch(features, b.data());
  ExpectBitEqualFloats(a, b, "live-vs-reference estimate");
  std::vector<double> ma(probes.size()), mb(probes.size());
  live.PredictBatch(probes, ma.data());
  ref.PredictBatch(probes, mb.data());
  ExpectBitEqualDoubles(ma, mb, "live-vs-reference margin");
}

/// One factory per method so the test builds matched (live, reference,
/// clone-source) instances freely.
using Factory = std::unique_ptr<BudgetedClassifier> (*)(uint64_t seed);

std::unique_ptr<BudgetedClassifier> MakeWm(uint64_t seed) {
  LearnerOptions opts;
  opts.seed = seed;
  return std::make_unique<WmSketch>(WmSketchConfig{256, 3, 32}, opts);
}

std::unique_ptr<BudgetedClassifier> MakeAwm(uint64_t seed) {
  LearnerOptions opts;
  opts.seed = seed;
  return std::make_unique<AwmSketch>(AwmSketchConfig{256, 1, 64}, opts);
}

std::unique_ptr<BudgetedClassifier> MakeHash(uint64_t seed) {
  LearnerOptions opts;
  opts.seed = seed;
  return std::make_unique<FeatureHashingClassifier>(1024, opts);
}

void RunInterleaving(Factory make, uint64_t seed) {
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  SyntheticClassificationGen gen(profile, seed);
  const std::vector<uint32_t> features = ProbeFeatures(seed * 31 + 7, profile.dimension);
  std::vector<Example> probes;
  for (size_t i = 0; i < kProbeExamples; ++i) probes.push_back(gen.Next());

  std::unique_ptr<BudgetedClassifier> live = make(seed);
  std::unique_ptr<BudgetedClassifier> ref = make(seed);  // never publishes

  SplitMix64 rng(seed * 1000003 + 17);
  std::vector<Pinned> pinned;
  for (int op = 0; op < 400; ++op) {
    const uint64_t dice = rng.Next() % 100;
    if (dice < 70) {
      // Update both models with the same example.
      const Example ex = gen.Next();
      live->Update(ex.x, ex.y);
      ref->Update(ex.x, ex.y);
    } else if (dice < 85) {
      // Publish: pin a snapshot of the live model (the reference does NOT
      // publish — that asymmetry is invariant 2). Cap retained snapshots to
      // bound the test's memory while still aging several generations.
      pinned.push_back(Pin(*live, features, probes));
      if (pinned.size() > 6) pinned.erase(pinned.begin());
    } else if (dice < 95 && live->Clone() != nullptr) {
      // Clone-and-diverge: train the clone (which shares pages with every
      // pinned snapshot) on examples the live model never sees, publish
      // from it, then drop it. Must not disturb the live model or any pin.
      std::unique_ptr<BudgetedClassifier> clone = live->Clone();
      SyntheticClassificationGen side(profile, rng.Next());
      for (int i = 0; i < 20; ++i) {
        const Example ex = side.Next();
        clone->Update(ex.x, ex.y);
      }
      (void)clone->MakeReadModel();  // publish from the clone, then drop it
    } else {
      // Merge: fold a freshly-trained clone into the live model, mirrored
      // exactly on the reference side (clones of bit-identical models
      // trained on the same side stream stay bit-identical).
      const uint64_t side_seed = rng.Next();
      std::unique_ptr<BudgetedClassifier> c_live = live->Clone();
      std::unique_ptr<BudgetedClassifier> c_ref = ref->Clone();
      if (c_live == nullptr || c_ref == nullptr) continue;
      SyntheticClassificationGen s1(profile, side_seed);
      SyntheticClassificationGen s2(profile, side_seed);
      for (int i = 0; i < 10; ++i) {
        const Example e1 = s1.Next();
        c_live->Update(e1.x, e1.y);
        const Example e2 = s2.Next();
        c_ref->Update(e2.x, e2.y);
      }
      ASSERT_TRUE(live->MergeScaled(*c_live, 0.5).ok());
      ASSERT_TRUE(ref->MergeScaled(*c_ref, 0.5).ok());
    }

    if (op % 25 == 0) {
      for (const Pinned& p : pinned) VerifyPinned(p, features, probes);
      VerifyLiveAgainstReference(*live, *ref, features, probes);
    }
  }
  for (const Pinned& p : pinned) VerifyPinned(p, features, probes);
  VerifyLiveAgainstReference(*live, *ref, features, probes);
}

TEST(CowAliasingTest, WmRandomizedInterleaving) {
  for (const uint64_t seed : {11u, 22u, 33u}) RunInterleaving(&MakeWm, seed);
}

TEST(CowAliasingTest, AwmRandomizedInterleaving) {
  for (const uint64_t seed : {11u, 22u, 33u}) RunInterleaving(&MakeAwm, seed);
}

TEST(CowAliasingTest, HashRandomizedInterleaving) {
  for (const uint64_t seed : {11u, 22u, 33u}) RunInterleaving(&MakeHash, seed);
}

// Hash stores no merge semantics; make sure the random loop above didn't
// silently skip everything for it by asserting the clone path exists.
TEST(CowAliasingTest, HashClonesAreIndependent) {
  std::unique_ptr<BudgetedClassifier> a = MakeHash(5);
  ASSERT_NE(a, nullptr);
}

// Concurrent readers over published paged snapshots while the writer trains
// and clones: no assertions beyond sanity — the value is TSan coverage of
// page sharing (refcount handoff, immutable page reads) under the wait-free
// serving protocol.
TEST(CowAliasingTest, ConcurrentReadersOverSharedPages) {
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kWmSketch)
                              .SetWidth(256)
                              .SetDepth(3)
                              .SetHeapCapacity(64)
                              .ServeEvery(128)
                              .Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();

  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  SyntheticClassificationGen gen(profile, 99);
  std::vector<Example> stream;
  for (int i = 0; i < 6000; ++i) stream.push_back(gen.Next());

  std::vector<ServingHandle> handles;
  for (int r = 0; r < 2; ++r) {
    Result<ServingHandle> h = model.AcquireServingHandle();
    ASSERT_TRUE(h.ok());
    handles.push_back(std::move(h).value());
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const std::vector<uint32_t> keys = ProbeFeatures(700 + r, profile.dimension);
      std::vector<float> est(keys.size());
      std::vector<double> margins(16);
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        handles[static_cast<size_t>(r)].EstimateBatch(keys, est.data());
        handles[static_cast<size_t>(r)].PredictBatch(
            std::span<const Example>(stream.data(), 16), margins.data());
        const uint64_t v = handles[static_cast<size_t>(r)].version();
        EXPECT_GE(v, last_version);
        last_version = v;
      }
    });
  }

  for (size_t at = 0; at + 64 <= stream.size(); at += 64) {
    model.UpdateBatch(std::span<const Example>(stream.data() + at, 64));
    if (at % 1024 == 0) {
      // Clone churn on the writer thread: clones share pages with the
      // snapshots the readers are pinning right now.
      std::unique_ptr<BudgetedClassifier> clone = model.impl().Clone();
      ASSERT_NE(clone, nullptr);
      (void)clone->MakeReadModel();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace wmsketch

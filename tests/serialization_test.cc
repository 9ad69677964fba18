// Tests for binary snapshot serialization of the WM- and AWM-Sketches
// through the one snapshot format (SaveClassifier / LoadLearner): round-trip
// fidelity (estimates, predictions, and continued training agree exactly),
// plus corruption/failure injection that reaches the payload loaders' own
// validation behind a valid checksum.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "api/learner.h"
#include "core/serialization.h"
#include "core/snapshot_io.h"
#include "util/random.h"

namespace wmsketch {
namespace {

LearnerOptions Opts(uint64_t seed = 42) {
  LearnerOptions opts;
  opts.lambda = 1e-4;
  opts.rate = LearningRate::Constant(0.2);
  opts.seed = seed;
  return opts;
}

template <typename Sketch>
void Train(Sketch& sketch, uint64_t stream_seed, int n) {
  Rng rng(stream_seed);
  for (int i = 0; i < n; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(2048));
    sketch.Update(SparseVector::OneHot(f), (f % 3 == 0) ? 1 : -1);
  }
}

// The snapshot SaveClassifier writes for `model` under `method`'s tag.
std::string Save(Method method, const BudgetedClassifier& model) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveClassifier(method, model, out).ok());
  return std::move(out).str();
}

// Loads `bytes` through LoadLearner and returns a copy of the restored model.
template <typename Model>
Result<Model> Load(const std::string& bytes, const LearnerOptions& opts) {
  std::istringstream in(bytes, std::ios::binary);
  WMS_ASSIGN_OR_RETURN(Learner learner, LoadLearner(in, opts));
  const auto* model = dynamic_cast<const Model*>(&learner.impl());
  if (model == nullptr) return Status::Corruption("restored a different method");
  return *model;
}

// The Corruption message LoadLearner gives for `bytes`, or "" when it loads.
std::string CorruptionMessage(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  const Result<Learner> r = LoadLearner(in, Opts());
  if (r.ok()) return "";
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << r.status().ToString();
  return r.status().message();
}

template <typename Model>
Result<Model> RoundTrip(Method method, const Model& model, const LearnerOptions& opts) {
  return Load<Model>(Save(method, model), opts);
}

// The facade header in front of every method payload: magic(4) version(4)
// tag(1).
constexpr size_t kFacadeHeaderBytes = 9;

// The payload of an enveloped snapshot: the facade header and the method
// payload, with no envelope.
std::string Unwrap(const std::string& enveloped) {
  EXPECT_GE(enveloped.size(), snapshot::kEnvelopeHeaderBytes);
  uint32_t magic;
  std::memcpy(&magic, enveloped.data(), sizeof(magic));
  EXPECT_EQ(magic, snapshot::kEnvelopeMagic);
  return enveloped.substr(snapshot::kEnvelopeHeaderBytes);
}

// Seals a (mutated) payload in a fresh envelope with a valid checksum, so
// the mutation reaches the payload loader's own validation.
std::string Reseal(std::string_view payload) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(snapshot::WriteEnveloped(out, payload).ok());
  return std::move(out).str();
}

TEST(SerializationTest, WmRoundTripPreservesEstimates) {
  WmSketch original(WmSketchConfig{256, 3, 32}, Opts());
  Train(original, 7, 3000);

  Result<WmSketch> restored = RoundTrip(Method::kWmSketch, original, Opts());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  for (uint32_t f = 0; f < 2048; ++f) {
    EXPECT_EQ(restored.value().WeightEstimate(f), original.WeightEstimate(f)) << f;
  }
  EXPECT_EQ(restored.value().steps(), original.steps());
  const auto top_a = original.TopK(16);
  const auto top_b = restored.value().TopK(16);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (size_t i = 0; i < top_a.size(); ++i) EXPECT_EQ(top_a[i], top_b[i]);
}

TEST(SerializationTest, WmContinuedTrainingAgreesExactly) {
  // Snapshot mid-stream; training the restored copy on the remaining stream
  // must match training the original straight through (state completeness).
  WmSketch straight(WmSketchConfig{128, 3, 16}, Opts(9));
  Train(straight, 11, 2000);

  WmSketch first_half(WmSketchConfig{128, 3, 16}, Opts(9));
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(2048));
    first_half.Update(SparseVector::OneHot(f), (f % 3 == 0) ? 1 : -1);
  }
  Result<WmSketch> resumed = RoundTrip(Method::kWmSketch, first_half, Opts(9));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int i = 1000; i < 2000; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(2048));
    resumed.value().Update(SparseVector::OneHot(f), (f % 3 == 0) ? 1 : -1);
  }
  for (uint32_t f = 0; f < 2048; ++f) {
    EXPECT_EQ(resumed.value().WeightEstimate(f), straight.WeightEstimate(f)) << f;
  }
}

TEST(SerializationTest, AwmRoundTripPreservesEverything) {
  AwmSketch original(AwmSketchConfig{256, 1, 64}, Opts(13));
  Train(original, 15, 4000);

  Result<AwmSketch> restored = RoundTrip(Method::kAwmSketch, original, Opts(13));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored.value().active_set_size(), original.active_set_size());
  for (uint32_t f = 0; f < 2048; ++f) {
    EXPECT_EQ(restored.value().WeightEstimate(f), original.WeightEstimate(f)) << f;
    EXPECT_EQ(restored.value().InActiveSet(f), original.InActiveSet(f)) << f;
  }
  // Identical predictions on fresh inputs.
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const SparseVector x = SparseVector::OneHot(static_cast<uint32_t>(rng.Bounded(2048)));
    EXPECT_EQ(restored.value().PredictMargin(x), original.PredictMargin(x));
  }
}

TEST(SerializationTest, AwmContinuedTrainingAgreesExactly) {
  AwmSketch straight(AwmSketchConfig{128, 1, 32}, Opts(19));
  Train(straight, 21, 2000);

  AwmSketch first_half(AwmSketchConfig{128, 1, 32}, Opts(19));
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(2048));
    first_half.Update(SparseVector::OneHot(f), (f % 3 == 0) ? 1 : -1);
  }
  Result<AwmSketch> resumed = RoundTrip(Method::kAwmSketch, first_half, Opts(19));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (int i = 1000; i < 2000; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(2048));
    resumed.value().Update(SparseVector::OneHot(f), (f % 3 == 0) ? 1 : -1);
  }
  for (uint32_t f = 0; f < 2048; ++f) {
    EXPECT_EQ(resumed.value().WeightEstimate(f), straight.WeightEstimate(f)) << f;
  }
}

TEST(SerializationTest, CorruptionRejected) {
  AwmSketch original(AwmSketchConfig{64, 1, 8}, Opts(23));
  Train(original, 25, 200);
  const std::string bytes = Save(Method::kAwmSketch, original);

  // Truncations at every prefix boundary must fail cleanly, never crash.
  for (const size_t cut : {0ul, 3ul, 10ul, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(Load<AwmSketch>(bytes.substr(0, cut), Opts(23)).ok()) << "cut " << cut;
  }
  // Wrong magic: the facade tag names WM, the payload is an AWM's.
  std::string as_wm = Unwrap(bytes);
  as_wm[kFacadeHeaderBytes - 1] = static_cast<char>(Method::kWmSketch);
  EXPECT_EQ(CorruptionMessage(Reseal(as_wm)), "not a WM-Sketch snapshot");

  // Any flipped payload byte fails the envelope checksum.
  std::string flipped = bytes;
  flipped[snapshot::kEnvelopeHeaderBytes + 9] ^= 0x40;
  EXPECT_EQ(Load<AwmSketch>(flipped, Opts(23)).status().code(), StatusCode::kCorruption);

  // Corrupted shape field (width -> non-power-of-two) behind a valid
  // checksum: the loader's own shape validation rejects it.
  std::string bad = Unwrap(bytes);
  bad[kFacadeHeaderBytes + 4] = 0x03;
  EXPECT_EQ(CorruptionMessage(Reseal(bad)), "invalid sketch shape");
}

TEST(SerializationTest, SnapshotSizeIsCompact) {
  // Snapshot ≈ table bytes + heap entries + small header; no bloat.
  AwmSketch sketch(AwmSketchConfig{1024, 1, 128}, Opts(27));
  Train(sketch, 29, 2000);
  const size_t size = Save(Method::kAwmSketch, sketch).size();
  EXPECT_LT(size, 1024 * 4 + 128 * 8 + 128);
  EXPECT_GT(size, 1024 * 4);
}

TEST(SerializationTest, InvalidPageSizeRejected) {
  WmSketch original(WmSketchConfig{128, 2, 16}, Opts());
  Train(original, 5, 200);
  std::string payload = Unwrap(Save(Method::kWmSketch, original));
  // WM payload: magic(4) width(4) depth(4) heap(8) lambda(8) seed(8) t(8)
  // scale(8) = 52 bytes, then the u64 cell count and the u32 page size.
  const uint32_t bad_page = 3;  // not a power of two
  std::memcpy(payload.data() + kFacadeHeaderBytes + 52 + sizeof(uint64_t), &bad_page,
              sizeof(bad_page));
  EXPECT_EQ(CorruptionMessage(Reseal(payload)), "invalid page size");
}

}  // namespace
}  // namespace wmsketch

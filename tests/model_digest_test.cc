// Pins model evolution byte for byte. Each model below trains on one fixed
// stream, and the CRC32C of its SaveLearner bytes must equal the digest
// recorded here. The update paths, the heaps under them and the serializer
// may be rewritten for speed, but any change that moves a single byte of a
// trained model shows up as a digest mismatch. Every build must agree on the
// digests: gcc and clang, SIMD kernels on and off, hash counting on and off.
// A mismatch in one build only is a finding about that build, not a reason to
// record a second digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "util/crc32c.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

constexpr int kExamples = 20000;
constexpr uint64_t kStreamSeed = 2024;

const std::vector<Example>& Stream() {
  static const std::vector<Example> stream = [] {
    SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), kStreamSeed);
    std::vector<Example> out;
    out.reserve(kExamples);
    for (int i = 0; i < kExamples; ++i) out.push_back(gen.Next());
    return out;
  }();
  return stream;
}

LearnerBuilder Base() {
  return LearnerBuilder().SetLambda(1e-6).SetLearningRate(LearningRate::InverseSqrt(0.1)).SetSeed(42);
}

std::string Hex(uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

// Trains in ragged UpdateBatch blocks (the engine's worker path) and returns
// the CRC32C of the saved model.
std::string TrainedDigest(const LearnerBuilder& builder) {
  Result<Learner> built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return "build failed";
  Learner learner = std::move(built).value();
  const std::vector<Example>& stream = Stream();
  size_t at = 0;
  for (size_t block = 1; at < stream.size(); block = block * 7 % 97 + 1) {
    const size_t n = std::min(block, stream.size() - at);
    learner.UpdateBatch(std::span<const Example>(stream.data() + at, n));
    at += n;
  }
  std::ostringstream out;
  EXPECT_TRUE(SaveLearner(learner, out).ok());
  const std::string bytes = out.str();
  return Hex(crc32c::Value(bytes.data(), bytes.size()));
}

// AWM at the 16 KB budget: |S| = 1024 over a depth-1 tail, the shape the
// sharded `train` benchmark runs.
TEST(ModelDigestTest, AwmAt16KiB) {
  EXPECT_EQ(TrainedDigest(Base().SetMethod(Method::kAwmSketch).SetBudgetBytes(KiB(16))),
            "0xa4c67d97");
}

// AWM with |S| = 2 at depth 3: nearly every example evicts, and a member
// evicted by an earlier feature of the same example must then take the tail
// path for its own turn.
TEST(ModelDigestTest, AwmTinyActiveSetDepth3) {
  EXPECT_EQ(TrainedDigest(Base()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(256)
                              .SetDepth(3)
                              .SetHeapCapacity(2)),
            "0x68623b76");
}

// WM at depth 5, with its passive top-K heap.
TEST(ModelDigestTest, WmDepth5) {
  EXPECT_EQ(TrainedDigest(Base()
                              .SetMethod(Method::kWmSketch)
                              .SetWidth(4096)
                              .SetDepth(5)
                              .SetHeapCapacity(128)),
            "0xad1ed85e");
}

// WM at the budget planner's 8 KB shape: depth 14 takes simd::MedianLarge for
// every heap offer, the one median route with a vector kernel.
TEST(ModelDigestTest, WmAt8KiBShapeDepth14) {
  EXPECT_EQ(TrainedDigest(Base()
                              .SetMethod(Method::kWmSketch)
                              .SetWidth(128)
                              .SetDepth(14)
                              .SetHeapCapacity(128)),
            "0x7b216b7a");
}

// Feature hashing trains through the plan-driven simd::PlanMargin and
// simd::PlanScatter with no heap between them.
TEST(ModelDigestTest, FeatureHashingWidth4096) {
  EXPECT_EQ(TrainedDigest(Base().SetMethod(Method::kFeatureHashing).SetWidth(4096)),
            "0x0ef1abd3");
}

// Simple truncation keeps every weight in the same heap the AWM uses.
TEST(ModelDigestTest, SimpleTruncation) {
  EXPECT_EQ(TrainedDigest(Base().SetMethod(Method::kSimpleTruncation).SetBudgetBytes(KiB(4))),
            "0xd9bb153f");
}

}  // namespace
}  // namespace wmsketch

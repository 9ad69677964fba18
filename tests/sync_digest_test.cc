// Pins the distributed sync's wire bytes. A chain of WMD2 delta payloads per
// method, and one sealed sync frame, must hash to the CRC32C values recorded
// here. The delta encoder, the written-cell walk under it and the framing may
// be rewritten for speed, but any change that moves one byte a worker ships
// shows up as a digest mismatch. Like model_digest_test, every build must
// agree: SIMD kernels on and off, hash counting on and off.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/delta_io.h"
#include "datagen/classification_gen.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "net/wire.h"
#include "util/crc32c.h"

namespace wmsketch {
namespace {

constexpr uint64_t kStreamSeed = 2026;
// Examples trained before the first window opens, so the heap is full and
// every window moves members in and out of it.
constexpr size_t kWarmExamples = 2000;
// A window kind is an example count, or kSweep: a merge of a second learner,
// the table-wide MarkAllDirty path. The chain covers the kinds
// DeltaReproducesSenderByteForByte (dist_test) draws from.
constexpr int kSweep = -1;
constexpr int kWindows[] = {16, 1, 0, 500, 16, kSweep, 16, 1, 500, 0, 16};

const std::vector<Example>& Stream() {
  static const std::vector<Example> stream = [] {
    SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), kStreamSeed);
    std::vector<Example> out;
    for (int i = 0; i < 4000; ++i) out.push_back(gen.Next());
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

std::string Bytes(Method method, const BudgetedClassifier& impl) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveClassifier(method, impl, out).ok());
  return std::move(out).str();
}

// Trains `learner` on the next `n` examples of the stream from `*at`.
void Train(Learner& learner, size_t n, size_t* at) {
  learner.UpdateBatch(std::span<const Example>(Stream().data() + *at, n));
  *at += n;
}

// The CRC32C of every payload of the kWindows chain, concatenated. Each
// payload is also applied to a replica, which must end equal to the sender.
std::string ChainDigest(const LearnerBuilder& builder) {
  Result<Learner> built = builder.Build();
  Result<Learner> other = builder.Build();
  EXPECT_TRUE(built.ok() && other.ok()) << built.status().ToString();
  if (!built.ok() || !other.ok()) return "build failed";
  Learner learner = std::move(built).value();
  size_t at = 0;
  Train(learner, kWarmExamples, &at);
  size_t other_at = Stream().size() - 500;
  Train(other.value(), 500, &other_at);

  // As SyncClient does at its first ack: the replica matches the sender and
  // the window opens.
  const Method method = learner.method();
  const std::unique_ptr<BudgetedClassifier> replica = learner.impl().Clone();
  EXPECT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());

  uint32_t crc = 0;
  std::string payload;
  for (const int kind : kWindows) {
    if (kind == kSweep) {
      EXPECT_TRUE(learner.impl().Merge(other.value().impl()).ok());
    } else if (kind > 0) {
      Train(learner, static_cast<size_t>(kind), &at);
    }
    payload.clear();
    EXPECT_TRUE(SaveDelta(method, learner.impl(), &payload, nullptr).ok());
    crc = crc32c::Extend(crc, payload.data(), payload.size());
    EXPECT_TRUE(ApplyDelta(method, *replica, payload).ok());
    EXPECT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());
  }
  EXPECT_EQ(Bytes(method, *replica), Bytes(method, learner.impl())) << MethodName(method);
  return Hex(crc);
}

// WM at depth 5: a 10,240-cell table, 160 bitmap words.
TEST(SyncDigestTest, WmDeltaChain) {
  EXPECT_EQ(ChainDigest(Base()
                            .SetMethod(Method::kWmSketch)
                            .SetWidth(2048)
                            .SetDepth(5)
                            .SetHeapCapacity(128)),
            "0x7418b8be");
}

// AWM at the perfbench `sync` shape: 65,536 cells, |S| = 512.
TEST(SyncDigestTest, AwmDeltaChain) {
  EXPECT_EQ(ChainDigest(Base()
                            .SetMethod(Method::kAwmSketch)
                            .SetWidth(65536)
                            .SetDepth(1)
                            .SetHeapCapacity(512)),
            "0xb5bdd160");
}

// One sealed delta frame as SyncClient builds it: frame header, sync header,
// the WMD2 payload of a 16-example AWM window, then the envelope and CRC.
TEST(SyncDigestTest, SealedSyncFrame) {
  Result<Learner> built = Base()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(65536)
                              .SetDepth(1)
                              .SetHeapCapacity(512)
                              .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  size_t at = 0;
  Train(learner, kWarmExamples, &at);
  ASSERT_TRUE(BeginDeltaWindow(learner.method(), learner.impl()).ok());
  Train(learner, 16, &at);

  std::string frame;
  net::BeginFrame(&frame, static_cast<uint8_t>(dist::FrameType::kDelta));
  dist::EncodeSyncHeader({7, 0x5eed5eed5eed5eedULL, 42}, &frame);
  ASSERT_TRUE(SaveDelta(learner.method(), learner.impl(), &frame, nullptr).ok());
  net::SealFrame(&frame);
  EXPECT_EQ(Hex(crc32c::Value(frame.data(), frame.size())), "0x33b0ccc3");
}

}  // namespace
}  // namespace wmsketch

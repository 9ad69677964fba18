// Corruption fuzz harness for the snapshot format: truncations at every
// prefix and random bit flips of every method's SaveLearner/LoadLearner
// snapshot must always fail cleanly — a Status, never a crash, hang, or huge
// transient allocation. Mutated payloads resealed under a valid checksum
// reach each loader's own validation the same way. Rides the ASan/UBSan CI
// jobs like every other ctest binary.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/snapshot_io.h"
#include "datagen/classification_gen.h"
#include "util/memory_cost.h"
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

Learner TrainedLearner(Method method, int examples, uint64_t seed) {
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(method)
                              .SetBudgetBytes(KiB(2))
                              .SetLambda(1e-4)
                              .SetLearningRate(LearningRate::Constant(0.2))
                              .SetSeed(seed)
                              .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed ^ 0x9e77);
  std::vector<Example> stream;
  stream.reserve(examples);
  for (int i = 0; i < examples; ++i) stream.push_back(gen.Next());
  learner.UpdateBatch(stream);
  return learner;
}

std::string Snapshot(const Learner& learner) {
  std::ostringstream buffer(std::ios::binary);
  EXPECT_TRUE(SaveLearner(learner, buffer).ok());
  return std::move(buffer).str();
}

// The payload of an enveloped snapshot: the facade header and the method
// payload, with no envelope.
std::string Payload(const std::string& enveloped) {
  return enveloped.substr(snapshot::kEnvelopeHeaderBytes);
}

// Seals a (mutated) payload in a fresh envelope with a valid checksum, so
// the mutation reaches the payload loaders' own validation.
std::string Reseal(std::string_view payload) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(snapshot::WriteEnveloped(out, payload).ok());
  return std::move(out).str();
}

// Every truncation prefix of an enveloped snapshot must be rejected: the
// envelope declares its payload length, so a short stream can never parse.
TEST(SnapshotCorruptionTest, EveryTruncationOfEveryMethodIsRejected) {
  for (const Method m : AllMethods()) {
    const std::string bytes = Snapshot(TrainedLearner(m, 400, 51));
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::stringstream in(bytes.substr(0, cut));
      const Result<Learner> r = LoadLearner(in, Opts(51));
      ASSERT_FALSE(r.ok()) << MethodName(m) << " accepted a " << cut
                           << "-byte prefix of " << bytes.size();
    }
  }
}

// Random single-bit flips anywhere in the stream: the envelope CRC catches
// payload damage; header damage fails the magic/version/length checks (a
// stream without the envelope magic is not a snapshot at all). Either way:
// clean Status, no crash.
TEST(SnapshotCorruptionTest, RandomBitFlipsOnEveryMethodAreRejected) {
  Rng rng(97);
  for (const Method m : AllMethods()) {
    const std::string bytes = Snapshot(TrainedLearner(m, 400, 53));
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = bytes;
      const size_t pos = static_cast<size_t>(rng.Bounded(mutated.size()));
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Bounded(8)));
      std::stringstream in(mutated);
      const Result<Learner> r = LoadLearner(in, Opts(53));
      ASSERT_FALSE(r.ok()) << MethodName(m) << " accepted a flip at byte " << pos;
    }
  }
}

// A valid snapshot's payload without its envelope is not a snapshot: the
// envelope is the one format LoadLearner reads.
TEST(SnapshotCorruptionTest, UnwrappedPayloadIsRejected) {
  for (const Method m : AllMethods()) {
    std::stringstream in(Payload(Snapshot(TrainedLearner(m, 200, 55))));
    const Result<Learner> r = LoadLearner(in, Opts(55));
    ASSERT_FALSE(r.ok()) << MethodName(m);
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << MethodName(m);
  }
}

// Truncated and bit-flipped payloads resealed under a valid checksum: only
// the loaders' own validation stands between them and the model, so the
// property under test is purely "no crash, no OOM" — a flip in an unchecked
// float field can legitimately still load.
TEST(SnapshotCorruptionTest, ResealedPayloadFuzzNeverCrashes) {
  Rng rng(101);
  for (const Method m : AllMethods()) {
    const std::string payload = Payload(Snapshot(TrainedLearner(m, 400, 57)));
    for (size_t cut = 0; cut < payload.size(); cut += 7) {
      std::stringstream in(Reseal(std::string_view(payload).substr(0, cut)));
      (void)LoadLearner(in, Opts(57));  // must return, never crash
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = payload;
      const size_t pos = static_cast<size_t>(rng.Bounded(mutated.size()));
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Bounded(8)));
      std::stringstream in(Reseal(mutated));
      (void)LoadLearner(in, Opts(57));  // must return, never crash
    }
  }
}

// A forged envelope declaring a 2^60-byte payload must fail the
// length-vs-stream check *before* any allocation happens — Corruption in
// microseconds, not an OOM kill.
TEST(SnapshotCorruptionTest, HugeDeclaredPayloadFailsBeforeAllocating) {
  std::string header(snapshot::kEnvelopeHeaderBytes, '\0');
  const uint32_t magic = snapshot::kEnvelopeMagic;
  const uint32_t version = snapshot::kEnvelopeVersion;
  const uint64_t length = uint64_t{1} << 60;
  std::memcpy(header.data(), &magic, sizeof(magic));
  std::memcpy(header.data() + 4, &version, sizeof(version));
  std::memcpy(header.data() + 8, &length, sizeof(length));
  std::stringstream in(header + "only a few real bytes");
  const Result<Learner> r = LoadLearner(in, Opts());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("exceeds stream size"), std::string::npos)
      << r.status().ToString();
}

// Loaders bound every count field against the payload bytes that remain: a
// forged WM header claiming a 2^30 x 4 table in a small, CRC-valid payload
// must be rejected without a gigabyte resize.
TEST(SnapshotCorruptionTest, HugeShapeClaimFailsBeforeAllocating) {
  std::string payload = Payload(Snapshot(TrainedLearner(Method::kWmSketch, 200, 59)));
  // Facade payload: magic(4) version(4) tag(1), then the WM payload whose
  // width field sits 4 bytes into it.
  const size_t wm_at = 9;
  const uint32_t huge_width = 1u << 30;
  const uint32_t huge_depth = 4;  // valid depth, so the stream-bound check fires
  std::memcpy(payload.data() + wm_at + 4, &huge_width, sizeof(huge_width));
  std::memcpy(payload.data() + wm_at + 8, &huge_depth, sizeof(huge_depth));
  std::stringstream in(Reseal(payload));
  const Result<Learner> r = LoadLearner(in, Opts(59));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(), "declared sketch shape exceeds stream size");
}

// Heap/summary capacity fields are not stream-backed (an empty heap
// occupies no payload bytes), so they are bounded by an absolute cap.
TEST(SnapshotCorruptionTest, HugeCapacityClaimIsRejected) {
  std::string payload = Payload(Snapshot(TrainedLearner(Method::kSimpleTruncation, 200, 61)));
  // trun payload: magic(4) capacity(8) at facade offset 9.
  const uint64_t huge_capacity = uint64_t{1} << 50;
  std::memcpy(payload.data() + 9 + 4, &huge_capacity, sizeof(huge_capacity));
  std::stringstream in(Reseal(payload));
  const Result<Learner> r = LoadLearner(in, Opts(61));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(), "truncation capacity exceeds sanity cap");
}

}  // namespace
}  // namespace wmsketch

// The frame layer over a socket: net::RecvFrame reading from one end of a
// socketpair what a (possibly hostile) peer wrote to the other. Seeded
// mutations of a sealed sync frame, and every way a frame can go wrong on
// the wire (a garbage type byte, a torn header, a header with a false
// length, a truncated payload, a peer that closes mid-frame), must come back
// as a non-OK Status, never as a crash or a hang, under the ASan and UBSan
// builds too. A frame whose type byte and header arrive in separate writes
// is read whole.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/delta_io.h"
#include "datagen/classification_gen.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "net/wire.h"

#include "mutation_fuzz.h"

namespace wmsketch {
namespace {

constexpr uint8_t kMinType = static_cast<uint8_t>(dist::FrameType::kHello);
constexpr uint8_t kMaxType = static_cast<uint8_t>(dist::FrameType::kShutdown);
// Frame layout: u8 type, then the envelope header: u32 magic, u32 version,
// u64 payload length, u32 CRC32C.
constexpr size_t kLengthAt = 1 + 4 + 4;

// A socketpair whose reading end times out after two seconds, so a
// RecvFrame that waits for bytes that never come fails the test instead of
// hanging it.
class Pipe {
 public:
  Pipe() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    EXPECT_TRUE(net::SetIoTimeouts(fds_[0], 2000).ok());
  }
  ~Pipe() {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void Write(std::string_view bytes) {
    ASSERT_TRUE(net::WriteAll(fds_[1], bytes.data(), bytes.size()).ok());
  }
  void CloseWriter() {
    ::close(fds_[1]);
    fds_[1] = -1;
  }
  Status Recv(net::TypedFrame* frame) {
    return net::RecvFrame(fds_[0], kMinType, kMaxType, "fuzz:recv", frame);
  }

 private:
  int fds_[2] = {-1, -1};
};

// What a peer that sends `bytes` and then closes gets out of RecvFrame.
Status RecvAfterClose(std::string_view bytes, net::TypedFrame* frame) {
  Pipe pipe;
  pipe.Write(bytes);
  pipe.CloseWriter();
  return pipe.Recv(frame);
}

// A sealed sync frame as SyncClient sends it, carrying the delta of a
// 16-example AWM window.
struct SealedFrame {
  std::string frame;
  std::string payload;
};

SealedFrame MakeSyncFrame() {
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(1024)
                              .SetDepth(1)
                              .SetHeapCapacity(32)
                              .SetSeed(42)
                              .Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 3);
  std::vector<Example> stream;
  for (int i = 0; i < 216; ++i) stream.push_back(gen.Next());
  learner.UpdateBatch(std::span<const Example>(stream.data(), 200));
  EXPECT_TRUE(BeginDeltaWindow(learner.method(), learner.impl()).ok());
  learner.UpdateBatch(std::span<const Example>(stream.data() + 200, 16));
  SealedFrame out;
  net::BeginFrame(&out.frame, static_cast<uint8_t>(dist::FrameType::kDelta));
  dist::EncodeSyncHeader({7, 77, 3}, &out.frame);
  EXPECT_TRUE(SaveDelta(learner.method(), learner.impl(), &out.frame, nullptr).ok());
  net::SealFrame(&out.frame);
  out.payload = out.frame.substr(net::kFrameHeaderBytes);
  return out;
}

void SetLength(std::string& frame, uint64_t length) {
  std::memcpy(frame.data() + kLengthAt, &length, sizeof(length));
}

TEST(FrameFuzzTest, SealedFrameRoundTrips) {
  const SealedFrame f = MakeSyncFrame();
  net::TypedFrame frame;
  ASSERT_TRUE(RecvAfterClose(f.frame, &frame).ok());
  EXPECT_EQ(frame.type, static_cast<uint8_t>(dist::FrameType::kDelta));
  EXPECT_EQ(frame.payload, f.payload);
  // After the frame, a peer that closes is a clean end of stream.
  Pipe pipe;
  pipe.CloseWriter();
  EXPECT_EQ(pipe.Recv(&frame).code(), StatusCode::kNotFound);
}

TEST(FrameFuzzTest, TypeByteAndHeaderInSeparateWritesAreReadWhole) {
  const SealedFrame f = MakeSyncFrame();
  for (const size_t split : {size_t{1}, size_t{2}, size_t{11}, net::kFrameHeaderBytes - 1}) {
    Pipe pipe;
    std::thread peer([&] {
      pipe.Write(std::string_view(f.frame).substr(0, split));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pipe.Write(std::string_view(f.frame).substr(split));
    });
    net::TypedFrame frame;
    const Status st = pipe.Recv(&frame);
    peer.join();
    ASSERT_TRUE(st.ok()) << "split " << split << ": " << st.ToString();
    EXPECT_EQ(frame.payload, f.payload) << "split " << split;
  }
}

TEST(FrameFuzzTest, GarbageTypeByteIsRejectedBeforeTheRestArrives) {
  // The peer sends one bad byte and then nothing, keeping the connection
  // open: the reader must reject it at once, not wait out the timeout for
  // a header that never comes.
  for (const uint8_t type : {uint8_t{0}, uint8_t{kMaxType + 1}, uint8_t{0xff}}) {
    Pipe pipe;
    pipe.Write(std::string(1, static_cast<char>(type)));
    net::TypedFrame frame;
    const auto start = std::chrono::steady_clock::now();
    const Status st = pipe.Recv(&frame);
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << int{type} << ": " << st.ToString();
  }
}

TEST(FrameFuzzTest, EveryBrokenFrameIsRejected) {
  const SealedFrame f = MakeSyncFrame();
  const uint64_t length = f.payload.size();
  std::vector<std::pair<std::string, std::string>> cases;
  for (const uint8_t type : {uint8_t{0}, uint8_t{kMaxType + 1}, uint8_t{0x80}}) {
    std::string bad = f.frame;
    bad[0] = static_cast<char>(type);
    cases.emplace_back("type " + std::to_string(type), bad);
  }
  for (size_t keep = 1; keep < net::kFrameHeaderBytes; ++keep) {
    cases.emplace_back("torn header, " + std::to_string(keep) + " bytes",
                       f.frame.substr(0, keep));
  }
  for (const uint64_t lie : {uint64_t{0}, length - 1, length + 1, 2 * length,
                             net::kMaxFramePayloadBytes + 1, ~uint64_t{0}}) {
    std::string bad = f.frame;
    SetLength(bad, lie);
    cases.emplace_back("length " + std::to_string(lie), bad);
  }
  for (const size_t keep : {size_t{0}, size_t{1}, size_t{length / 2}, size_t{length - 1}}) {
    cases.emplace_back("payload cut to " + std::to_string(keep),
                       f.frame.substr(0, net::kFrameHeaderBytes + keep));
  }
  for (const auto& [what, bytes] : cases) {
    net::TypedFrame frame;
    const Status st = RecvAfterClose(bytes, &frame);
    EXPECT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": " << st.ToString();
  }
}

TEST(FrameFuzzTest, PeerClosingMidFrameIsRejected) {
  // The reader is already blocked in the payload when the peer goes away.
  const SealedFrame f = MakeSyncFrame();
  for (const size_t keep : {size_t{5}, net::kFrameHeaderBytes + 1, f.frame.size() - 1}) {
    Pipe pipe;
    std::thread peer([&] {
      pipe.Write(std::string_view(f.frame).substr(0, keep));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pipe.CloseWriter();
    });
    net::TypedFrame frame;
    const Status st = pipe.Recv(&frame);
    peer.join();
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << keep << ": " << st.ToString();
  }
}

TEST(FrameFuzzTest, SeededMutationsNeverPassACorruptPayload) {
  // Mutated frames from a peer that then closes. A mutation can leave a
  // valid frame (a type byte changed to another valid type, bytes appended
  // after the frame); anything the reader accepts must carry the sealed
  // payload unchanged, since the CRC covers it.
  constexpr int kMutations = 2000;
  const SealedFrame f = MakeSyncFrame();
  const fuzz::FuzzTarget t{"frame", f.frame, {{0, 1}, {1, 4}, {5, 4}, {kLengthAt, 8}, {17, 4}},
                           nullptr};
  std::mt19937_64 rng(20261019);
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    net::TypedFrame frame;
    const Status st = RecvAfterClose(fuzz::Mutate(t, rng), &frame);
    if (!st.ok()) {
      ++rejected;
      continue;
    }
    ASSERT_GE(frame.type, kMinType) << "mutation " << i;
    ASSERT_LE(frame.type, kMaxType) << "mutation " << i;
    ASSERT_EQ(frame.payload, f.payload) << "mutation " << i;
  }
  EXPECT_GT(rejected, kMutations / 2);
}

}  // namespace
}  // namespace wmsketch

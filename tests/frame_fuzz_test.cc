// The frame layer over a socket: net::RecvFrame reading from one end of a
// socketpair what a (possibly hostile) peer wrote to the other. Seeded
// mutations of a sealed sync frame, and every way a frame can go wrong on
// the wire (a garbage type byte, a torn header, a header with a false
// length, a truncated payload, a peer that closes mid-frame), must come back
// as a non-OK Status, never as a crash or a hang, under the ASan and UBSan
// builds too. A frame whose type byte and header arrive in separate writes
// is read whole.
//
// The buffered path as well: net::TryDecodeFrame cuts the same frames, and
// reaches the same verdict, whatever pieces the bytes arrive in; and an
// aggregator fed mutated frames split across writes drops or answers every
// bad connection while a good worker's syncs land byte for byte.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/delta_io.h"
#include "datagen/classification_gen.h"
#include "dist/aggregator.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "dist/worker.h"
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

LearnerBuilder SmallAwm() {
  return LearnerBuilder()
      .SetMethod(Method::kAwmSketch)
      .SetWidth(1024)
      .SetDepth(1)
      .SetHeapCapacity(32)
      .SetSeed(42);
}

SealedFrame MakeSyncFrame() {
  Result<Learner> built = SmallAwm().Build();
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

// ------------------------------------------------------ buffered decode

// What a buffered reader makes of a byte stream: the frames it cut, in
// order, and the status it stopped on (OK while the rest is incomplete).
struct Decoded {
  std::vector<net::TypedFrame> frames;
  Status status;
  size_t left = 0;  // bytes buffered and not yet cut when it stopped
};

// Feeds `bytes` to TryDecodeFrame in pieces ending at `cuts` (ascending),
// cutting every complete frame as soon as its last piece arrives, the way
// the aggregator and the serving readers drain a connection.
Decoded DecodeInPieces(std::string_view bytes, const std::vector<size_t>& cuts) {
  Decoded out;
  std::string buffer;
  size_t fed = 0;
  for (const size_t cut : cuts) {
    buffer.append(bytes.substr(fed, cut - fed));
    fed = cut;
    for (;;) {
      net::TypedFrame frame;
      size_t consumed = 0;
      out.status = net::TryDecodeFrame(buffer, kMinType, kMaxType, &frame, &consumed);
      if (!out.status.ok() || consumed == 0) break;
      buffer.erase(0, consumed);
      out.frames.push_back(std::move(frame));
    }
    if (!out.status.ok()) break;
  }
  out.left = buffer.size();
  return out;
}

// Up to four random cut points inside `n` bytes, then `n`.
std::vector<size_t> RandomCuts(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> cuts;
  for (uint64_t k = rng() % 4; k > 0 && n > 0; --k) cuts.push_back(rng() % n);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(n);
  return cuts;
}

TEST(FrameFuzzTest, BufferedDecodeIsTheSameWhateverThePieces) {
  // Three sealed frames back to back, cut anywhere, decode to the three
  // frames; and every seeded mutation of one frame, cut anywhere, gets the
  // verdict it gets whole. A frame the decoder accepts carries the sealed
  // payload unchanged, since the CRC covers it.
  const SealedFrame f = MakeSyncFrame();
  std::mt19937_64 rng(20261020);
  const std::string three = f.frame + f.frame + f.frame;
  for (int i = 0; i < 200; ++i) {
    const Decoded d = DecodeInPieces(three, RandomCuts(three.size(), rng));
    ASSERT_TRUE(d.status.ok()) << d.status.ToString();
    ASSERT_EQ(d.frames.size(), 3u);
    EXPECT_EQ(d.left, 0u);
    for (const net::TypedFrame& frame : d.frames) ASSERT_EQ(frame.payload, f.payload);
  }

  constexpr int kMutations = 2000;
  const fuzz::FuzzTarget t{"frame", f.frame, {{0, 1}, {1, 4}, {5, 4}, {kLengthAt, 8}, {17, 4}},
                           nullptr};
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string bad = fuzz::Mutate(t, rng);
    const Decoded whole = DecodeInPieces(bad, {bad.size()});
    const Decoded pieces = DecodeInPieces(bad, RandomCuts(bad.size(), rng));
    ASSERT_EQ(pieces.status.code(), whole.status.code()) << "mutation " << i;
    ASSERT_EQ(pieces.frames.size(), whole.frames.size()) << "mutation " << i;
    if (whole.status.ok()) {
      ASSERT_EQ(pieces.left, whole.left) << "mutation " << i;
    }
    for (const net::TypedFrame& frame : pieces.frames) {
      ASSERT_EQ(frame.payload, f.payload) << "mutation " << i;
    }
    rejected += whole.status.ok() ? 0 : 1;
  }
  EXPECT_GT(rejected, kMutations / 2);
}

// A bare connection to the aggregator at `path`; -1 on failure.
int RawConnect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string ModelBytes(const Learner& learner) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveClassifier(learner.method(), learner.impl(), out).ok());
  return std::move(out).str();
}

TEST(FrameFuzzTest, AggregatorDropsOrAnswersEveryMutatedFrameWhileAWorkerSyncs) {
  // Each bad peer connects, writes one seeded mutation of a sealed sync
  // frame in up to five pieces (some a few hundred microseconds apart, so
  // the aggregator buffers partial frames), closes its write side and
  // reads until the aggregator closes the connection. The only replies
  // allowed are kError, or the merged model to a mutation that turned the
  // type byte into a valid fetch. A mutation that turns it into a valid
  // shutdown would stop the aggregator as asked, so it is not sent.
  // Meanwhile a good worker syncs 16-example windows; its replica must end
  // byte-identical to its model, with no retry.
  constexpr int kMutations = 400;
  Result<Learner> ref = SmallAwm().Build();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  dist::AggregatorOptions options;
  options.config = ref.value().config();
  options.opts = ref.value().options();
  Result<dist::Aggregator> created = dist::Aggregator::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  dist::Aggregator agg = std::move(created).value();
  const std::string path = "/tmp/wms_ffuzz_" + std::to_string(::getpid());
  ASSERT_TRUE(agg.Bind(path).ok());
  Status served;
  std::thread serving([&] { served = agg.ServeUntilShutdown(); });

  Learner worker_model = SmallAwm().Build().value();
  dist::SyncClientOptions copts;
  copts.worker_id = 1;
  copts.socket_path = path;
  dist::SyncClient client(worker_model.method(), copts);
  std::atomic<bool> stop{false};
  Status worker_status;
  std::thread worker([&] {
    SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 11);
    worker_status = client.Connect(worker_model.impl());
    while (worker_status.ok() && !stop) {
      std::vector<Example> window;
      for (int i = 0; i < 16; ++i) window.push_back(gen.Next());
      worker_model.UpdateBatch(window);
      worker_status = client.Sync(worker_model.impl());
    }
  });

  const SealedFrame f = MakeSyncFrame();
  const fuzz::FuzzTarget t{"frame", f.frame, {{0, 1}, {1, 4}, {5, 4}, {kLengthAt, 8}, {17, 4}},
                           nullptr};
  constexpr auto kShutdown = static_cast<char>(dist::FrameType::kShutdown);
  constexpr auto kFetch = static_cast<char>(dist::FrameType::kFetchMerged);
  std::mt19937_64 rng(20261021);
  int sent = 0, answered = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string bad = fuzz::Mutate(t, rng);
    if (!bad.empty() && bad[0] == kShutdown) continue;
    const int fd = RawConnect(path);
    ASSERT_GE(fd, 0) << "mutation " << i;
    ASSERT_TRUE(net::SetIoTimeouts(fd, 5000).ok());
    const bool pause = rng() % 2 == 0;
    size_t at = 0;
    for (const size_t cut : RandomCuts(bad.size(), rng)) {
      if (cut > at && !net::WriteAll(fd, bad.data() + at, cut - at).ok()) break;  // dropped
      at = cut;
      if (pause) std::this_thread::sleep_for(std::chrono::microseconds(rng() % 300));
    }
    ::shutdown(fd, SHUT_WR);
    ++sent;
    Status st;
    for (;;) {
      Result<dist::Frame> reply = dist::RecvFrame(fd);
      st = reply.status();
      if (!reply.ok()) break;
      ++answered;
      const bool fetch_answer =
          bad[0] == kFetch && reply.value().type == dist::FrameType::kMergedState;
      ASSERT_TRUE(reply.value().type == dist::FrameType::kError || fetch_answer)
          << "mutation " << i << " got " << dist::FrameTypeName(reply.value().type);
    }
    // The connection ends in a close from the aggregator, not a timeout: a
    // clean end of stream, or a reset when it closed with bytes of ours still
    // unread (a bad frame is dropped without reading the pieces after it).
    const bool closed = st.code() == StatusCode::kNotFound ||
                        (st.code() == StatusCode::kIOError &&
                         st.message().find("timed out") == std::string::npos);
    ASSERT_TRUE(closed) << "mutation " << i << ": " << st.ToString();
    ::close(fd);
  }
  stop = true;
  worker.join();
  ASSERT_TRUE(worker_status.ok()) << worker_status.ToString();
  EXPECT_GT(sent, kMutations * 9 / 10);
  EXPECT_GT(answered, 0);
  EXPECT_GT(client.stats().delta_syncs, 0u);
  EXPECT_EQ(client.stats().retries, 0u);

  Result<std::string> merged = client.FetchMergedBytes();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), ModelBytes(worker_model));
  EXPECT_TRUE(client.SendShutdown().ok());
  serving.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(agg.worker_count(), 1u);
  EXPECT_EQ(agg.replica_count(), 1u);
}

}  // namespace
}  // namespace wmsketch

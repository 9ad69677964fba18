// Tests for the network serving tier (src/net/): the shared wire framing
// (incremental TryDecodeFrame, the inbox's receive and the surplus it keeps
// between replies), bit-identical request/response round-trips
// against direct ServingHandle calls for all seven methods, the
// corruption/disconnect containment matrix (a bad frame or a killed client
// costs exactly one connection, never the daemon), the version-keyed top-K
// response cache (hit bytes identical, one invalidation per publish), the
// micro-batch dispatch structure (pipelined requests coalesce into one
// PredictBatch call, and a half-closed pipeline is served past the size
// cut), one snapshot pin per dispatch round (versions on a pipelined
// connection never step back), seeded mutation of every payload decoder,
// and an acceptor that neither spins nor stops serving when a burst of
// connections passes the descriptor limit.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "engine/serving.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/failpoint.h"
#include "util/memory_cost.h"
#include "util/random.h"

#include "descriptor_limit.h"
#include "mutation_fuzz.h"

namespace wmsketch {
namespace {

using net::MsgType;
using net::ServerOptions;
using net::ServerStats;
using net::ServingClient;
using net::ServingServer;

std::string UniqueSocket(const std::string& name) {
  return "/tmp/wms_net_" + name + "_" + std::to_string(::getpid());
}

LearnerBuilder Builder(Method method = Method::kAwmSketch) {
  return LearnerBuilder()
      .SetMethod(method)
      .SetBudgetBytes(KiB(2))
      .SetLambda(1e-4)
      .SetLearningRate(LearningRate::Constant(0.2))
      .SetSeed(42)
      .ServeEvery(0);  // publication is test-paced
}

std::vector<Example> MakeStream(int n, uint64_t seed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed);
  std::vector<Example> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

std::vector<uint32_t> FeatureIds(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint32_t> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<uint32_t>(rng.Next() % 4096));
  return ids;
}

Learner TrainedLearner(Method method, int examples = 2000) {
  Result<Learner> built = Builder(method).Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  learner.UpdateBatch(MakeStream(examples, /*seed=*/7));
  learner.PublishServingSnapshot();
  return learner;
}

std::unique_ptr<ServingServer> StartServer(Learner& learner, ServerOptions options) {
  auto started = ServingServer::Start(
      std::move(options), [&learner] { return learner.AcquireServingHandle(); });
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return std::move(started).value();
}

/// Reads until the peer closes (or errors/times out); true iff EOF came.
bool DrainUntilEof(int fd) {
  char buf[4096];
  while (true) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r == 0) return true;
    if (r < 0) return false;
  }
}

// A test's own receive: any frame type, and the serving replies.
constexpr net::FrameRules kAnyFrame{0, 0xff, 0, "test:recv"};
constexpr net::FrameRules kReplies{net::kMinMsgType, net::kMaxMsgType,
                                   static_cast<uint8_t>(MsgType::kErrorResponse), "test:recv"};

class NetTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// ------------------------------------------------------------ wire layer

TEST_F(NetTest, TryDecodeFrameIsIncremental) {
  const std::string frame = net::EncodeFrame(17, "payload-bytes");
  // Every strict prefix: "need more bytes", no consumption, no error.
  for (size_t len = 0; len < frame.size(); ++len) {
    net::TypedFrame out;
    size_t consumed = 1;
    const Status st = net::TryDecodeFrame(std::string_view(frame.data(), len), 0, 255,
                                          &out, &consumed);
    ASSERT_TRUE(st.ok()) << "prefix " << len << ": " << st.ToString();
    ASSERT_EQ(consumed, 0u) << "prefix " << len;
  }
  // The complete frame (with trailing bytes of the next one) decodes.
  const std::string two = frame + net::EncodeFrame(18, "second");
  net::TypedFrame out;
  size_t consumed = 0;
  ASSERT_TRUE(net::TryDecodeFrame(two, 0, 255, &out, &consumed).ok());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, 17);
  EXPECT_EQ(out.payload, "payload-bytes");
  net::TypedFrame second;
  ASSERT_TRUE(net::TryDecodeFrame(std::string_view(two).substr(consumed), 0, 255,
                                  &second, &consumed)
                  .ok());
  EXPECT_EQ(second.type, 18);
  EXPECT_EQ(second.payload, "second");
}

TEST_F(NetTest, TryDecodeFrameRejectsCorruption) {
  const std::string good = net::EncodeFrame(17, "payload-bytes");
  net::TypedFrame out;
  size_t consumed = 0;

  // Type byte outside the accepted window: rejected on the FIRST byte.
  std::string bad_type = good;
  bad_type[0] = static_cast<char>(200);
  EXPECT_EQ(net::TryDecodeFrame(std::string_view(bad_type.data(), 1), 0, 100, &out,
                                &consumed)
                .code(),
            StatusCode::kCorruption);

  // Bad magic: rejected as soon as the header is present, payload unseen.
  std::string bad_magic = good;
  bad_magic[1] = 'X';
  EXPECT_EQ(net::TryDecodeFrame(
                std::string_view(bad_magic.data(), net::kFrameHeaderBytes), 0, 255,
                &out, &consumed)
                .code(),
            StatusCode::kCorruption);

  // Lying length field beyond the sanity cap: rejected before buffering.
  std::string bad_length = good;
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(bad_length.data() + 9, &huge, sizeof(huge));
  EXPECT_EQ(net::TryDecodeFrame(bad_length, 0, 255, &out, &consumed).code(),
            StatusCode::kCorruption);

  // Flipped payload bit: CRC mismatch.
  std::string bad_crc = good;
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  EXPECT_EQ(net::TryDecodeFrame(bad_crc, 0, 255, &out, &consumed).code(),
            StatusCode::kCorruption);
}

TEST_F(NetTest, SealedFrameMatchesEncodeFrame) {
  std::string sealed = "stale bytes";
  net::BeginFrame(&sealed, 17);
  sealed += "payload-bytes";
  net::SealFrame(&sealed);
  EXPECT_EQ(sealed, net::EncodeFrame(17, "payload-bytes"));
}

TEST_F(NetTest, TwoRepliesInOneSegmentComeBackFromTwoReceivesAndOneRead) {
  // Both frames go out in one send, so the first receive's one read takes
  // them both. The second receive is served from what the inbox kept: it
  // reads nothing, so a descriptor it cannot read from does not matter.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string big(5000, 'x');
  const std::string two = net::EncodeFrame(17, big) + net::EncodeFrame(18, "payload-bytes");
  ASSERT_TRUE(net::WriteAll(fds[0], two.data(), two.size()).ok());
  net::Inbox inbox(kAnyFrame);
  net::FrameView frame;
  ASSERT_TRUE(inbox.Recv(fds[1], &frame).ok());
  EXPECT_EQ(frame.type, 17);
  EXPECT_EQ(frame.payload, big);
  ASSERT_TRUE(inbox.Recv(-1, &frame).ok());
  EXPECT_EQ(frame.type, 18);
  EXPECT_EQ(frame.payload, "payload-bytes");
  EXPECT_TRUE(inbox.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(NetTest, LyingFrameLengthCostsBoundedMemory) {
  // A bare header declaring a near-cap payload, 100 bytes, then EOF: the
  // receiver must report a torn frame without having sized its buffer to
  // the declared length.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string lie = net::EncodeFrame(17, "");
  const uint64_t declared = net::kMaxFramePayloadBytes - 1;
  std::memcpy(lie.data() + 9, &declared, sizeof(declared));
  lie.append(100, 'x');
  ASSERT_EQ(::send(fds[0], lie.data(), lie.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(lie.size()));
  ::close(fds[0]);
  net::Inbox inbox(kAnyFrame);
  net::FrameView frame;
  EXPECT_EQ(inbox.Recv(fds[1], &frame).code(), StatusCode::kCorruption);
  EXPECT_LT(inbox.capacity(), size_t{1} << 20);
  ::close(fds[1]);
}

// --------------------------------------------------- payload codec fuzz

/// A FuzzTarget decode that also checks the round trip: a mutated payload
/// the decoder accepts must decode to a value that encodes and decodes back
/// to the same bytes.
template <typename T>
std::function<Status(std::string_view)> RoundTrips(Result<T> (*decode)(std::string_view),
                                                   std::string (*encode)(const T&)) {
  return [decode, encode](std::string_view bytes) -> Status {
    Result<T> first = decode(bytes);
    if (!first.ok()) return first.status();
    const std::string encoded = encode(first.value());
    Result<T> second = decode(encoded);
    EXPECT_TRUE(second.ok()) << second.status().ToString();
    if (second.ok()) {
      EXPECT_EQ(encode(second.value()), encoded);
    }
    return Status::OK();
  };
}

TEST_F(NetTest, PayloadDecodersSurviveSeededMutation) {
  // Every payload decoder of the serving protocol, fed seeded mutations of
  // an encoder-built payload: each call returns (the sanitizer builds turn
  // an out-of-bounds read or UB into a failure), and an accepted payload
  // round-trips.
  constexpr int kMutations = 3000;
  net::PredictRequest predict;
  predict.examples = MakeStream(2, /*seed=*/51);
  const uint32_t nnz0 = static_cast<uint32_t>(predict.examples[0].x.nnz());
  net::PredictResponse margins{9, {0.5, -1.25, 3.0}};
  net::EstimateRequest estimate{{7, 3, 4096, 0xFFFFFFFFu}};
  net::EstimateResponse estimates{9, {0.5f, -0.0f, 2.0f}};
  net::TopKResponse topk{9, {{3, 2.5f}, {7, -1.0f}}};
  net::ModelInfoResponse info;
  info.snapshot_version = 9;
  info.steps = 1234;
  info.resident_bytes = 65536;
  info.top_k_capacity = 128;

  // Field offsets: counts, lengths, versions and the protocol version.
  const std::vector<fuzz::FuzzTarget> targets = {
      {"predict-request", net::EncodePredictRequest(predict),
       {{0, 4}, {4, 4}, {8 + 8 * size_t{nnz0}, 4}},
       RoundTrips(&net::DecodePredictRequest, &net::EncodePredictRequest)},
      {"predict-response", net::EncodePredictResponse(margins), {{0, 8}, {8, 4}},
       RoundTrips(&net::DecodePredictResponse, &net::EncodePredictResponse)},
      {"estimate-request", net::EncodeEstimateRequest(estimate), {{0, 4}},
       RoundTrips(&net::DecodeEstimateRequest, &net::EncodeEstimateRequest)},
      {"estimate-response", net::EncodeEstimateResponse(estimates), {{0, 8}, {8, 4}},
       RoundTrips(&net::DecodeEstimateResponse, &net::EncodeEstimateResponse)},
      {"top-k-request", net::EncodeTopKRequest({16}), {{0, 4}},
       RoundTrips(&net::DecodeTopKRequest, &net::EncodeTopKRequest)},
      {"top-k-response", net::EncodeTopKResponse(topk), {{0, 8}, {8, 4}},
       RoundTrips(&net::DecodeTopKResponse, &net::EncodeTopKResponse)},
      {"model-info-response", net::EncodeModelInfoResponse(info),
       {{0, 4}, {4, 8}, {12, 8}, {20, 8}, {28, 4}},
       RoundTrips(&net::DecodeModelInfoResponse, &net::EncodeModelInfoResponse)},
      // Error: u8 code, u16 detail, u32 message length, message. A decoded
      // remote status carries the "remote: " prefix the decoder adds, which
      // is how it is told apart from a rejected payload; encoding it and
      // decoding again adds the prefix once more and changes nothing else.
      {"error", net::EncodeError(Status::FailedPrecondition("stale snapshot")),
       {{0, 1}, {1, 2}, {3, 4}},
       [](std::string_view bytes) -> Status {
         const Status remote = net::DecodeErrorStatus(bytes);
         if (remote.message().rfind("remote: ", 0) != 0) return remote;
         const Status again = net::DecodeErrorStatus(net::EncodeError(remote));
         EXPECT_EQ(again.code(), remote.code());
         EXPECT_EQ(again.detail(), remote.detail());
         EXPECT_EQ(again.message(), "remote: " + remote.message());
         return Status::OK();
       }},
  };

  std::mt19937_64 rng(20261019);
  for (const fuzz::FuzzTarget& t : targets) {
    SCOPED_TRACE(t.name);
    ASSERT_TRUE(t.decode(t.seed).ok());
    int accepted = 0;
    for (int i = 0; i < kMutations; ++i) {
      if (t.decode(fuzz::Mutate(t, rng)).ok()) ++accepted;
    }
    // Both outcomes occur: some mutations only change a value, others
    // break the payload.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kMutations);
  }
}

// --------------------------------------- round-trip bit-identity, 7 methods

TEST_F(NetTest, ResponsesBitIdenticalToServingHandleAllMethods) {
  const std::vector<Example> queries = MakeStream(64, /*seed=*/99);
  const std::vector<uint32_t> features = FeatureIds(64, /*seed=*/100);
  for (const Method method : AllMethods()) {
    SCOPED_TRACE(MethodName(method));
    Learner learner = TrainedLearner(method);
    const std::string path = UniqueSocket("rt_" + MethodName(method));
    ServerOptions options;
    options.unix_path = path;
    options.readers = 1;
    auto server = StartServer(learner, options);

    Result<ServingHandle> direct = learner.AcquireServingHandle();
    ASSERT_TRUE(direct.ok());
    std::vector<double> want_margins(queries.size());
    direct.value().PredictBatch(queries, want_margins.data());
    std::vector<float> want_estimates(features.size());
    direct.value().EstimateBatch(features, want_estimates.data());
    const std::vector<FeatureWeight> want_topk = direct.value().TopK(16);
    const uint64_t want_version = direct.value().version();

    Result<ServingClient> connected = ServingClient::ConnectUnix(path);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    ServingClient client = std::move(connected).value();

    Result<net::PredictResponse> predict = client.Predict(queries);
    ASSERT_TRUE(predict.ok()) << predict.status().ToString();
    EXPECT_EQ(predict.value().version, want_version);
    ASSERT_EQ(predict.value().margins.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(predict.value().margins[i], want_margins[i]) << "example " << i;
    }

    Result<net::EstimateResponse> estimate = client.Estimate(features);
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
    ASSERT_EQ(estimate.value().estimates.size(), features.size());
    for (size_t i = 0; i < features.size(); ++i) {
      EXPECT_EQ(estimate.value().estimates[i], want_estimates[i]) << "feature " << i;
    }

    Result<net::TopKResponse> topk = client.TopK(16);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    EXPECT_EQ(topk.value().entries, want_topk);

    Result<net::ModelInfoResponse> info = client.ModelInfo();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().snapshot_version, want_version);
    EXPECT_EQ(info.value().steps, direct.value().steps());
    EXPECT_EQ(info.value().resident_bytes, direct.value().resident_bytes());
  }
}

TEST_F(NetTest, TcpRoundTrip) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  ServerOptions options;
  options.tcp_port = 0;  // kernel-assigned loopback port
  options.readers = 1;
  auto server = StartServer(learner, options);
  ASSERT_GT(server->tcp_port(), 0);

  Result<ServingClient> connected = ServingClient::ConnectTcp("127.0.0.1", server->tcp_port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ServingClient client = std::move(connected).value();

  const std::vector<Example> queries = MakeStream(8, /*seed=*/5);
  Result<ServingHandle> direct = learner.AcquireServingHandle();
  ASSERT_TRUE(direct.ok());
  Result<net::PredictResponse> predict = client.Predict(queries);
  ASSERT_TRUE(predict.ok()) << predict.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(predict.value().margins[i], direct.value().PredictMargin(queries[i].x));
  }
}

// --------------------------------------------- corruption containment

TEST_F(NetTest, CorruptFramesDropOnlyTheirConnection) {
  Learner learner = TrainedLearner(Method::kAwmSketch);
  const std::string path = UniqueSocket("corrupt");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  options.io_timeout_ms = 2000;
  auto server = StartServer(learner, options);

  const std::string good =
      net::EncodeFrame(static_cast<uint8_t>(MsgType::kTopKRequest),
                       net::EncodeTopKRequest(net::TopKRequest{4}));

  // Each corrupt frame on its own connection: the daemon must drop exactly
  // that connection (we observe EOF) and keep serving everyone else.
  std::vector<std::pair<const char*, std::string>> cases;
  {
    std::string bad_magic = good;
    bad_magic[1] = 'X';
    cases.emplace_back("bad-magic", bad_magic);
    std::string bad_version = good;
    bad_version[5] = 9;
    cases.emplace_back("bad-version", bad_version);
    std::string bad_crc = good;
    bad_crc[bad_crc.size() - 1] ^= 0x01;
    cases.emplace_back("bad-crc", bad_crc);
    std::string oversized = good;
    const uint64_t huge = uint64_t{1} << 60;
    std::memcpy(oversized.data() + 9, &huge, sizeof(huge));
    cases.emplace_back("oversized-length", oversized);
    std::string bad_type = good;
    bad_type[0] = static_cast<char>(250);
    cases.emplace_back("unknown-type", bad_type);
    // A frame cut off mid-payload, then close: torn mid-send.
    cases.emplace_back("torn-frame", good.substr(0, good.size() - 3));
  }

  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    Result<ServingClient> victim = ServingClient::ConnectUnix(path, 2000);
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_EQ(::send(victim.value().fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    if (std::string_view(name) == "torn-frame") {
      ::shutdown(victim.value().fd(), SHUT_WR);  // EOF mid-frame
    }
    EXPECT_TRUE(DrainUntilEof(victim.value().fd()));

    // The daemon is still alive and serving fresh connections.
    Result<ServingClient> healthy = ServingClient::ConnectUnix(path, 2000);
    ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
    Result<net::TopKResponse> topk = healthy.value().TopK(4);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  }

  const ServerStats stats = server->stats();
  EXPECT_GE(stats.frames_corrupt, cases.size());
  EXPECT_GE(stats.connections_dropped, cases.size());
}

TEST_F(NetTest, MalformedPayloadAnswersErrorAndKeepsConnection) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("payload");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path, 2000);
  ASSERT_TRUE(connected.ok());
  ServingClient client = std::move(connected).value();

  // CRC-valid frame, garbage payload: a truncated predict request must come
  // back as an error frame — the connection survives.
  ASSERT_TRUE(net::SendFrame(client.fd(), static_cast<uint8_t>(MsgType::kPredictRequest),
                             std::string(2, '\x7f'), "test:send")
                  .ok());
  net::Inbox inbox(kReplies);
  net::FrameView reply;
  Status received = inbox.Recv(client.fd(), &reply);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::kErrorResponse));
  EXPECT_EQ(net::DecodeErrorStatus(reply.payload).code(), StatusCode::kCorruption);

  // A CRC-valid predict whose vector violates the SparseVector invariants
  // (unsorted indices) is InvalidArgument, also without dropping the conn.
  net::PredictRequest bad;
  bad.examples.emplace_back();
  {
    std::ostringstream os(std::ios::binary);
    // count=1, nnz=2, indices {5, 3} (unsorted), values {1.0, 1.0}
    const uint32_t one = 1, nnz = 2, i0 = 5, i1 = 3;
    const float v = 1.0f;
    os.write(reinterpret_cast<const char*>(&one), 4);    // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    os.write(reinterpret_cast<const char*>(&nnz), 4);    // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    os.write(reinterpret_cast<const char*>(&i0), 4);     // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    os.write(reinterpret_cast<const char*>(&i1), 4);     // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    os.write(reinterpret_cast<const char*>(&v), 4);      // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    os.write(reinterpret_cast<const char*>(&v), 4);      // wms-lint: allow(checked-io): hand-assembled malformed payload under test
    ASSERT_TRUE(net::SendFrame(client.fd(),
                               static_cast<uint8_t>(MsgType::kPredictRequest),
                               std::move(os).str(), "test:send")
                    .ok());
  }
  received = inbox.Recv(client.fd(), &reply);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(reply.type, static_cast<uint8_t>(MsgType::kErrorResponse));
  EXPECT_EQ(net::DecodeErrorStatus(reply.payload).code(), StatusCode::kInvalidArgument);

  // Same connection, valid request: still serving.
  Result<net::TopKResponse> topk = client.TopK(4);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_GE(server->stats().requests_rejected, 2u);
}

TEST_F(NetTest, ClientKilledMidRequestLeavesOthersServing) {
  Learner learner = TrainedLearner(Method::kAwmSketch);
  const std::string path = UniqueSocket("chaos");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  options.io_timeout_ms = 2000;
  auto server = StartServer(learner, options);

  Result<ServingClient> a = ServingClient::ConnectUnix(path, 2000);
  Result<ServingClient> b = ServingClient::ConnectUnix(path, 2000);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<Example> queries = MakeStream(4, /*seed=*/3);

  // Client A dies mid-send: its request frame is torn on the wire.
  failpoint::Arm("net:client_send", failpoint::Action::kShortWrite, 1);
  Result<net::PredictResponse> torn = a.value().Predict(queries);
  EXPECT_FALSE(torn.ok());
  { ServingClient drop = std::move(a).value(); }  // close A's socket (EOF mid-frame)

  // Client B keeps being served by the same reader.
  Result<net::PredictResponse> fine = b.value().Predict(queries);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();

  // Server-side injected faults: the reader's recv path tears one
  // connection; the next connection must be unaffected.
  for (const failpoint::Action act :
       {failpoint::Action::kError, failpoint::Action::kShortWrite}) {
    Result<ServingClient> victim = ServingClient::ConnectUnix(path, 2000);
    ASSERT_TRUE(victim.ok());
    failpoint::Arm("net:recv", act, 1);
    (void)victim.value().TopK(4);  // fault fires on this request's bytes
    EXPECT_TRUE(DrainUntilEof(victim.value().fd()));
    Result<net::PredictResponse> alive = b.value().Predict(queries);
    ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  }

  // Injected send fault: the response write fails, the victim is dropped,
  // the neighbor still serves.
  {
    Result<ServingClient> victim = ServingClient::ConnectUnix(path, 2000);
    ASSERT_TRUE(victim.ok());
    failpoint::Arm("net:send", failpoint::Action::kError, 1);
    Result<net::TopKResponse> lost = victim.value().TopK(4);
    EXPECT_FALSE(lost.ok());
    Result<net::PredictResponse> alive = b.value().Predict(queries);
    ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  }
}

// ------------------------------------------------- version-keyed K cache

TEST_F(NetTest, TopKCacheHitsAreIdenticalAndInvalidateOncePerPublish) {
  Learner learner = TrainedLearner(Method::kAwmSketch);
  const std::string path = UniqueSocket("cache");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path);
  ASSERT_TRUE(connected.ok());
  ServingClient client = std::move(connected).value();
  Result<ServingHandle> direct = learner.AcquireServingHandle();
  ASSERT_TRUE(direct.ok());

  // Miss, then hit: identical bytes (decoded: identical version + entries),
  // and identical to a fresh ServingHandle::TopK of the same snapshot.
  Result<net::TopKResponse> first = client.TopK(8);
  ASSERT_TRUE(first.ok());
  Result<net::TopKResponse> second = client.TopK(8);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().version, second.value().version);
  EXPECT_EQ(first.value().entries, second.value().entries);
  EXPECT_EQ(first.value().entries, direct.value().TopK(8));
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.topk_cache_misses, 1u);
  EXPECT_EQ(stats.topk_cache_hits, 1u);
  EXPECT_EQ(stats.topk_cache_invalidations, 0u);

  // A different k under the same version is its own cache entry.
  Result<net::TopKResponse> other_k = client.TopK(4);
  ASSERT_TRUE(other_k.ok());
  stats = server->stats();
  EXPECT_EQ(stats.topk_cache_misses, 2u);

  // Publish: the version advances, the cache invalidates exactly once, and
  // the fresh response reflects the new snapshot.
  learner.UpdateBatch(MakeStream(500, /*seed=*/11));
  learner.PublishServingSnapshot();
  Result<net::TopKResponse> after = client.TopK(8);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().version, first.value().version);
  EXPECT_EQ(after.value().entries, direct.value().TopK(8));
  stats = server->stats();
  EXPECT_EQ(stats.topk_cache_invalidations, 1u);
  EXPECT_EQ(stats.topk_cache_misses, 3u);

  // And hits resume on the new version — no second invalidation.
  Result<net::TopKResponse> warm = client.TopK(8);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().entries, after.value().entries);
  stats = server->stats();
  EXPECT_EQ(stats.topk_cache_hits, 2u);
  EXPECT_EQ(stats.topk_cache_invalidations, 1u);
}

// ------------------------------------------------- micro-batch dispatch

TEST_F(NetTest, PipelinedRequestsCoalesceIntoOneBatchDispatch) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("batch");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  options.max_batch = 1024;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path);
  ASSERT_TRUE(connected.ok());
  ServingClient client = std::move(connected).value();

  // 16 predict requests written in ONE send: they arrive together, so the
  // reader's drain must coalesce them into a single PredictBatch dispatch.
  const std::vector<Example> queries = MakeStream(16, /*seed=*/21);
  std::string pipelined;
  for (const Example& ex : queries) {
    net::PredictRequest req;
    req.examples.push_back(ex);
    pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kPredictRequest),
                                  net::EncodePredictRequest(req));
  }
  ASSERT_EQ(::send(client.fd(), pipelined.data(), pipelined.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(pipelined.size()));

  Result<ServingHandle> direct = learner.AcquireServingHandle();
  ASSERT_TRUE(direct.ok());
  net::Inbox inbox(kReplies);
  for (size_t i = 0; i < queries.size(); ++i) {
    net::FrameView reply;
    const Status received = inbox.Recv(client.fd(), &reply);
    ASSERT_TRUE(received.ok()) << received.ToString();
    ASSERT_EQ(reply.type, static_cast<uint8_t>(MsgType::kPredictResponse));
    Result<net::PredictResponse> resp = net::DecodePredictResponse(reply.payload);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.value().margins.size(), 1u);
    // Bit-identical to the direct (unbatched) serving read.
    EXPECT_EQ(resp.value().margins[0], direct.value().PredictMargin(queries[i].x));
  }

  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.requests_batched, queries.size());
  // All 16 arrived in one chunk; allow a little slack for an unlucky epoll
  // wakeup splitting the burst, but the structure must be many-requests-
  // per-dispatch, not one-dispatch-each.
  EXPECT_LE(stats.batches_dispatched, 3u);
  EXPECT_GE(stats.max_coalesced, 8u);
}

TEST_F(NetTest, MixedPipelinePreservesPerConnectionOrder) {
  Learner learner = TrainedLearner(Method::kAwmSketch);
  const std::string path = UniqueSocket("mixed");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path);
  ASSERT_TRUE(connected.ok());
  ServingClient client = std::move(connected).value();

  // predict, top-k, estimate, model-info pipelined in one write: responses
  // must come back in exactly that order.
  const std::vector<Example> queries = MakeStream(4, /*seed=*/31);
  const std::vector<uint32_t> features = FeatureIds(4, /*seed=*/32);
  net::PredictRequest preq;
  preq.examples = queries;
  net::EstimateRequest ereq;
  ereq.features = features;
  std::string pipelined;
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kPredictRequest),
                                net::EncodePredictRequest(preq));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kTopKRequest),
                                net::EncodeTopKRequest(net::TopKRequest{4}));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kEstimateRequest),
                                net::EncodeEstimateRequest(ereq));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kModelInfoRequest), "");
  ASSERT_EQ(::send(client.fd(), pipelined.data(), pipelined.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(pipelined.size()));

  const MsgType expected[] = {MsgType::kPredictResponse, MsgType::kTopKResponse,
                              MsgType::kEstimateResponse, MsgType::kModelInfoResponse};
  net::Inbox inbox(kReplies);
  for (const MsgType want : expected) {
    net::FrameView reply;
    const Status received = inbox.Recv(client.fd(), &reply);
    ASSERT_TRUE(received.ok()) << received.ToString();
    EXPECT_EQ(reply.type, static_cast<uint8_t>(want));
  }
}

// A client that pipelines more requests than one dispatch round takes (the
// max_batch size cut) and then half-closes its socket still gets every
// reply: complete frames left behind the cut are served in the next rounds,
// and only then does the EOF count as a clean close. Each connection sends
// its frames and its FIN back to back, so the reader almost always finds
// both in one drain; the scenario runs on several connections in turn.
TEST_F(NetTest, HalfClosedPipelineIsServedPastTheSizeCut) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("halfclose");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  options.max_batch = 4;
  auto server = StartServer(learner, options);

  const std::vector<Example> queries = MakeStream(20, /*seed=*/51);
  std::string pipelined;
  for (const Example& ex : queries) {
    net::PredictRequest req;
    req.examples.push_back(ex);
    pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kPredictRequest),
                                  net::EncodePredictRequest(req));
  }
  Result<ServingHandle> direct = learner.AcquireServingHandle();
  ASSERT_TRUE(direct.ok());

  constexpr int kConnections = 5;
  for (int c = 0; c < kConnections; ++c) {
    Result<ServingClient> connected = ServingClient::ConnectUnix(path);
    ASSERT_TRUE(connected.ok());
    ServingClient client = std::move(connected).value();
    ASSERT_TRUE(net::WriteAll(client.fd(), pipelined.data(), pipelined.size()).ok());
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);

    net::Inbox inbox(kReplies);
    for (size_t i = 0; i < queries.size(); ++i) {
      net::FrameView reply;
      const Status received = inbox.Recv(client.fd(), &reply);
      ASSERT_TRUE(received.ok()) << "connection " << c << ", reply " << i << " of "
                                 << queries.size() << ": " << received.ToString();
      ASSERT_EQ(reply.type, static_cast<uint8_t>(MsgType::kPredictResponse));
      Result<net::PredictResponse> resp = net::DecodePredictResponse(reply.payload);
      ASSERT_TRUE(resp.ok());
      ASSERT_EQ(resp.value().margins.size(), 1u);
      EXPECT_EQ(resp.value().margins[0], direct.value().PredictMargin(queries[i].x));
    }
    EXPECT_TRUE(DrainUntilEof(client.fd()));  // then a clean close
  }
  EXPECT_EQ(server->stats().frames_corrupt, 0u);
}

// One pin per dispatch round: while a writer publishes continuously, a
// connection that pipelines [estimate, predict, top-K, model-info] must
// never get a reply older than one it already got. Replies go out in
// arrival order, so a round that pinned once per request kind (predict
// first, then estimate) answered the estimate before it from a newer
// snapshot than the predict after it.
TEST_F(NetTest, PipelinedVersionsNeverStepBackWhileTheWriterPublishes) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("onepin");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path);
  ASSERT_TRUE(connected.ok());
  ServingClient client = std::move(connected).value();

  // A wide predict keeps its dispatch long enough for publishes to land
  // inside a round.
  net::EstimateRequest ereq;
  ereq.features = FeatureIds(64, /*seed=*/42);
  net::PredictRequest preq;
  preq.examples = MakeStream(64, /*seed=*/41);
  std::string pipelined;
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kEstimateRequest),
                                net::EncodeEstimateRequest(ereq));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kPredictRequest),
                                net::EncodePredictRequest(preq));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kTopKRequest),
                                net::EncodeTopKRequest(net::TopKRequest{8}));
  pipelined += net::EncodeFrame(static_cast<uint8_t>(MsgType::kModelInfoRequest), "");

  std::atomic<bool> stop{false};
  std::thread writer([&learner, &stop] {
    const std::vector<Example> stream = MakeStream(512, /*seed=*/43);
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      learner.Update(stream[i % stream.size()]);
      learner.PublishServingSnapshot();
    }
  });
  // Joins the writer on every exit, a failed assertion's early return too.
  struct JoinWriter {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinWriter() {
      stop.store(true, std::memory_order_relaxed);
      thread.join();
    }
  } join_writer{stop, writer};

  constexpr int kRounds = 2000;
  net::Inbox inbox(kReplies);
  uint64_t first = 0;
  uint64_t newest = 0;
  int step_backs = 0;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(net::WriteAll(client.fd(), pipelined.data(), pipelined.size()).ok());
    for (int reply = 0; reply < 4; ++reply) {
      net::FrameView frame;
      const Status received = inbox.Recv(client.fd(), &frame);
      ASSERT_TRUE(received.ok()) << received.ToString();
      const std::string_view payload = frame.payload;
      uint64_t version = 0;
      switch (static_cast<MsgType>(frame.type)) {
        case MsgType::kEstimateResponse:
          version = net::DecodeEstimateResponse(payload).value().version;
          break;
        case MsgType::kPredictResponse:
          version = net::DecodePredictResponse(payload).value().version;
          break;
        case MsgType::kTopKResponse:
          version = net::DecodeTopKResponse(payload).value().version;
          break;
        case MsgType::kModelInfoResponse:
          version = net::DecodeModelInfoResponse(payload).value().snapshot_version;
          break;
        default:
          FAIL() << "unexpected reply type " << int{frame.type};
      }
      if (first == 0) first = version;
      if (version < newest) ++step_backs;
      newest = std::max(newest, version);
    }
  }
  EXPECT_EQ(step_backs, 0) << "replies older than one already received, over "
                           << kRounds << " rounds";
  EXPECT_GT(newest, first);  // the writer published while the rounds ran
}

// ------------------------------------------------------------- lifecycle

// CPU time of the whole process so far, in milliseconds.
double ProcessCpuMs() {
  timespec ts{};
  EXPECT_EQ(::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

TEST_F(NetTest, ConnectionBurstPastTheDescriptorLimitNeitherSpinsNorStopsServing) {
  // A burst of connections the process has no descriptors for: the
  // acceptor sheds what it cannot take instead of leaving it in the backlog,
  // where it would keep the listener readable and the acceptor spinning.
  // While this thread sleeps, the daemon's idle threads are all that can
  // spend CPU, so the process's CPU over 200 ms is theirs. The burst's
  // sockets exist before the limit is lowered, so connecting them takes no
  // descriptor of this process's.
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("burst");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 1;
  auto server = StartServer(learner, options);
  Result<ServingClient> connected = ServingClient::ConnectUnix(path, 2000);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ServingClient client = std::move(connected).value();
  ASSERT_TRUE(client.TopK(4).ok());

  const descriptors::Sockets burst(48);
  double busy_ms = 0.0;
  {
    descriptors::DescriptorLimit limit(/*spare=*/2);
    burst.ConnectAll(path);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double before = ProcessCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    busy_ms = ProcessCpuMs() - before;
    Result<net::TopKResponse> topk = client.TopK(4);
    EXPECT_TRUE(topk.ok()) << topk.status().ToString();
  }
  EXPECT_LT(busy_ms, 10.0);
  Result<net::TopKResponse> topk = client.TopK(4);
  EXPECT_TRUE(topk.ok()) << topk.status().ToString();
}

TEST_F(NetTest, ShutdownFrameStopsTheDaemon) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  const std::string path = UniqueSocket("shutdown");
  ServerOptions options;
  options.unix_path = path;
  options.readers = 2;
  auto server = StartServer(learner, options);

  Result<ServingClient> connected = ServingClient::ConnectUnix(path);
  ASSERT_TRUE(connected.ok());
  ASSERT_TRUE(connected.value().Shutdown().ok());
  server->WaitForShutdown();  // returns because the ack already landed
  server->Stop();
  // After Stop the socket is gone: new connections must fail.
  EXPECT_FALSE(ServingClient::ConnectUnix(path).ok());
}

TEST_F(NetTest, StartValidatesOptions) {
  Learner learner = TrainedLearner(Method::kWmSketch);
  ServerOptions no_listener;
  no_listener.readers = 1;
  EXPECT_EQ(ServingServer::Start(no_listener,
                                 [&] { return learner.AcquireServingHandle(); })
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ServerOptions no_readers;
  no_readers.unix_path = UniqueSocket("invalid");
  no_readers.readers = 0;
  EXPECT_EQ(ServingServer::Start(no_readers,
                                 [&] { return learner.AcquireServingHandle(); })
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wmsketch

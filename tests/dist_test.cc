// Tests for the distributed training tier (src/dist/ + core/delta_io):
// chained dirty-page deltas reproduce the sender byte-for-byte in place, a
// truncated or structurally corrupt delta leaves the replica untouched, the
// merge handshake rejects every incompatible identity dimension with zero
// aggregator mutation, CRC-corrupt frames drop the connection without
// touching state,
// a multi-worker merge is byte-identical to the sequential reference, and an
// aggregator restart forces a reconnect + re-handshake + full resync.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/delta_io.h"
#include "core/snapshot_io.h"
#include "datagen/classification_gen.h"
#include "dist/aggregator.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

namespace fs = std::filesystem;
using dist::Aggregator;
using dist::AggregatorOptions;
using dist::SyncClient;
using dist::SyncClientOptions;

LearnerOptions Opts() {
  LearnerOptions opts;
  opts.lambda = 1e-4;
  opts.rate = LearningRate::Constant(0.2);
  opts.seed = 42;
  return opts;
}

LearnerBuilder Builder(Method method = Method::kAwmSketch) {
  return LearnerBuilder()
      .SetMethod(method)
      .SetBudgetBytes(KiB(2))
      .SetLambda(1e-4)
      .SetLearningRate(LearningRate::Constant(0.2))
      .SetSeed(42);
}

// A builder pinned to an explicit shape (SetConfig conflicts with the
// budget-planned Builder() above, so these start from scratch).
LearnerBuilder FromConfig(const BudgetConfig& config) {
  return LearnerBuilder()
      .SetConfig(config)
      .SetLambda(1e-4)
      .SetLearningRate(LearningRate::Constant(0.2))
      .SetSeed(42);
}

void Train(Learner& learner, int examples, uint64_t seed) {
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), seed);
  std::vector<Example> stream;
  stream.reserve(examples);
  for (int i = 0; i < examples; ++i) stream.push_back(gen.Next());
  learner.UpdateBatch(stream);
}

std::string Bytes(Method method, const BudgetedClassifier& impl) {
  std::ostringstream buffer(std::ios::binary);
  EXPECT_TRUE(SaveClassifier(method, impl, buffer).ok());
  return std::move(buffer).str();
}

// Unix socket paths are capped at ~107 bytes, so keep them short and unique.
std::string UniqueSocket(const std::string& name) {
  const std::string path = "/tmp/wms_dist_" + name + "_" + std::to_string(::getpid());
  ::unlink(path.c_str());
  return path;
}

std::string UniqueDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "wms_dist_" + name;
  fs::remove_all(dir);
  return dir;
}

// An aggregator served from a background thread; all assertions on the
// aggregator happen after Stop() joins the serving thread.
class ServingAggregator {
 public:
  ServingAggregator(const AggregatorOptions& options, const std::string& socket_path)
      : path_(socket_path) {
    Result<Aggregator> created = Aggregator::Create(options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    if (!created.ok()) return;
    agg_.emplace(std::move(created).value());
    EXPECT_TRUE(agg_->Bind(socket_path).ok());
    thread_ = std::thread([this] { serve_status_ = agg_->ServeUntilShutdown(); });
  }

  ~ServingAggregator() { Stop(); }

  // Sends kShutdown (via a throwaway client) and joins the serving thread.
  void Stop() {
    if (!thread_.joinable()) return;
    SyncClientOptions copts;
    copts.worker_id = 999;
    copts.socket_path = socket_path();
    SyncClient stopper(Method::kAwmSketch, copts);
    EXPECT_TRUE(stopper.SendShutdown().ok());
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  Aggregator& agg() { return *agg_; }
  const std::string& socket_path() const { return path_; }

 private:
  std::optional<Aggregator> agg_;
  std::thread thread_;
  std::string path_;
  Status serve_status_;
};

AggregatorOptions AggOpts(const BudgetConfig& config) {
  AggregatorOptions options;
  options.config = config;
  options.opts = Opts();
  options.io_timeout_ms = 5000;
  return options;
}

SyncClientOptions ClientOpts(uint64_t worker_id, const std::string& socket_path) {
  SyncClientOptions copts;
  copts.worker_id = worker_id;
  copts.socket_path = socket_path;
  copts.max_retries = 4;
  copts.base_backoff_ms = 5;
  copts.max_backoff_ms = 100;
  copts.io_timeout_ms = 5000;
  return copts;
}

class DistTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

// ---------------------------------------------------------- delta codec

TEST_F(DistTest, DeltaReproducesSenderByteForByte) {
  // Encode-then-apply of a WMD1 delta reproduces the sender byte for byte,
  // chained: 60 consecutive windows per method, each applied in place to
  // one replica, with window sizes mixing empty, single-example, one sync
  // interval and many-page windows.
  constexpr int kWindows = 60;
  constexpr int kWindowSizes[] = {0, 1, 16, 500};
  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    Result<Learner> built = Builder(method).Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Learner learner = std::move(built).value();
    // As SyncClient does: a window opened at construction covers the whole
    // history, so the replica starts from the freshly constructed state.
    Result<uint64_t> opened = BeginDeltaWindow(method, learner.impl());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    uint64_t since = opened.value();
    std::unique_ptr<BudgetedClassifier> replica = learner.impl().Clone();
    std::mt19937 rng(5);
    std::string payload;
    for (int w = 0; w < kWindows; ++w) {
      const int examples = kWindowSizes[rng() % 4];
      if (examples > 0) Train(learner, examples, 1000 + w);
      Result<uint64_t> next = BeginDeltaWindow(method, learner.impl());
      ASSERT_TRUE(next.ok());
      payload.clear();
      DeltaStats stats;
      ASSERT_TRUE(SaveDelta(method, learner.impl(), since, &payload, &stats).ok());
      EXPECT_LE(stats.pages_shipped, stats.pages_total);
      if (examples == 0) {
        EXPECT_EQ(stats.pages_shipped, 0u) << "window " << w;
      }
      const Status st = ApplyDelta(method, *replica, payload);
      ASSERT_TRUE(st.ok()) << MethodName(method) << " window " << w << ": " << st.ToString();
      ASSERT_EQ(Bytes(method, *replica), Bytes(method, learner.impl()))
          << MethodName(method) << " window " << w << " (" << examples << " examples)";
      since = next.value();
    }
  }
}

TEST_F(DistTest, SecondWindowShipsOnlyDirtyPages) {
  // A wide depth-1 sketch spans many pages; a single extra example after the
  // first sync dirties only a handful of them.
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(16384)
                              .SetDepth(1)
                              .SetHeapCapacity(64)
                              .SetLambda(1e-4)
                              .SetLearningRate(LearningRate::Constant(0.2))
                              .SetSeed(42)
                              .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  Train(learner, 500, 3);

  Result<uint64_t> window = BeginDeltaWindow(learner.method(), learner.impl());
  ASSERT_TRUE(window.ok());
  Train(learner, 1, 5);

  std::string delta;
  DeltaStats stats;
  ASSERT_TRUE(
      SaveDelta(learner.method(), learner.impl(), window.value(), &delta, &stats).ok());
  EXPECT_GT(stats.pages_total, 8u);
  EXPECT_GT(stats.pages_shipped, 0u);
  EXPECT_LT(stats.pages_shipped, stats.pages_total / 2)
      << "one example should dirty a small fraction of a 16K-cell table";
}

// A learner trained past a delta window, the replica captured at the
// window's watermark, and the delta that carries the replica to the learner.
struct DeltaFixture {
  Learner learner;
  std::unique_ptr<BudgetedClassifier> replica;
  std::string payload;
};

DeltaFixture MakeDelta(Method method) {
  Result<Learner> built = Builder(method).Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  DeltaFixture f{std::move(built).value(), nullptr, {}};
  Train(f.learner, 200, 7);
  Result<uint64_t> window = BeginDeltaWindow(method, f.learner.impl());
  EXPECT_TRUE(window.ok());
  f.replica = f.learner.impl().Clone();
  Train(f.learner, 100, 13);
  EXPECT_TRUE(SaveDelta(method, f.learner.impl(), window.value(), &f.payload, nullptr).ok());
  return f;
}

TEST_F(DistTest, TruncatedDeltaLeavesReplicaUntouched) {
  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    DeltaFixture f = MakeDelta(method);
    const std::string before = Bytes(method, *f.replica);
    // Every proper prefix must be rejected as Corruption with the replica
    // byte-identical to before: the apply validates before it writes.
    for (size_t keep = 0; keep < f.payload.size(); ++keep) {
      const Status st =
          ApplyDelta(method, *f.replica, std::string_view(f.payload).substr(0, keep));
      ASSERT_EQ(st.code(), StatusCode::kCorruption) << MethodName(method) << " keep=" << keep;
      ASSERT_EQ(Bytes(method, *f.replica), before) << MethodName(method) << " keep=" << keep;
    }
    ASSERT_TRUE(ApplyDelta(method, *f.replica, f.payload).ok());
    EXPECT_EQ(Bytes(method, *f.replica), Bytes(method, f.learner.impl())) << MethodName(method);
  }
}

template <typename T>
T Peek(const std::string& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Poke(std::string& bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

TEST_F(DistTest, StructurallyCorruptDeltaLeavesReplicaUntouched) {
  // CRC-valid faults: the frame checksum would pass, so only the apply's own
  // validation stands between these payloads and the replica. The faults sit
  // late in their section where they can, so an apply that wrote as it
  // parsed would already have touched the replica.
  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    DeltaFixture f = MakeDelta(method);
    const std::string before = Bytes(method, *f.replica);
    const std::string& good = f.payload;

    // WMD1 layout: magic u32, method u8, step u64, one (WM) or two (AWM) f64
    // scales; heap: u64 count + (u32, f32) pairs; table: u64 cells, u32 page
    // cells, u64 pages, u64 shipped, then (u64 index, cells) records.
    const size_t heap_at = 4 + 1 + 8 + (method == Method::kAwmSketch ? 16 : 8);
    const uint64_t heap_n = Peek<uint64_t>(good, heap_at);
    const size_t table_at = heap_at + 8 + 8 * heap_n;
    const uint64_t cells = Peek<uint64_t>(good, table_at);
    const uint32_t page_cells = Peek<uint32_t>(good, table_at + 8);
    const uint64_t num_pages = Peek<uint64_t>(good, table_at + 12);
    const uint64_t shipped = Peek<uint64_t>(good, table_at + 20);
    const size_t record_bytes = 8 + 4 * size_t{page_cells};
    const size_t last_record = table_at + 28 + (shipped - 1) * record_bytes;
    const uint64_t prev_index = Peek<uint64_t>(good, last_record - record_bytes);
    ASSERT_GE(heap_n, 2u) << MethodName(method);
    ASSERT_GE(shipped, 3u) << MethodName(method);
    ASSERT_EQ(table_at + 28 + shipped * record_bytes, good.size()) << MethodName(method);

    struct Fault {
      const char* what;
      std::function<void(std::string&)> apply;
    };
    const Method other = method == Method::kWmSketch ? Method::kAwmSketch : Method::kWmSketch;
    const std::vector<Fault> faults = {
        {"wrong magic",
         [](std::string& b) { Poke<uint32_t>(b, 0, Peek<uint32_t>(b, 0) ^ 1u); }},
        {"wrong method tag",
         [other](std::string& b) { Poke<uint8_t>(b, 4, static_cast<uint8_t>(other)); }},
        {"heap count > capacity",
         [&](std::string& b) {
           Poke<uint64_t>(b, heap_at, f.learner.config().heap_capacity + 1);
         }},
        {"duplicate heap feature",
         [&](std::string& b) {
           Poke<uint32_t>(b, heap_at + 8 + 8 * (heap_n - 1), Peek<uint32_t>(b, heap_at + 8));
         }},
        {"wrong cell count", [&](std::string& b) { Poke<uint64_t>(b, table_at, cells + 1); }},
        {"wrong page size",
         [&](std::string& b) { Poke<uint32_t>(b, table_at + 8, page_cells * 2); }},
        {"wrong page count",
         [&](std::string& b) { Poke<uint64_t>(b, table_at + 12, num_pages + 1); }},
        {"shipped count > page count",
         [&](std::string& b) { Poke<uint64_t>(b, table_at + 20, num_pages + 1); }},
        {"page index >= page count",
         [&](std::string& b) { Poke<uint64_t>(b, last_record, num_pages); }},
        {"repeated page index",
         [&](std::string& b) { Poke<uint64_t>(b, last_record, prev_index); }},
        {"decreasing page index",
         [&](std::string& b) { Poke<uint64_t>(b, last_record, prev_index - 1); }},
    };
    for (const Fault& fault : faults) {
      std::string bad = good;
      fault.apply(bad);
      ASSERT_NE(bad, good) << fault.what;
      const Status st = ApplyDelta(method, *f.replica, bad);
      EXPECT_EQ(st.code(), StatusCode::kCorruption)
          << MethodName(method) << ", " << fault.what << ": " << st.ToString();
      EXPECT_EQ(Bytes(method, *f.replica), before) << MethodName(method) << ", " << fault.what;
    }
    ASSERT_TRUE(ApplyDelta(method, *f.replica, good).ok());
    EXPECT_EQ(Bytes(method, *f.replica), Bytes(method, f.learner.impl())) << MethodName(method);
  }
}

// ------------------------------------------------- handshake & rejection

TEST_F(DistTest, HandshakeRejectsEveryIncompatibleIdentityDimension) {
  Result<Learner> ref = Builder().Build();
  ASSERT_TRUE(ref.ok());
  const std::string path = UniqueSocket("reject");
  ServingAggregator serving(AggOpts(ref.value().config()), path);
  
  struct Case {
    const char* what;
    LearnerBuilder builder;
  };
  const BudgetConfig base = ref.value().config();
  BudgetConfig wider = base;
  wider.width = base.width * 2;
  BudgetConfig bigger_heap = base;
  bigger_heap.heap_capacity = base.heap_capacity * 2;
  std::vector<Case> cases;
  cases.push_back({"different seed", Builder().SetSeed(43)});
  cases.push_back({"different width", FromConfig(wider)});
  cases.push_back({"different heap capacity", FromConfig(bigger_heap)});
  cases.push_back({"different method", Builder(Method::kWmSketch)});
  cases.push_back(
      {"different rate kind", Builder().SetLearningRate(LearningRate::InverseSqrt(0.2))});
  cases.push_back(
      {"different eta0", Builder().SetLearningRate(LearningRate::Constant(0.5))});
  cases.push_back({"different lambda", Builder().SetLambda(1e-2)});

  for (Case& c : cases) {
    Result<Learner> worker = c.builder.Build();
    ASSERT_TRUE(worker.ok()) << c.what << ": " << worker.status().ToString();
    SyncClient client(worker.value().method(), ClientOpts(7, path));
    const Status st = client.Connect(worker.value().impl());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what << ": " << st.ToString();
    EXPECT_NE(st.message().find("remote: "), std::string::npos) << c.what;
    // An identity rejection is final: the bounded retry budget must not be
    // spent re-presenting an identity that can never match.
    EXPECT_EQ(client.stats().retries, 0u) << c.what;
  }

  serving.Stop();
  // No rejected worker may have registered or contributed state.
  EXPECT_EQ(serving.agg().worker_count(), 0u);
  EXPECT_EQ(serving.agg().replica_count(), 0u);
}

TEST_F(DistTest, CorruptFrameDropsConnectionWithoutMutation) {
  Result<Learner> ref = Builder().Build();
  ASSERT_TRUE(ref.ok());
  const std::string path = UniqueSocket("corrupt");
  ServingAggregator serving(AggOpts(ref.value().config()), path);
  
  // Hand-assemble a hello frame whose payload is bit-flipped *after* the
  // CRC was computed: the aggregator must reject it at the frame layer and
  // drop the connection before any protocol handling runs.
  dist::HelloPayload hello;
  hello.worker_id = 5;
  Result<MergeIdentity> id = MergeIdentityOf(ref.value().method(), ref.value().impl());
  ASSERT_TRUE(id.ok());
  hello.identity = id.value();
  const std::string payload = EncodeHello(hello);

  std::string frame;
  frame.push_back(static_cast<char>(dist::FrameType::kHello));
  char header[16];
  const uint32_t magic = snapshot::kEnvelopeMagic;
  const uint32_t version = snapshot::kEnvelopeVersion;
  const uint64_t length = payload.size();
  std::memcpy(header + 0, &magic, sizeof(magic));
  std::memcpy(header + 4, &version, sizeof(version));
  std::memcpy(header + 8, &length, sizeof(length));
  frame.append(header, sizeof(header));
  const uint32_t crc = crc32c::Extend(crc32c::Value(header, sizeof(header)),
                                      payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload);
  frame[frame.size() - 1] ^= 0x40;  // corrupt the payload, CRC now lies

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  // The aggregator answers a corrupt frame by closing, never by replying.
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);

  serving.Stop();
  EXPECT_EQ(serving.agg().worker_count(), 0u);
  EXPECT_EQ(serving.agg().replica_count(), 0u);
}

TEST_F(DistTest, SyncBeforeHandshakeIsRejected) {
  Result<Learner> ref = Builder().Build();
  ASSERT_TRUE(ref.ok());
  const std::string path = UniqueSocket("nohello");
  ServingAggregator serving(AggOpts(ref.value().config()), path);
  
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  dist::SyncHeader header;
  header.worker_id = 9;
  header.session_token = 1;
  header.sync_seq = 1;
  std::string payload;
  dist::EncodeSyncHeader(header, &payload);
  payload += "junk";
  ASSERT_TRUE(dist::SendFrame(fd, dist::FrameType::kDelta, payload).ok());
  Result<dist::Frame> reply = dist::RecvFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, dist::FrameType::kError);
  const Status st = dist::DecodeErrorStatus(reply.value().payload);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ::close(fd);

  serving.Stop();
  EXPECT_EQ(serving.agg().worker_count(), 0u);
}

// ------------------------------------------------------- merge identity

TEST_F(DistTest, TwoWorkerMergeMatchesSequentialReference) {
  Result<Learner> built1 = Builder().Build();
  Result<Learner> built2 = Builder().Build();
  ASSERT_TRUE(built1.ok() && built2.ok());
  Learner w1 = std::move(built1).value();
  Learner w2 = std::move(built2).value();
  Train(w1, 300, 17);
  Train(w2, 250, 23);

  const std::string path = UniqueSocket("merge");
  ServingAggregator serving(AggOpts(w1.config()), path);
  
  SyncClient c1(w1.method(), ClientOpts(1, path));
  SyncClient c2(w2.method(), ClientOpts(2, path));
  ASSERT_TRUE(c1.Connect(w1.impl()).ok());
  ASSERT_TRUE(c1.Sync(w1.impl()).ok());  // full snapshot
  ASSERT_TRUE(c2.Connect(w2.impl()).ok());
  ASSERT_TRUE(c2.Sync(w2.impl()).ok());

  // Second sync from worker 1 travels as a dirty-page delta.
  Train(w1, 150, 29);
  ASSERT_TRUE(c1.Sync(w1.impl()).ok());
  EXPECT_EQ(c1.stats().full_syncs, 1u);
  EXPECT_EQ(c1.stats().delta_syncs, 1u);
  EXPECT_GT(c1.stats().last_pages_total, 0u);

  Result<std::string> merged = c1.FetchMergedBytes();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // Sequential reference: merge the two live models in worker-id order.
  std::unique_ptr<BudgetedClassifier> reference = w1.impl().Clone();
  ASSERT_TRUE(reference->Merge(w2.impl()).ok());
  EXPECT_EQ(merged.value(), Bytes(w1.method(), *reference))
      << "aggregator merge must be byte-identical to the sequential merge";

  serving.Stop();
  EXPECT_EQ(serving.agg().worker_count(), 2u);
  EXPECT_EQ(serving.agg().replica_count(), 2u);
}

TEST_F(DistTest, FetchMergedWithoutAnySyncIsNotFound) {
  Result<Learner> ref = Builder().Build();
  ASSERT_TRUE(ref.ok());
  const std::string path = UniqueSocket("empty");
  ServingAggregator serving(AggOpts(ref.value().config()), path);
  
  SyncClient client(ref.value().method(), ClientOpts(1, path));
  Result<std::string> merged = client.FetchMergedBytes();
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
  serving.Stop();
}

// ------------------------------------------------- restart & resync

TEST_F(DistTest, AggregatorRestartForcesReconnectAndFullResync) {
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 200, 31);

  const std::string path = UniqueSocket("restart");
  SyncClient client(model.method(), ClientOpts(1, path));

  {
    ServingAggregator first(AggOpts(model.config()), path);
        ASSERT_TRUE(client.Connect(model.impl()).ok());
    ASSERT_TRUE(client.Sync(model.impl()).ok());
    Train(model, 100, 37);
    ASSERT_TRUE(client.Sync(model.impl()).ok());
    EXPECT_EQ(client.stats().full_syncs, 1u);
    EXPECT_EQ(client.stats().delta_syncs, 1u);
    first.Stop();
  }  // first aggregator destroyed: its session token is gone for good

  ServingAggregator second(AggOpts(model.config()), path);
    Train(model, 100, 41);
  // The client still holds the dead connection and the old session token;
  // Sync must ride the retry loop through reconnect, re-handshake with
  // resume_ok=0, and a full resync — no delta may land on the new
  // aggregator's nonexistent baseline.
  ASSERT_TRUE(client.Sync(model.impl()).ok());
  EXPECT_EQ(client.stats().full_syncs, 2u);
  EXPECT_GE(client.stats().reconnects, 2u);

  Result<std::string> merged = client.FetchMergedBytes();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), Bytes(model.method(), model.impl()));
  second.Stop();
  EXPECT_EQ(second.agg().replica_count(), 1u);
}

TEST_F(DistTest, InjectedMergeApplyFailureRetriesWithFullSnapshot) {
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 200, 43);

  const std::string path = UniqueSocket("mergefail");
  ServingAggregator serving(AggOpts(model.config()), path);
  
  SyncClient client(model.method(), ClientOpts(1, path));
  ASSERT_TRUE(client.Connect(model.impl()).ok());
  ASSERT_TRUE(client.Sync(model.impl()).ok());

  Train(model, 100, 47);
  // The aggregator rejects the next apply once; the client must absorb the
  // failure inside its retry budget and land the state anyway.
  failpoint::Arm("dist:merge_apply", failpoint::Action::kError, 1);
  ASSERT_TRUE(client.Sync(model.impl()).ok());
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().full_syncs, 2u)
      << "a rejected apply voids the delta baseline; the retry must be full";

  Result<std::string> merged = client.FetchMergedBytes();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), Bytes(model.method(), model.impl()));
  serving.Stop();
}

// ------------------------------------------------- checkpoint baseline

TEST_F(DistTest, CheckpointedMergeRecoversAsBaselineAndReportsSkips) {
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 300, 53);

  const std::string dir = UniqueDir("ckpt");
  AggregatorOptions options = AggOpts(model.config());
  options.checkpoint_dir = dir;

  std::string merged_before;
  {
    const std::string path = UniqueSocket("ckpt1");
    ServingAggregator serving(options, path);
        SyncClient client(model.method(), ClientOpts(1, path));
    ASSERT_TRUE(client.Connect(model.impl()).ok());
    ASSERT_TRUE(client.Sync(model.impl()).ok());
    Result<std::string> merged = client.FetchMergedBytes();
    ASSERT_TRUE(merged.ok());
    merged_before = merged.value();
    serving.Stop();
    ASSERT_TRUE(serving.agg().CheckpointMerged().ok());
  }

  // Plant a corrupt checkpoint above the valid one: recovery must skip it,
  // report it, and still restore the real baseline.
  {
    std::ofstream junk(dir + "/ckpt-9.wms", std::ios::binary);
    junk << "not a checkpoint";
  }

  Result<Aggregator> recovered = Aggregator::Create(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().has_baseline());
  ASSERT_EQ(recovered.value().recovery_skipped().size(), 1u);
  EXPECT_NE(recovered.value().recovery_skipped()[0].find("ckpt-9.wms"), std::string::npos);
  // With no worker synced yet, the baseline *is* the served answer.
  Result<std::string> served = recovered.value().MergedModelBytes();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value(), merged_before);
}

}  // namespace
}  // namespace wmsketch

// Tests for the distributed training tier (src/dist/ + core/delta_io):
// chained written-cell deltas reproduce the sender byte-for-byte in place
// through every table write path, a truncated, structurally corrupt or
// randomly mutated delta leaves the replica untouched, every dist decoder
// survives seeded mutation, resident bytes count the cell record and the
// heap index, the
// merge handshake rejects every incompatible identity dimension with zero
// aggregator mutation, CRC-corrupt frames drop the connection without
// touching state, a peer stalled mid-frame neither slows the other workers
// nor outlives its frame deadline, an idle aggregator does not spin, a
// burst of connections past the descriptor limit is shed without ending
// the aggregator's loop,
// a multi-worker merge is byte-identical to the sequential reference, and an
// aggregator restart forces a reconnect + re-handshake + full resync.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <ctime>
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
#include "net/socket.h"
#include "net/wire.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/memory_cost.h"
#include "util/paged_table.h"

#include "descriptor_limit.h"
#include "mutation_fuzz.h"

namespace wmsketch {
namespace {

namespace fs = std::filesystem;
using dist::Aggregator;
using dist::AggregatorOptions;
using dist::SyncClient;
using dist::SyncClientOptions;
using fuzz::FuzzTarget;
using fuzz::Mutate;

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
    thread_ = std::thread([this] {
      serve_status_ = agg_->ServeUntilShutdown();
      returned_ = true;
    });
  }

  ~ServingAggregator() { Stop(); }

  // Sends kShutdown (via a throwaway client) unless the loop has already
  // returned, and joins the serving thread.
  void Stop() {
    if (!thread_.joinable()) return;
    if (!returned_) {
      SyncClientOptions copts;
      copts.worker_id = 999;
      copts.socket_path = socket_path();
      SyncClient stopper(Method::kAwmSketch, copts);
      EXPECT_TRUE(stopper.SendShutdown().ok());
    }
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  }

  Aggregator& agg() { return *agg_; }
  const std::string& socket_path() const { return path_; }
  // True once the serving loop has returned, asked to or not.
  bool returned() const { return returned_; }
  // The serving thread's CPU time so far, in milliseconds.
  double ThreadCpuMs() {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      ADD_FAILURE() << "no CPU clock for the serving thread";
      return 0.0;
    }
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  }

 private:
  std::optional<Aggregator> agg_;
  std::thread thread_;
  std::string path_;
  Status serve_status_;
  std::atomic<bool> returned_{false};
};

AggregatorOptions AggOpts(const BudgetConfig& config) {
  AggregatorOptions options;
  options.config = config;
  options.opts = Opts();
  options.io_timeout_ms = 5000;
  return options;
}

// A bare connection to the aggregator at `path`, for peers that speak raw
// bytes; -1 on failure.
net::UniqueFd RawConnect(const std::string& path) {
  Result<net::UniqueFd> fd = net::DialUnix(path, 0);
  return fd.ok() ? std::move(fd).value() : net::UniqueFd();
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

// True iff some feature of `before` is missing from `after`: on an AWM
// active set, an eviction (whose fold-back writes the tail sketch through
// SketchAdd's direct MarkDirtyOffset).
bool SomeMemberLeft(const std::vector<FeatureWeight>& before,
                    const std::vector<FeatureWeight>& after) {
  for (const FeatureWeight& b : before) {
    bool kept = false;
    for (const FeatureWeight& a : after) kept = kept || a.feature == b.feature;
    if (!kept) return true;
  }
  return false;
}

TEST_F(DistTest, DeltaReproducesSenderByteForByte) {
  // Encode-then-apply of a WMD2 delta reproduces the sender byte for byte,
  // chained: 60 consecutive windows per method, each applied in place to
  // one replica. The window kinds reach the table through every marking
  // call: training windows of 0, 1, 16 and 500 examples (MarkPlanDirty's
  // scatters, and on AWM the evictions' fold-backs through SketchAdd's
  // MarkDirtyOffset) and a table-wide sweep, a merge of a second learner
  // (MarkAllDirty).
  constexpr int kWindows = 60;
  constexpr int kSweep = -1;
  constexpr int kWindowKinds[] = {0, 1, 16, 500, kSweep};
  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    Result<Learner> built = Builder(method).Build();
    Result<Learner> other = Builder(method).Build();
    ASSERT_TRUE(built.ok() && other.ok()) << built.status().ToString();
    Learner learner = std::move(built).value();
    Train(other.value(), 300, 99);
    const size_t cells = size_t{learner.config().width} * learner.config().depth;
    const size_t capacity = learner.config().heap_capacity;
    // As SyncClient does at its first ack: the replica matches the model and
    // the window opens.
    std::unique_ptr<BudgetedClassifier> replica = learner.impl().Clone();
    ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());
    std::mt19937 rng(5);
    std::string payload;
    int sweeps = 0, evicting = 0;
    for (int w = 0; w < kWindows; ++w) {
      const int kind = kWindowKinds[rng() % 5];
      const std::vector<FeatureWeight> members = learner.impl().TopK(capacity);
      if (kind == kSweep) {
        ASSERT_TRUE(learner.impl().Merge(other.value().impl()).ok());
        ++sweeps;
      } else if (kind > 0) {
        Train(learner, kind, 1000 + w);
        if (SomeMemberLeft(members, learner.impl().TopK(capacity))) ++evicting;
      }
      payload.clear();
      DeltaStats stats;
      ASSERT_TRUE(SaveDelta(method, learner.impl(), &payload, &stats).ok());
      EXPECT_LE(stats.pages_shipped, stats.pages_total);
      EXPECT_LE(stats.pages_shipped, stats.cells_shipped);
      if (kind == 0) {
        EXPECT_EQ(stats.cells_shipped, 0u) << "window " << w;
      }
      if (kind == kSweep) {
        EXPECT_EQ(stats.cells_shipped, cells) << "window " << w;
      }
      const Status st = ApplyDelta(method, *replica, payload);
      ASSERT_TRUE(st.ok()) << MethodName(method) << " window " << w << ": " << st.ToString();
      ASSERT_EQ(Bytes(method, *replica), Bytes(method, learner.impl()))
          << MethodName(method) << " window " << w << " (kind " << kind << ")";
      ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());
    }
    EXPECT_GT(sweeps, 0) << MethodName(method);
    if (method == Method::kAwmSketch) {
      EXPECT_GT(evicting, 0);
    }
  }
}

TEST_F(DistTest, SaveDeltaWithoutWindowIsRejected) {
  // With no window open there is no record of what was written: the delta
  // is refused, with nothing appended, rather than shipped empty.
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Train(built.value(), 50, 3);
  std::string payload = "prefix";
  const Status st = SaveDelta(built.value().method(), built.value().impl(), &payload, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(payload, "prefix");
}

TEST_F(DistTest, OneExampleShipsAtMostNnzTimesDepthCells) {
  // Each feature of an AWM example writes at most one tail scatter or one
  // evictee fold-back per row, so one example after the window opens ships
  // between 1 and nnz × depth cells of a 48K-cell table.
  constexpr uint32_t kDepth = 3;
  Result<Learner> built = LearnerBuilder()
                              .SetMethod(Method::kAwmSketch)
                              .SetWidth(16384)
                              .SetDepth(kDepth)
                              .SetHeapCapacity(64)
                              .SetLambda(1e-4)
                              .SetLearningRate(LearningRate::Constant(0.2))
                              .SetSeed(42)
                              .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  Train(learner, 500, 3);

  ASSERT_TRUE(BeginDeltaWindow(learner.method(), learner.impl()).ok());
  Train(learner, 1, 5);
  const size_t nnz = SyntheticClassificationGen(ClassificationProfile::SmallTest(), 5)
                         .Next()
                         .x.nnz();

  std::string delta;
  DeltaStats stats;
  ASSERT_TRUE(SaveDelta(learner.method(), learner.impl(), &delta, &stats).ok());
  EXPECT_GE(stats.cells_shipped, 1u);
  EXPECT_LE(stats.cells_shipped, nnz * kDepth);
  EXPECT_LE(stats.pages_shipped, stats.cells_shipped);
  EXPECT_GT(stats.pages_total, 8u);
}

TEST_F(DistTest, ResidentBytesCountCellRecordAndHeapIndex) {
  // ResidentStorageBytes = the table's cells + page metadata + the heap as
  // stored (16-byte entries, and a key → slot index that keeps at most a
  // quarter of its u64 cells full) + the written-cell record once a delta
  // window is open: one bit per cell, and a summary of 8 bytes per 64
  // record words, rounded up. MemoryCostBytes stays the paper's figure
  // throughout.
  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    Result<Learner> built = Builder(method).Build();
    ASSERT_TRUE(built.ok());
    Learner learner = std::move(built).value();
    Train(learner, 500, 3);
    const BudgetConfig& config = learner.config();
    const size_t cells = size_t{config.width} * config.depth;
    const size_t pages = (cells + PickPageCells(cells) - 1) / PickPageCells(cells);
    ASSERT_EQ(learner.impl().TopK(config.heap_capacity).size(), config.heap_capacity)
        << MethodName(method) << ": the heap must be full to pin its size";
    const size_t heap = config.heap_capacity * 16 +
                        std::bit_ceil(4 * config.heap_capacity) * sizeof(uint64_t);
    const size_t before = TableBytes(cells) + pages * kBytesPerPageMeta + heap;
    EXPECT_EQ(learner.impl().ResidentStorageBytes(), before) << MethodName(method);

    ASSERT_TRUE(BeginDeltaWindow(method, learner.impl()).ok());
    const size_t record = cells / 8 + (cells / 64 + 63) / 64 * 8;
    EXPECT_EQ(learner.impl().ResidentStorageBytes(), before + record) << MethodName(method);
    EXPECT_EQ(learner.impl().MemoryCostBytes(), config.MemoryCostBytes()) << MethodName(method);
  }
}

// A frozen AWM read model holds its own copy of the whole active set, so it
// counts it as stored: at |S| = 1024, 1,024 16-byte entries and a 4,096-cell
// index of 8-byte cells, beside the tail table's pages.
TEST_F(DistTest, AwmReadModelResidentBytesCountTheWholeActiveSet) {
  BudgetConfig config;
  config.method = Method::kAwmSketch;
  config.width = 2048;
  config.depth = 1;
  config.heap_capacity = 1024;
  Result<Learner> built = FromConfig(config).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Learner learner = std::move(built).value();
  Train(learner, 3000, 5);
  ASSERT_EQ(learner.impl().TopK(1024).size(), 1024u) << "the active set must be full";
  const size_t page_cells = PickPageCells(2048);
  const size_t pages = (2048 + page_cells - 1) / page_cells;
  const std::unique_ptr<const ReadModel> frozen = learner.impl().MakeReadModel();
  EXPECT_EQ(frozen->ResidentBytes(),
            pages * (page_cells * sizeof(float) + kBytesPerPageMeta) + 1024 * 16 + 4096 * 8);
}

// A learner trained past a delta window, the replica captured when the
// window opened, and the delta that carries the replica to the learner.
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
  EXPECT_TRUE(BeginDeltaWindow(method, f.learner.impl()).ok());
  f.replica = f.learner.impl().Clone();
  Train(f.learner, 100, 13);
  EXPECT_TRUE(SaveDelta(method, f.learner.impl(), &f.payload, nullptr).ok());
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

// Where the sections of a WMD2 payload start: magic u32, method u8, step
// u64, one (WM) or two (AWM) f64 scales; heap: u64 count + (u32, f32)
// pairs; table: u64 cells, u64 record count, then (u32 offset, u32 bits)
// records.
struct DeltaLayout {
  size_t heap_at = 0;
  uint64_t heap_n = 0;
  size_t table_at = 0;
  uint64_t cells = 0;
  uint64_t records = 0;
  size_t records_at = 0;
};

DeltaLayout LayoutOf(Method method, const std::string& delta) {
  DeltaLayout l;
  l.heap_at = 4 + 1 + 8 + (method == Method::kAwmSketch ? 16 : 8);
  l.heap_n = Peek<uint64_t>(delta, l.heap_at);
  l.table_at = l.heap_at + 8 + 8 * l.heap_n;
  l.cells = Peek<uint64_t>(delta, l.table_at);
  l.records = Peek<uint64_t>(delta, l.table_at + 8);
  l.records_at = l.table_at + 16;
  return l;
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
    const DeltaLayout l = LayoutOf(method, good);
    ASSERT_GE(l.heap_n, 2u) << MethodName(method);
    ASSERT_GE(l.records, 3u) << MethodName(method);
    ASSERT_EQ(l.records_at + 8 * l.records, good.size()) << MethodName(method);
    const size_t last_record = l.records_at + 8 * (l.records - 1);
    const uint32_t prev_offset = Peek<uint32_t>(good, last_record - 8);
    ASSERT_GE(prev_offset, 1u) << MethodName(method);

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
           Poke<uint64_t>(b, l.heap_at, f.learner.config().heap_capacity + 1);
         }},
        {"duplicate heap feature",
         [&](std::string& b) {
           Poke<uint32_t>(b, l.heap_at + 8 + 8 * (l.heap_n - 1),
                          Peek<uint32_t>(b, l.heap_at + 8));
         }},
        {"wrong cell count", [&](std::string& b) { Poke<uint64_t>(b, l.table_at, l.cells + 1); }},
        {"record count > cells",
         [&](std::string& b) { Poke<uint64_t>(b, l.table_at + 8, l.cells + 1); }},
        {"records run past the payload",
         [&](std::string& b) { Poke<uint64_t>(b, l.table_at + 8, l.records + 1); }},
        {"offset >= cells",
         [&](std::string& b) { Poke<uint32_t>(b, last_record, static_cast<uint32_t>(l.cells)); }},
        {"repeated offset", [&](std::string& b) { Poke<uint32_t>(b, last_record, prev_offset); }},
        {"decreasing offset",
         [&](std::string& b) { Poke<uint32_t>(b, last_record, prev_offset - 1); }},
        {"trailing byte", [](std::string& b) { b.push_back('\0'); }},
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

TEST_F(DistTest, DistDecodersSurviveSeededMutation) {
  // Every decoder that reads bytes off the dist socket, fed a few thousand
  // seeded mutations of a valid input each: every call returns a Status
  // (the sanitizer builds turn any out-of-bounds read or UB into a
  // failure), and a rejected delta leaves the replica byte-identical.
  constexpr int kMutations = 3000;
  std::vector<FuzzTarget> targets;

  dist::HelloPayload hello;
  hello.worker_id = 3;
  hello.session_token = 77;
  hello.acked_sync_seq = 12;
  {
    Result<Learner> ref = Builder().Build();
    ASSERT_TRUE(ref.ok());
    Result<MergeIdentity> id = MergeIdentityOf(ref.value().method(), ref.value().impl());
    ASSERT_TRUE(id.ok());
    hello.identity = id.value();
  }
  // Hello: u32 version, u64 worker, session, acked; identity: u8 tag,
  // u32 width, u32 depth, u64 capacity, u64 seed, u8 rate kind, f64 eta0,
  // f64 lambda.
  targets.push_back({"hello", dist::EncodeHello(hello),
                     {{0, 4}, {4, 8}, {12, 8}, {20, 8}, {29, 4}, {33, 4}, {37, 8}, {45, 8}},
                     [](std::string_view b) { return dist::DecodeHello(b).status(); }});
  targets.push_back({"hello-ack", dist::EncodeHelloAck({77, 1, 13}), {{0, 8}, {9, 8}},
                     [](std::string_view b) { return dist::DecodeHelloAck(b).status(); }});
  std::string sync_payload;
  dist::EncodeSyncHeader({3, 77, 13}, &sync_payload);
  sync_payload += "body";
  targets.push_back({"sync-header", sync_payload, {{0, 8}, {8, 8}, {16, 8}},
                     [](std::string_view b) {
                       std::string_view body;
                       return dist::DecodeSyncHeader(b, &body).status();
                     }});
  std::string ack_payload;
  dist::EncodeAck({13}, &ack_payload);
  targets.push_back({"ack", ack_payload, {{0, 8}},
                     [](std::string_view b) { return dist::DecodeAck(b).status(); }});
  // Error: u8 code, u16 detail, u32 message length, message.
  targets.push_back({"error", net::EncodeError(Status::FailedPrecondition("stale session")),
                     {{3, 4}},
                     [](std::string_view b) { return net::DecodeErrorStatus(b); }});

  std::mt19937_64 rng(20261017);
  for (const FuzzTarget& t : targets) {
    for (int i = 0; i < kMutations; ++i) {
      // Returning at all is the check: a mutated field can turn a valid
      // message into another valid one.
      (void)t.decode(Mutate(t, rng));
    }
  }

  for (const Method method : {Method::kWmSketch, Method::kAwmSketch}) {
    DeltaFixture f = MakeDelta(method);
    const std::unique_ptr<BudgetedClassifier> pristine = f.replica->Clone();
    const std::string before = Bytes(method, *pristine);
    const DeltaLayout l = LayoutOf(method, f.payload);
    FuzzTarget t{MethodName(method) + " delta", f.payload,
                 {{5, 8}, {l.heap_at, 8}, {l.table_at, 8}, {l.table_at + 8, 8},
                  {l.records_at + 8 * (l.records - 1), 4}},
                 nullptr};
    int rejected = 0;
    for (int i = 0; i < kMutations; ++i) {
      const std::string bad = Mutate(t, rng);
      const Status st = ApplyDelta(method, *f.replica, bad);
      if (st.ok()) {
        // A value-only mutation is a valid delta; start the next one from
        // the pristine replica again.
        f.replica = pristine->Clone();
        continue;
      }
      ++rejected;
      ASSERT_EQ(st.code(), StatusCode::kCorruption) << t.name << " mutation " << i;
      ASSERT_EQ(Bytes(method, *f.replica), before) << t.name << " mutation " << i;
    }
    EXPECT_GT(rejected, kMutations / 4) << t.name;
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

  const net::UniqueFd fd = RawConnect(path);
  ASSERT_GE(fd.get(), 0);
  ASSERT_EQ(::send(fd.get(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  // The aggregator answers a corrupt frame by closing, never by replying.
  char byte;
  EXPECT_EQ(::read(fd.get(), &byte, 1), 0);

  serving.Stop();
  EXPECT_EQ(serving.agg().worker_count(), 0u);
  EXPECT_EQ(serving.agg().replica_count(), 0u);
}

TEST_F(DistTest, SyncBeforeHandshakeIsRejected) {
  Result<Learner> ref = Builder().Build();
  ASSERT_TRUE(ref.ok());
  const std::string path = UniqueSocket("nohello");
  ServingAggregator serving(AggOpts(ref.value().config()), path);

  const net::UniqueFd fd = RawConnect(path);
  ASSERT_GE(fd.get(), 0);
  dist::SyncHeader header;
  header.worker_id = 9;
  header.session_token = 1;
  header.sync_seq = 1;
  std::string payload;
  dist::EncodeSyncHeader(header, &payload);
  payload += "junk";
  ASSERT_TRUE(dist::SendFrame(fd.get(), dist::FrameType::kDelta, payload).ok());
  net::Inbox inbox(dist::kFrameRules);
  net::FrameView reply;
  const Status received = inbox.Recv(fd.get(), &reply);
  ASSERT_TRUE(received.ok()) << received.ToString();
  ASSERT_EQ(reply.type, static_cast<uint8_t>(dist::FrameType::kError));
  const Status st = net::DecodeErrorStatus(reply.payload);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  serving.Stop();
  EXPECT_EQ(serving.agg().worker_count(), 0u);
}

// ------------------------------------------------- one peer, one stall

// Trains `model` on one 16-example window drawn from `gen`.
void TrainWindow(Learner& model, SyntheticClassificationGen& gen) {
  std::vector<Example> window;
  for (int i = 0; i < 16; ++i) window.push_back(gen.Next());
  model.UpdateBatch(window);
}

TEST_F(DistTest, PeerStalledMidFrameNeitherStallsOthersNorOutlivesItsDeadline) {
  // A peer writes the first 5 bytes of a sealed sync frame and stops. The
  // aggregator keeps serving the real worker's syncs as if the peer were
  // not there, and drops the peer once its frame is io_timeout_ms old.
  constexpr int kIoTimeoutMs = 2000;
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 200, 61);
  AggregatorOptions options = AggOpts(model.config());
  options.io_timeout_ms = kIoTimeoutMs;
  const std::string path = UniqueSocket("stall");
  ServingAggregator serving(options, path);
  SyncClient client(model.method(), ClientOpts(1, path));
  ASSERT_TRUE(client.Connect(model.impl()).ok());
  ASSERT_TRUE(client.Sync(model.impl()).ok());

  std::string frame;
  net::BeginFrame(&frame, static_cast<uint8_t>(dist::FrameType::kDelta));
  dist::EncodeSyncHeader({9, client.session_token(), 1}, &frame);
  frame += "body";
  net::SealFrame(&frame);
  const net::UniqueFd peer = RawConnect(path);
  ASSERT_GE(peer.get(), 0);
  ASSERT_TRUE(net::SetIoTimeouts(peer.get(), 3 * kIoTimeoutMs).ok());
  const auto stalled_at = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(peer.get(), frame.data(), 5, MSG_NOSIGNAL), 5);

  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 67);
  std::chrono::steady_clock::duration slowest{};
  for (int i = 0; i < 50; ++i) {
    TrainWindow(model, gen);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Sync(model.impl()).ok()) << "sync " << i;
    slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
  }
  EXPECT_LT(slowest, std::chrono::milliseconds(500));
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().delta_syncs, 50u);

  // The aggregator closes the stalled connection, never answering it.
  char byte;
  EXPECT_EQ(::read(peer.get(), &byte, 1), 0);
  const auto dropped_after = std::chrono::steady_clock::now() - stalled_at;
  EXPECT_GE(dropped_after, std::chrono::milliseconds(kIoTimeoutMs));
  EXPECT_LT(dropped_after, std::chrono::milliseconds(2 * kIoTimeoutMs));

  Result<std::string> merged = client.FetchMergedBytes();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), Bytes(model.method(), model.impl()));
  serving.Stop();
}

TEST_F(DistTest, IdleAggregatorBlocksInsteadOfSpinning) {
  // The aggregator polls with a zero timeout only within kSyncSpinBudget of
  // the last frame it served. Once traffic stops it blocks, so its thread
  // spends almost no CPU while the connected worker sits idle.
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 200, 71);
  const std::string path = UniqueSocket("idle");
  ServingAggregator serving(AggOpts(model.config()), path);
  SyncClient client(model.method(), ClientOpts(1, path));
  ASSERT_TRUE(client.Connect(model.impl()).ok());
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 73);
  for (int i = 0; i < 50; ++i) {
    TrainWindow(model, gen);
    ASSERT_TRUE(client.Sync(model.impl()).ok()) << "sync " << i;
  }

  const double busy_ms = serving.ThreadCpuMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(serving.ThreadCpuMs() - busy_ms, 10.0);
  serving.Stop();
}

TEST_F(DistTest, ConnectionBurstPastTheDescriptorLimitIsShed) {
  // A burst of connections the process has no descriptors for: the
  // aggregator sheds what it cannot take and keeps serving the worker that
  // connected before the burst, instead of ending its loop on accept's
  // EMFILE. The burst's sockets exist before the limit is lowered, so
  // connecting them takes no descriptor of this process's.
  Result<Learner> built = Builder().Build();
  ASSERT_TRUE(built.ok());
  Learner model = std::move(built).value();
  Train(model, 200, 81);
  const std::string path = UniqueSocket("burst");
  ServingAggregator serving(AggOpts(model.config()), path);
  SyncClient client(model.method(), ClientOpts(1, path));
  ASSERT_TRUE(client.Connect(model.impl()).ok());
  ASSERT_TRUE(client.Sync(model.impl()).ok());

  const descriptors::Sockets burst(48);
  SyntheticClassificationGen gen(ClassificationProfile::SmallTest(), 83);
  {
    descriptors::DescriptorLimit limit(/*spare=*/2);
    burst.ConnectAll(path);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_FALSE(serving.returned()) << "the aggregator's loop ended on the burst";
    for (int i = 0; i < 3; ++i) {
      TrainWindow(model, gen);
      ASSERT_TRUE(client.Sync(model.impl()).ok()) << "sync " << i;
    }
  }
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_FALSE(serving.returned());
  Result<std::string> merged = client.FetchMergedBytes();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value(), Bytes(model.method(), model.impl()));
  serving.Stop();
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

  // Second sync from worker 1 travels as a written-cell delta.
  Train(w1, 150, 29);
  ASSERT_TRUE(c1.Sync(w1.impl()).ok());
  EXPECT_EQ(c1.stats().full_syncs, 1u);
  EXPECT_EQ(c1.stats().delta_syncs, 1u);
  EXPECT_GT(c1.stats().last_pages_total, 0u);
  EXPECT_GT(c1.stats().last_cells_shipped, 0u);
  EXPECT_LE(c1.stats().last_pages_shipped, c1.stats().last_cells_shipped);

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

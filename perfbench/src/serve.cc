// Workload `serve`: request on a socket → reply, with a writer training and
// publishing beside the readers. A WM-Sketch (depth 5, 2^18 columns, 5 MB
// of table) is pre-trained during set-up and served by a ServingServer with
// two readers on a Unix socket. One writer thread trains flat out and calls
// PublishServingSnapshot every 1024 examples. One generator thread drives
// four pipelined connections in an open loop (70% single-example predict,
// 20% estimate of 16 Zipf-drawn ids, 10% top-K(64)), encoding requests with
// the net frame and protocol codecs.
//
// Phases: quarter-second windows at a fixed offered rate, each after a
// sequential baseline pass (examples_per_s is the writer's rate in the
// windows, op_p50_us/op_p99_us the request latency timed from each
// request's due time); a rate search for the highest rate with
// p99 <= 1 ms, no failure and no growing backlog (sustained_qps). Then,
// with the writer stopped, wire replies are checked bit-for-bit against
// direct ServingHandle calls on the same snapshot version.

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <thread>

#include "common.h"
#include "engine/serving.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {

using namespace wmsketch;

namespace {

constexpr uint32_t kWidth = 1u << 18;
constexpr uint32_t kDepth = 5;
constexpr size_t kHeap = 1024;
constexpr size_t kPretrain = 32768;
constexpr size_t kWriterStream = 65536;
/// The sequential baseline's pass: a prefix of the writer stream.
constexpr size_t kSeqExamples = 16384;
constexpr size_t kPublishEvery = 1024;
constexpr int kReaders = 2;
constexpr size_t kConnections = 4;
constexpr size_t kPoolSize = 4096;
constexpr uint64_t kWarmupRequests = 512;
/// Set-up samples taken before the first window.
constexpr int kSetupReps = 3;
constexpr uint32_t kTopK = 64;
constexpr size_t kEstimateIds = 16;
/// The fixed offered rate: half the median sustained_qps that the rate search
/// below found over ten seeds on a contended 4-vCPU KVM guest (Xeon,
/// AVX-512; 52k requests/s at 0.6-12% host steal, 196k on a quiet host).
/// Kept at the contended figure so the generator keeps its schedule there
/// too; perfbench/README.md lists the runs. A constant, so runs compare like
/// for like.
constexpr double kFixedRate = 25000.0;
constexpr double kLatencyLimitUs = 1000.0;
/// A window whose median request left later than this measured the
/// generator, not the server.
constexpr double kMaxLagUs = 200.0;
constexpr double kWindowSeconds = 0.25;
/// The generator wakes this long before a request is due and spins the rest
/// (timed waits overshoot by ~6 us at the median, ~10 us at p99, on a
/// 4-vCPU KVM guest).
constexpr int64_t kSpinNs = 15000;
constexpr double kSearchStepSeconds = 0.3;
constexpr const char* kSocket = "serve.sock";
/// The rig is rebuilt, as a set-up sample, before every this many
/// fixed-rate windows.
constexpr int kSetupEvery = 8;

LearnerBuilder ServeBuilder() {
  return PaperBuilder()
      .SetMethod(Method::kWmSketch)
      .SetWidth(kWidth)
      .SetDepth(kDepth)
      .SetHeapCapacity(kHeap);
}

struct Request {
  net::MsgType reply{};
  std::string frame;
  std::vector<Example> examples;
  std::vector<uint32_t> ids;
};

std::vector<Request> MakePool(uint64_t seed, const std::vector<Example>& queries) {
  const ZipfSampler zipf(ClassificationProfile::Rcv1Like().dimension, 1.1);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Request> pool(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    Request& r = pool[i];
    const double u = rng.NextDouble();
    if (u < 0.7) {
      r.examples.push_back(queries[i % queries.size()]);
      r.reply = net::MsgType::kPredictResponse;
      r.frame = net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kPredictRequest),
                                 net::EncodePredictRequest({r.examples}));
    } else if (u < 0.9) {
      for (size_t j = 0; j < kEstimateIds; ++j) {
        r.ids.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
      }
      r.reply = net::MsgType::kEstimateResponse;
      r.frame = net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kEstimateRequest),
                                 net::EncodeEstimateRequest({r.ids}));
    } else {
      r.reply = net::MsgType::kTopKResponse;
      r.frame = net::EncodeFrame(static_cast<uint8_t>(net::MsgType::kTopKRequest),
                                 net::EncodeTopKRequest({kTopK}));
    }
  }
  return pool;
}

/// One generator connection: a nonblocking socket with its send buffer, its
/// receive buffer and the requests in flight, oldest first.
struct GenConn {
  struct Pending {
    int64_t due_ns = 0;
    uint64_t index = 0;
    /// The newest version this connection had received when the request
    /// left: its reply must not be older.
    uint64_t floor_version = 0;
  };
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Pending> pending;
  /// The newest reply version received on this connection.
  uint64_t last_version = 0;
};

/// Reply version of a decoded response frame (0 if it does not decode).
uint64_t ReplyVersion(const net::TypedFrame& frame) {
  switch (static_cast<net::MsgType>(frame.type)) {
    case net::MsgType::kPredictResponse: {
      const Result<net::PredictResponse> r = net::DecodePredictResponse(frame.payload);
      return r.ok() ? r.value().version : 0;
    }
    case net::MsgType::kEstimateResponse: {
      const Result<net::EstimateResponse> r = net::DecodeEstimateResponse(frame.payload);
      return r.ok() ? r.value().version : 0;
    }
    case net::MsgType::kTopKResponse: {
      const Result<net::TopKResponse> r = net::DecodeTopKResponse(frame.payload);
      return r.ok() ? r.value().version : 0;
    }
    default:
      return 0;
  }
}

/// The model, the server and the generator's connections. Members are
/// destroyed in reverse order: connections close, then the server stops,
/// then the learner goes.
struct ServeRig {
  std::optional<Learner> learner;
  std::unique_ptr<net::ServingServer> server;
  std::vector<GenConn> conns;
  int epoll_fd = -1;
  /// Requests issued so far; the next request takes pool[next % pool size].
  uint64_t next = 0;
  /// Replies older than a reply the connection had already received when
  /// the request was sent (must stay 0).
  uint64_t stale_replies = 0;
  /// Pipelined replies older than an earlier reply on their connection: the
  /// server answers a dispatch round in arrival order, but top-K and
  /// estimate replies can carry a newer snapshot than the round's predicts.
  uint64_t reordered_versions = 0;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() {
    for (GenConn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (server != nullptr) server->Stop();
  }
};

bool ConnectGenerator(ServeRig& rig) {
  rig.epoll_fd = ::epoll_create1(0);
  if (rig.epoll_fd < 0) return false;
  for (size_t i = 0; i < kConnections; ++i) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strcpy(addr.sun_path, kSocket);
    GenConn conn;
    conn.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (conn.fd < 0) return false;
    rig.conns.push_back(std::move(conn));
    const int fd = rig.conns.back().fd;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return false;
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (::epoll_ctl(rig.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }
  return true;
}

/// Sends what `conn` has buffered; false when the connection failed.
bool Flush(GenConn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn.out.erase(0, static_cast<size_t>(n));
  }
  return true;
}

/// One open-loop phase: `total` requests at `rate`, spread round-robin over
/// the connections, then a drain of up to two seconds for late replies.
OpenLoopStats RunOpenLoop(ServeRig& rig, const std::vector<Request>& pool, double rate,
                          uint64_t total, FailureCounter& ops, Tracer::Buffer* tb) {
  OpenLoopStats stats;
  const OpenLoopSchedule schedule(NowNs() + 200000, rate);
  const int64_t drain_deadline = schedule.DueNs(total) + 2000000000;
  const uint64_t base = rig.next;
  uint64_t sent = 0;
  uint64_t answered = 0;
  std::vector<bool> dead(rig.conns.size(), false);
  epoll_event events[kConnections];
  char buf[64 * 1024];
  while (answered < total) {
    const int64_t now = NowNs();
    while (sent < total && schedule.DueNs(sent) <= now) {
      GenConn& c = rig.conns[sent % rig.conns.size()];
      c.out.append(pool[(base + sent) % pool.size()].frame);
      c.pending.push_back({schedule.DueNs(sent), base + sent, c.last_version});
      stats.OnSend(schedule.DueNs(sent), now);
      ++sent;
    }
    for (size_t i = 0; i < rig.conns.size(); ++i) {
      if (!dead[i] && !Flush(rig.conns[i])) dead[i] = true;
    }
    // Sleep until replies arrive or shortly before the next request is due,
    // then spin the last few microseconds: the generator keeps its schedule
    // without holding a core the readers and the writer need.
    int64_t wait_ns = 0;
    bool unsent = false;
    for (const GenConn& c : rig.conns) unsent = unsent || !c.out.empty();
    if (!unsent) {
      const int64_t wake = sent < total ? schedule.DueNs(sent) - kSpinNs
                                        : std::min(drain_deadline, now + 1000000);
      wait_ns = wake - NowNs();
    }
    int n = 0;
    if (wait_ns > 0) {
      const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                             static_cast<long>(wait_ns % 1000000000)};
      n = ::epoll_pwait2(rig.epoll_fd, events, static_cast<int>(kConnections), &timeout, nullptr);
    } else {
      n = ::epoll_wait(rig.epoll_fd, events, static_cast<int>(kConnections), 0);
    }
    for (int e = 0; e < n; ++e) {
      const size_t ci = events[e].data.u64;
      GenConn& c = rig.conns[ci];
      while (true) {
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          dead[ci] = true;
        }
        break;
      }
      const int64_t recv_ns = NowNs();
      size_t pos = 0;
      while (true) {
        net::TypedFrame frame;
        size_t consumed = 0;
        const Status st = net::TryDecodeFrame(std::string_view(c.in).substr(pos), net::kMinMsgType,
                                              net::kMaxMsgType, &frame, &consumed);
        if (!st.ok()) {
          dead[ci] = true;
          break;
        }
        if (consumed == 0) break;
        pos += consumed;
        if (c.pending.empty()) {
          dead[ci] = true;
          break;
        }
        const GenConn::Pending p = c.pending.front();
        c.pending.pop_front();
        const Request& req = pool[p.index % pool.size()];
        const uint64_t version = ReplyVersion(frame);
        const bool ok = frame.type == static_cast<uint8_t>(req.reply) && version != 0;
        if (ok && version < p.floor_version) ++rig.stale_replies;
        if (ok && version < c.last_version) ++rig.reordered_versions;
        if (ok) c.last_version = std::max(c.last_version, version);
        ops.Record(ok);
        stats.OnReply(p.due_ns, recv_ns);
        ++answered;
        if (tb != nullptr) {
          Span span;
          span.id = tb->NextId();
          span.trace = p.index + 1;
          span.name = "net.request";
          span.start_ns = p.due_ns;
          span.end_ns = recv_ns;
          span.items = 1;
          tb->Add(span);
        }
      }
      c.in.erase(0, pos);
    }
    stats.SampleBacklog(std::min<uint64_t>(schedule.DueBy(now), total), answered);
    bool all_dead = true;
    for (const bool d : dead) all_dead = all_dead && d;
    if (now > drain_deadline || all_dead) break;
  }
  if (answered < total) ops.RecordMissing(total - answered);
  rig.next = base + total;
  for (GenConn& c : rig.conns) c.pending.clear();
  return stats;
}

/// The writer: trains flat out on the writer stream (cycled) and publishes
/// every kPublishEvery examples, until stopped. Read its fields only while
/// it is stopped.
struct Writer {
  std::atomic<bool> stop{false};
  /// End time of every train-and-publish cycle since the last Start.
  std::vector<int64_t> cycle_end_ns;
  /// Publishes and bytes they copied, over every Start/Stop of this writer.
  uint64_t publishes = 0;
  uint64_t copied_bytes = 0;
  size_t at = 0;
  std::thread thread;

  void Start(Learner& learner, const std::vector<Example>& stream, Tracer::Buffer* tb) {
    stop.store(false);
    cycle_end_ns.clear();
    thread = std::thread([this, &learner, &stream, tb] {
      const TablePublishStats before = learner.impl().publish_stats();
      while (!stop.load(std::memory_order_relaxed)) {
        {
          ScopedSpan span(tb, "core.UpdateBatch", 0, kPublishEvery);
          learner.UpdateBatch(std::span<const Example>(stream.data() + at, kPublishEvery));
        }
        at = (at + kPublishEvery) % stream.size();
        {
          ScopedSpan span(tb, "engine.Publish");
          learner.PublishServingSnapshot();
        }
        cycle_end_ns.push_back(NowNs());
      }
      const TablePublishStats after = learner.impl().publish_stats();
      publishes += after.publishes - before.publishes;
      copied_bytes += after.copied_bytes - before.copied_bytes;
    });
  }
  void Stop() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
  /// Examples/s between the first and the last cycle that ended within
  /// [t0_ns, t1_ns]: whole cycles over their own span, so the rate does not
  /// move in steps of one cycle per window. 0 if fewer than two ended.
  double Rate(int64_t t0_ns, int64_t t1_ns) const {
    int64_t first = 0;
    int64_t last = 0;
    uint64_t cycles = 0;
    for (const int64_t end : cycle_end_ns) {
      if (end < t0_ns || end > t1_ns) continue;
      if (cycles++ == 0) first = end;
      last = end;
    }
    if (cycles < 2) return 0.0;
    return static_cast<double>((cycles - 1) * kPublishEvery) * 1e9 /
           static_cast<double>(last - first);
  }
  ~Writer() { Stop(); }
};

/// The sustained-rate criterion: nothing failed, the generator kept its
/// schedule, the latency tail met the limit and the backlog did not grow.
bool PhaseHolds(const OpenLoopStats& stats, double rate, const FailureCounter& step_ops) {
  const LatencySummary lat = stats.Latency();
  const double tail = lat.tail_pct == 0 ? lat.max : lat.tail;
  const double backlog_allowance = std::ceil(rate * kLatencyLimitUs / 1e6) + kConnections;
  return step_ops.failed() == 0 && stats.OnSchedule(kMaxLagUs) &&
         tail <= kLatencyLimitUs && static_cast<double>(stats.backlog_last()) <= backlog_allowance;
}

/// One fixed-rate window: its requests, the writer's examples/s (value)
/// and the host's steal share meanwhile.
struct FixedWindow {
  OpenLoopStats stats;
  double value = 0.0;
  double steal = 0.0;
};

struct PassResult {
  int windows = 0;
  /// Windows whose generator fell behind schedule: set aside, not measured.
  int late_windows = 0;
  /// The windows that kept their schedule.
  std::vector<FixedWindow> fixed;
  /// Every window, for the generator's own lag and backlog.
  OpenLoopStats generator;
  /// The sequential passes run between windows.
  std::vector<WindowValue> seq_rates;
  double sustained_qps = 0.0;
  int search_steps = 0;
  /// The writer's publishes in this pass and the bytes they copied.
  uint64_t publishes = 0;
  uint64_t copied_bytes = 0;

  bool fixed_valid() const { return 2 * late_windows < windows; }
  /// Requests of the usable windows, pooled.
  OpenLoopStats Pooled() const {
    OpenLoopStats all;
    for (const FixedWindow* w : UsableWindows(fixed)) all.Merge(w->stats);
    return all;
  }
  /// Request p99 per usable window, median over windows: one host hiccup in
  /// one window does not set the run's figure.
  double WindowP99() const {
    std::vector<double> p99;
    for (const FixedWindow* w : UsableWindows(fixed)) p99.push_back(w->stats.Latency().tail);
    return Median(p99);
  }
};

/// A rig ready for measurement: the model built and pre-trained, the server
/// started on kSocket, the generator connected and warmed up with
/// kWarmupRequests at the fixed rate. nullptr on failure.
std::unique_ptr<ServeRig> BuildRig(const std::vector<Example>& pretrain,
                                   const std::vector<Request>& pool, FailureCounter& ops) {
  auto rig = std::make_unique<ServeRig>();
  Result<Learner> built = ServeBuilder().Build();
  if (!built.ok()) return nullptr;
  rig->learner.emplace(std::move(built).value());
  rig->learner->UpdateBatch(pretrain);
  net::ServerOptions options;
  options.unix_path = kSocket;
  options.readers = kReaders;
  Learner* learner = &*rig->learner;
  Result<std::unique_ptr<net::ServingServer>> started =
      net::ServingServer::Start(options, [learner] { return learner->AcquireServingHandle(); });
  if (!started.ok()) return nullptr;
  rig->server = std::move(started).value();
  if (!ConnectGenerator(*rig)) return nullptr;
  RunOpenLoop(*rig, pool, kFixedRate, kWarmupRequests, ops, nullptr);
  return rig;
}

/// Replaces `rig` with a new one, timing the build into `setup` when given;
/// the old rig is torn down outside the clock and its version-check counts
/// carry over. False (and `rig` empty) if the build failed.
bool RebuildRig(std::unique_ptr<ServeRig>& rig, const std::vector<Example>& pretrain,
                const std::vector<Request>& pool, FailureCounter& ops, SetupTimes* setup) {
  const uint64_t stale = rig == nullptr ? 0 : rig->stale_replies;
  const uint64_t reordered = rig == nullptr ? 0 : rig->reordered_versions;
  rig.reset();
  const auto build = [&] { rig = BuildRig(pretrain, pool, ops); };
  if (setup != nullptr) {
    setup->Time(build);
  } else {
    build();
  }
  if (rig == nullptr) return false;
  rig->stale_replies += stale;
  rig->reordered_versions += reordered;
  return true;
}

/// Quarter-second fixed-rate windows with the writer running, each preceded
/// by an untraced sequential pass over `seq_stream` (so both rates sample
/// the whole run, not one stretch of it) and, every kSetupEvery windows when
/// `setup` is given, by a rebuild of the rig as a set-up sample; then the
/// rate search. False if a rebuild failed.
bool RunPass(std::unique_ptr<ServeRig>& rig, const std::vector<Request>& pool,
             const std::vector<Example>& pretrain, const std::vector<Example>& writer_stream,
             const std::vector<Example>& seq_stream, double seconds, Tracer& tracer, bool traced,
             FailureCounter& ops, SetupTimes* setup, PassResult& out) {
  Writer writer;
  Tracer::Buffer* gen_tb = traced ? tracer.NewBuffer() : nullptr;
  const int64_t fixed_end = NowNs() + static_cast<int64_t>(0.85 * seconds * 1e9);
  while (out.windows < 3 || NowNs() < fixed_end) {
    if (setup != nullptr && out.windows % kSetupEvery == kSetupEvery - 1 &&
        !RebuildRig(rig, pretrain, pool, ops, setup)) {
      return false;
    }
    out.seq_rates.push_back(SequentialPass(ServeBuilder(), seq_stream, kPublishEvery, nullptr));
    writer.Start(*rig->learner, writer_stream, traced ? tracer.NewBuffer() : nullptr);
    const StealWindow steal;
    const int64_t t0 = NowNs();
    FixedWindow window;
    window.stats = RunOpenLoop(*rig, pool, kFixedRate,
                               static_cast<uint64_t>(kFixedRate * kWindowSeconds), ops, gen_tb);
    const int64_t t1 = NowNs();
    window.steal = steal.Share();
    writer.Stop();
    window.value = writer.Rate(t0, t1);
    ++out.windows;
    out.generator.Merge(window.stats);
    if (!window.stats.OnSchedule(kMaxLagUs)) {
      ++out.late_windows;
      continue;
    }
    out.fixed.push_back(std::move(window));
  }

  writer.Start(*rig->learner, writer_stream, nullptr);
  // Rate search: grow by 1.5x until a rate fails, then bisect. A rate fails
  // only when two steps at it fail, so one host hiccup does not end it.
  const int64_t search_end = NowNs() + static_cast<int64_t>(0.15 * seconds * 1e9);
  const auto step_holds = [&](double rate) {
    FailureCounter step_ops;
    const OpenLoopStats step = RunOpenLoop(
        *rig, pool, rate, static_cast<uint64_t>(rate * kSearchStepSeconds), step_ops, nullptr);
    ++out.search_steps;
    ops.Merge(step_ops);
    return PhaseHolds(step, rate, step_ops);
  };
  double rate = kFixedRate;
  double hi_fail = 0.0;
  while (NowNs() < search_end) {
    if (step_holds(rate) || (NowNs() < search_end && step_holds(rate))) {
      out.sustained_qps = std::max(out.sustained_qps, rate);
      rate = hi_fail == 0.0 ? rate * 1.5 : 0.5 * (rate + hi_fail);
    } else {
      hi_fail = rate;
      rate = 0.5 * (out.sustained_qps + hi_fail);
    }
    if (hi_fail > 0.0 && out.sustained_qps > 0.0 && hi_fail - out.sustained_qps < 0.03 * hi_fail) {
      break;
    }
  }
  writer.Stop();
  out.publishes = writer.publishes;
  out.copied_bytes = writer.copied_bytes;
  return true;
}

}  // namespace

void RunServe(const RunOptions& o, Report& report) {
  // The generator (this thread) times its waits to the microsecond.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  // Inputs, before any set-up.
  const std::vector<Example> pretrain = GenerateStream(o.seed, kPretrain);
  const std::vector<Example> writer_stream = GenerateStream(o.seed + 1, kWriterStream);
  const std::vector<Example> queries = GenerateStream(o.seed + 2, kPoolSize);
  const std::vector<Request> pool = MakePool(o.seed, queries);
  FailureCounter& ops = report.ops();

  // Set-up: build and pre-train the model, start the server, connect and
  // warm up the generator. Sampled before the windows and again, by
  // rebuilding the rig, between them; each old rig (server threads, model)
  // is torn down outside the clock.
  std::unique_ptr<ServeRig> rig;
  SetupTimes setup;
  bool setup_ok = true;
  for (int i = 0; i < kSetupReps && setup_ok; ++i) {
    setup_ok = RebuildRig(rig, pretrain, pool, ops, &setup);
  }
  report.Check(setup_ok, "model built, server started, generator connected");
  if (!setup_ok) return;

  const std::vector<Example> seq_stream(writer_stream.begin(),
                                        writer_stream.begin() + kSeqExamples);
  Tracer tracer;
  const double pass_seconds = o.trace ? 0.5 * o.seconds : o.seconds;
  const StealWindow run_steal;
  PassResult plain;
  setup_ok = RunPass(rig, pool, pretrain, writer_stream, seq_stream, pass_seconds, tracer, false,
                     ops, &setup, plain);
  report.Check(setup_ok, "every rebuild between windows started and connected");
  if (!setup_ok) return;
  report.Info("host_steal_frac", run_steal.Share(), "ratio");
  report.Check(plain.fixed_valid(),
               "generator kept its schedule in most fixed-rate windows (" +
                   std::to_string(plain.late_windows) + " of " +
                   std::to_string(plain.windows) + " set aside)");
  const LatencySummary lat = plain.Pooled().Latency();
  const LatencySummary lag = plain.generator.Lag();
  report.Check(lat.p99_valid(), "at least 1000 requests for p99");
  report.EndToEnd("setup_s", setup.Median(), "s");
  report.Info("setup_samples", static_cast<double>(setup.count()), "count");
  report.EndToEnd("seq_examples_per_s", WindowMedian(plain.seq_rates), "1/s");
  if (plain.fixed_valid()) {
    report.EndToEnd("examples_per_s", WindowMedian(plain.fixed), "1/s");
    report.EndToEnd("op_p50_us", lat.p50, "us");
    report.Info("op_p99_us", plain.WindowP99(), "us");
    report.Info("request_p50_us", lat.p50, "us");
    report.Info("request_p99_us", lat.tail, "us");
  }
  report.Info("request_samples", static_cast<double>(lat.count), "count");
  report.Info("offered_qps", kFixedRate, "1/s");
  report.Info("sustained_qps", plain.sustained_qps, "1/s");
  report.Info("search_steps", plain.search_steps, "count");
  report.Info("loadgen_lag_us_p99", lag.tail, "us");
  report.Info("loadgen_backlog_max", static_cast<double>(plain.generator.backlog_max()), "count");
  report.Info("publishes", static_cast<double>(plain.publishes), "count");
  report.Info("windows_set_aside_for_steal",
              static_cast<double>(SetAsideWindows(plain.fixed) + SetAsideWindows(plain.seq_rates)),
              "count");

  // The traced pass runs on a fresh rig, so the server's counters cover that
  // pass (and, for the lifetime maximum max_coalesced, its rig's warm-up).
  PassResult traced;
  net::ServerStats before;
  net::ServerStats after;
  if (o.trace) {
    const bool rebuilt = RebuildRig(rig, pretrain, pool, ops, nullptr);
    report.Check(rebuilt, "traced pass: model built, server started, generator connected");
    if (!rebuilt) return;
    before = rig->server->stats();
    RunPass(rig, pool, pretrain, writer_stream, seq_stream, pass_seconds, tracer, true, ops,
            nullptr, traced);
    after = rig->server->stats();
  }
  Learner& learner = *rig->learner;

  // Output check, writer stopped: wire replies equal direct ServingHandle
  // calls on the same snapshot version, bit for bit.
  report.Check(rig->stale_replies == 0,
               "no reply older than one its connection had received before sending");
  report.Info("reordered_versions", static_cast<double>(rig->reordered_versions), "count");
  Result<net::ServingClient> connected = net::ServingClient::ConnectUnix(kSocket);
  Result<ServingHandle> acquired = learner.AcquireServingHandle();
  report.Check(connected.ok() && acquired.ok(), "check client connected, direct handle acquired");
  if (!connected.ok() || !acquired.ok()) return;
  net::ServingClient client = std::move(connected).value();
  ServingHandle direct = std::move(acquired).value();
  const uint64_t version = direct.Refresh();
  bool identical = true;
  for (size_t i = 0; i < 256; ++i) {
    const Request& r = pool[i];
    bool same = false;
    if (r.reply == net::MsgType::kPredictResponse) {
      const Result<net::PredictResponse> wire = client.Predict(r.examples);
      std::vector<double> want(r.examples.size());
      direct.PredictBatch(r.examples, want.data());
      same = wire.ok() && wire.value().version == version &&
             std::memcmp(wire.value().margins.data(), want.data(), want.size() * sizeof(double)) == 0;
    } else if (r.reply == net::MsgType::kEstimateResponse) {
      const Result<net::EstimateResponse> wire = client.Estimate(r.ids);
      std::vector<float> want(r.ids.size());
      direct.EstimateBatch(r.ids, want.data());
      same = wire.ok() && wire.value().version == version &&
             std::memcmp(wire.value().estimates.data(), want.data(), want.size() * sizeof(float)) == 0;
    } else {
      const Result<net::TopKResponse> wire = client.TopK(kTopK);
      const std::vector<FeatureWeight> want = direct.TopK(kTopK);
      same = wire.ok() && wire.value().version == version &&
             wire.value().entries.size() == want.size() &&
             std::memcmp(wire.value().entries.data(), want.data(),
                         want.size() * sizeof(FeatureWeight)) == 0;
    }
    ops.Record(same);
    identical = identical && same;
  }
  report.Check(identical, "256 wire replies bit-identical to direct ServingHandle calls");

  if (!o.trace) return;
  std::vector<double> floor_us;
  for (int i = 0; i < 2000; ++i) {
    const int64_t t0 = NowNs();
    const Result<net::ModelInfoResponse> info = client.ModelInfo();
    floor_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ops.Record(info.ok());
  }
  Tracer::Buffer* main_tb = tracer.NewBuffer();
  MeasureDirectReads(learner, queries, o.seed, main_tb, report);
  const std::vector<Span> spans = tracer.Collect();
  const auto self = SelfTimes(spans);
  ReportUpdateSpans(spans, self, report);
  const SpanTotals publish = TotalsFor(spans, self, "engine.Publish");
  const LatencySummary publish_us = Summarize(publish.durations_us);
  report.Layer("engine.publish_us_p50", publish_us.p50, "us");
  report.Layer("engine.publish_us_max", publish_us.max, "us");
  report.Layer("engine.publish_kb",
               traced.publishes == 0 ? 0.0
                                     : static_cast<double>(traced.copied_bytes) / 1024.0 /
                                           static_cast<double>(traced.publishes),
               "kB");
  report.Layer("engine.snapshot_resident_kb", static_cast<double>(direct.resident_bytes()) / 1024.0,
               "kB");
  const uint64_t batches = after.batches_dispatched - before.batches_dispatched;
  report.Layer("net.coalesce_mean",
               batches == 0 ? 0.0
                            : static_cast<double>(after.requests_batched - before.requests_batched) /
                                  static_cast<double>(batches),
               "ratio");
  report.Layer("net.max_coalesced", static_cast<double>(after.max_coalesced), "count");
  const double hits = static_cast<double>(after.topk_cache_hits - before.topk_cache_hits);
  const double misses = static_cast<double>(after.topk_cache_misses - before.topk_cache_misses);
  report.Layer("net.topk_hit_rate", hits + misses == 0.0 ? 0.0 : hits / (hits + misses), "ratio");
  report.Layer("net.topk_invalidations",
               static_cast<double>(after.topk_cache_invalidations - before.topk_cache_invalidations),
               "count");
  report.Layer("net.floor_us", Summarize(floor_us).p50, "us");
  report.Layer("net.dropped",
               static_cast<double>(after.connections_dropped - before.connections_dropped), "count");
  report.Layer("net.corrupt", static_cast<double>(after.frames_corrupt - before.frames_corrupt),
               "count");
  report.Layer("net.rejected",
               static_cast<double>(after.requests_rejected - before.requests_rejected), "count");
  report.Layer("loadgen.lag_us_p99", traced.generator.Lag().tail, "us");
  report.Layer("loadgen.backlog_max", static_cast<double>(traced.generator.backlog_max()),
               "count");
  const double untraced = WindowMedian(plain.fixed);
  report.Layer("trace.overhead_frac",
               untraced > 0.0 ? (WindowMedian(traced.fixed) - untraced) / untraced : 0.0, "ratio");
  report.Info("traced_sustained_qps", traced.sustained_qps, "1/s");
  WriteTrace(tracer, o, report);
}

}  // namespace perfbench

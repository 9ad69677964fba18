// Workload `sync`: worker delta → aggregator replica. Three worker threads
// each train their own AWM-Sketch (64K-cell table) on a disjoint partition
// of the stream (cycled) and call SyncClient::Sync every 16 examples; an
// in-process Aggregator runs PollOnce on a fourth thread.
//
// Metrics: examples_per_s (all workers, sync time included), the
// sequential UpdateBatch baseline of one partition, op_p50_us/op_p99_us
// (SyncClient::Sync latency, aggregator wait included), sync_kb. Output
// check: FetchMergedBytes is byte-identical to merging the workers' final
// models in ascending worker id in process.

#include <array>
#include <atomic>
#include <memory>
#include <sstream>
#include <thread>

#include "common.h"
#include "dist/aggregator.h"
#include "dist/worker.h"

namespace perfbench {

using namespace wmsketch;

namespace {

constexpr size_t kWorkers = 3;
constexpr size_t kPartition = 32768;
constexpr size_t kSyncEvery = 16;
constexpr int64_t kWindowNs = 500000000;
/// Windows run but not measured after set-up: the first second or so runs
/// at about half the steady rate.
constexpr int64_t kWarmupNs = 2000000000;
/// The sequential baseline's pass: a prefix of partition 0.
constexpr size_t kSeqExamples = 16384;
constexpr const char* kSocket = "agg.sock";
/// Where the set-up samples taken between windows bind their aggregator.
constexpr const char* kSampleSocket = "agg-setup.sock";
/// Set-up samples taken before the first window.
constexpr int kSetupReps = 3;

LearnerBuilder SyncBuilder() {
  return PaperBuilder().SetMethod(Method::kAwmSketch).SetWidth(65536).SetDepth(1).SetHeapCapacity(512);
}

struct Worker {
  std::optional<Learner> learner;
  std::unique_ptr<dist::SyncClient> client;
  size_t at = 0;
  uint64_t examples = 0;
  uint64_t pages_shipped = 0;
  uint64_t pages_total = 0;
  FailureCounter ops;
};

/// The aggregator and its poll thread, plus the workers. The poll thread
/// stops and joins before the workers' connections close and before the
/// aggregator is destroyed.
struct SyncRig {
  std::unique_ptr<dist::Aggregator> aggregator;
  std::atomic<bool> stop{false};
  std::thread poll_thread;
  std::array<Worker, kWorkers> workers;

  SyncRig() = default;
  SyncRig(const SyncRig&) = delete;
  SyncRig& operator=(const SyncRig&) = delete;
  ~SyncRig() {
    stop.store(true);
    if (poll_thread.joinable()) poll_thread.join();
  }
};

bool SetUp(SyncRig& rig, const std::vector<std::vector<Example>>& partitions,
           const char* socket) {
  Result<Learner> shape = SyncBuilder().Build();
  if (!shape.ok()) return false;
  dist::AggregatorOptions options;
  options.config = shape.value().config();
  options.opts = shape.value().options();
  Result<dist::Aggregator> created = dist::Aggregator::Create(options);
  if (!created.ok()) return false;
  rig.aggregator = std::make_unique<dist::Aggregator>(std::move(created).value());
  if (!rig.aggregator->Bind(socket).ok()) return false;
  rig.poll_thread = std::thread([&rig] {
    while (!rig.stop.load(std::memory_order_relaxed)) (void)rig.aggregator->PollOnce(2);
  });
  for (size_t w = 0; w < kWorkers; ++w) {
    Worker& worker = rig.workers[w];
    Result<Learner> built = SyncBuilder().Build();
    if (!built.ok()) return false;
    worker.learner.emplace(std::move(built).value());
    dist::SyncClientOptions copts;
    copts.worker_id = w + 1;
    copts.socket_path = socket;
    worker.client = std::make_unique<dist::SyncClient>(worker.learner->method(), copts);
    // Warm-up: the handshake, one sync interval of training and the first
    // (full) sync.
    if (!worker.client->Connect(worker.learner->impl()).ok()) return false;
    worker.learner->UpdateBatch(std::span<const Example>(partitions[w].data(), kSyncEvery));
    worker.at = kSyncEvery;
    if (!worker.client->Sync(worker.learner->impl()).ok()) return false;
  }
  return true;
}

/// One half-second window: all workers' examples/s (value), its Sync
/// latencies and the host's steal share meanwhile.
struct SyncWindow {
  double value = 0.0;
  double steal = 0.0;
  std::vector<double> sync_us;
};

struct PassResult {
  std::vector<SyncWindow> windows;
  /// The sequential passes run between windows.
  std::vector<WindowValue> seq_rates;

  /// Sync latencies of the usable windows, pooled.
  std::vector<double> SyncUs() const {
    std::vector<double> all;
    for (const SyncWindow* w : UsableWindows(windows)) {
      all.insert(all.end(), w->sync_us.begin(), w->sync_us.end());
    }
    return all;
  }
  /// Sync p99 per usable window, median over windows: one host hiccup in
  /// one window does not set the run's figure.
  double WindowP99() const {
    std::vector<double> p99;
    for (const SyncWindow* w : UsableWindows(windows)) {
      const LatencySummary s = Summarize(w->sync_us);
      if (s.p99_valid()) p99.push_back(s.tail);
    }
    return Median(p99);
  }
};

/// One window: the workers train and sync for kWindowNs.
void RunWindow(SyncRig& rig, const std::vector<std::vector<Example>>& partitions,
               const std::vector<Tracer::Buffer*>& buffers, PassResult& out) {
  std::vector<std::vector<double>> calls(kWorkers);
  uint64_t before = 0;
  for (const Worker& w : rig.workers) before += w.examples;
  const StealWindow steal;
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + kWindowNs;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Worker& worker = rig.workers[w];
      const std::vector<Example>& part = partitions[w];
      Tracer::Buffer* tb = buffers[w];
      while (NowNs() < deadline) {
        {
          ScopedSpan span(tb, "core.UpdateBatch", 0, kSyncEvery);
          worker.learner->UpdateBatch(std::span<const Example>(part.data() + worker.at, kSyncEvery));
        }
        worker.at = (worker.at + kSyncEvery) % part.size();
        worker.examples += kSyncEvery;
        const uint64_t deltas = worker.client->stats().delta_syncs;
        const int64_t s0 = NowNs();
        Status st;
        {
          ScopedSpan span(tb, "dist.Sync");
          st = worker.client->Sync(worker.learner->impl());
        }
        calls[w].push_back(static_cast<double>(NowNs() - s0) / 1e3);
        worker.ops.Record(st.ok());
        const dist::SyncStats& stats = worker.client->stats();
        if (stats.delta_syncs > deltas) {
          worker.pages_shipped += stats.last_pages_shipped;
          worker.pages_total += stats.last_pages_total;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t t1 = NowNs();
  uint64_t after = 0;
  for (const Worker& w : rig.workers) after += w.examples;
  SyncWindow window;
  window.value = static_cast<double>(after - before) * 1e9 / static_cast<double>(t1 - t0);
  window.steal = steal.Share();
  for (const std::vector<double>& c : calls) {
    window.sync_us.insert(window.sync_us.end(), c.begin(), c.end());
  }
  out.windows.push_back(std::move(window));
}

/// Times one set-up of a second rig on kSampleSocket into `setup` and tears
/// it down outside the clock; false if the set-up failed.
bool SampleSetup(const std::vector<std::vector<Example>>& partitions, SetupTimes& setup) {
  auto rig = std::make_unique<SyncRig>();
  bool ok = false;
  setup.Time([&] { ok = SetUp(*rig, partitions, kSampleSocket); });
  return ok;
}

/// Windows until `seconds` pass (at least three), each preceded by an
/// untraced sequential pass over a prefix of partition 0, so both rates
/// sample the whole run rather than one stretch of it, and by a set-up
/// sample when `setup` is given. With `warm_up`, kWarmupNs of windows run
/// first and are not measured.
PassResult RunPass(SyncRig& rig, const std::vector<std::vector<Example>>& partitions,
                   double seconds, Tracer& tracer, bool traced, bool warm_up, SetupTimes* setup,
                   bool& setup_ok) {
  std::vector<Tracer::Buffer*> buffers(kWorkers, nullptr);
  if (traced) {
    for (Tracer::Buffer*& b : buffers) b = tracer.NewBuffer();
  }
  const std::vector<Example> seq_stream(partitions[0].begin(),
                                        partitions[0].begin() + kSeqExamples);
  PassResult out;
  if (warm_up) {
    PassResult discarded;
    const std::vector<Tracer::Buffer*> untraced(kWorkers, nullptr);
    const int64_t warm_end = NowNs() + kWarmupNs;
    while (NowNs() < warm_end) RunWindow(rig, partitions, untraced, discarded);
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (out.windows.size() < 3 || NowNs() < deadline) {
    if (setup != nullptr) setup_ok = SampleSetup(partitions, *setup) && setup_ok;
    out.seq_rates.push_back(SequentialPass(SyncBuilder(), seq_stream, kSyncEvery, nullptr));
    RunWindow(rig, partitions, buffers, out);
  }
  return out;
}

}  // namespace

void RunSync(const RunOptions& o, Report& report) {
  // Inputs: one stream cut into disjoint per-worker partitions.
  const std::vector<Example> stream = GenerateStream(o.seed, kWorkers * kPartition);
  std::vector<std::vector<Example>> partitions(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    partitions[w].assign(stream.begin() + static_cast<ptrdiff_t>(w * kPartition),
                         stream.begin() + static_cast<ptrdiff_t>((w + 1) * kPartition));
  }

  // Set-up: aggregator created, bound and polling; learners built; workers
  // connected, handshaken and fully synced once. Sampled before the windows
  // (the last rig is kept) and again, on a second rig, between them; each
  // rig is torn down outside the clock.
  std::unique_ptr<SyncRig> rig;
  SetupTimes setup;
  bool setup_ok = true;
  for (int i = 0; i < kSetupReps && setup_ok; ++i) {
    rig.reset();
    rig = std::make_unique<SyncRig>();
    setup.Time([&] { setup_ok = SetUp(*rig, partitions, kSocket); });
  }
  report.Check(setup_ok, "aggregator started, workers connected and synced");
  if (!setup_ok) return;

  Tracer tracer;
  const StealWindow run_steal;
  const PassResult plain = RunPass(*rig, partitions, o.trace ? 0.5 * o.seconds : o.seconds,
                                   tracer, false, true, &setup, setup_ok);
  report.Check(setup_ok, "every set-up sample between windows started and synced");
  dist::SyncStats plain_stats;
  for (const Worker& w : rig->workers) {
    plain_stats.syncs += w.client->stats().syncs;
    plain_stats.bytes_shipped += w.client->stats().bytes_shipped;
  }
  report.Info("host_steal_frac", run_steal.Share(), "ratio");
  report.Info("windows_set_aside_for_steal",
              static_cast<double>(SetAsideWindows(plain.windows) + SetAsideWindows(plain.seq_rates)),
              "count");
  const LatencySummary sync_us = Summarize(plain.SyncUs());
  report.Check(sync_us.p99_valid(), "at least 1000 syncs for p99");
  report.EndToEnd("setup_s", setup.Median(), "s");
  report.Info("setup_samples", static_cast<double>(setup.count()), "count");
  report.EndToEnd("seq_examples_per_s", WindowMedian(plain.seq_rates), "1/s");
  report.EndToEnd("examples_per_s", WindowMedian(plain.windows), "1/s");
  report.EndToEnd("op_p50_us", sync_us.p50, "us");
  report.Info("op_p99_us", plain.WindowP99(), "us");
  report.Info("sync_p50_us", sync_us.p50, "us");
  report.Info("sync_p99_us", sync_us.tail, "us");
  report.Info("sync_samples", static_cast<double>(sync_us.count), "count");
  report.Info("sync_kb",
              static_cast<double>(plain_stats.bytes_shipped) / 1024.0 /
                  static_cast<double>(std::max<uint64_t>(1, plain_stats.syncs)),
              "kB");

  PassResult traced;
  dist::SyncStats before;
  uint64_t pages_shipped_before = 0;
  uint64_t pages_total_before = 0;
  double cpu_before = 0.0;
  int64_t wall_before = 0;
  if (o.trace) {
    for (const Worker& w : rig->workers) {
      before.syncs += w.client->stats().syncs;
      before.delta_syncs += w.client->stats().delta_syncs;
      before.retries += w.client->stats().retries;
      before.reconnects += w.client->stats().reconnects;
      pages_shipped_before += w.pages_shipped;
      pages_total_before += w.pages_total;
    }
    cpu_before = ThreadCpuSeconds(rig->poll_thread.native_handle());
    wall_before = NowNs();
    traced = RunPass(*rig, partitions, 0.5 * o.seconds, tracer, true, false, nullptr,
                     setup_ok);
  }
  const double agg_cpu = ThreadCpuSeconds(rig->poll_thread.native_handle()) - cpu_before;
  const double agg_wall = static_cast<double>(NowNs() - wall_before) / 1e9;

  // Output check: the aggregator's merged model equals the in-process merge
  // of the workers' final models in ascending worker id, byte for byte.
  dist::SyncStats total;
  uint64_t pages_shipped = 0;
  uint64_t pages_total = 0;
  for (Worker& w : rig->workers) {
    report.ops().Merge(w.ops);
    const dist::SyncStats& s = w.client->stats();
    total.syncs += s.syncs;
    total.delta_syncs += s.delta_syncs;
    total.retries += s.retries;
    total.reconnects += s.reconnects;
    pages_shipped += w.pages_shipped;
    pages_total += w.pages_total;
  }
  const Result<std::string> merged = rig->workers[0].client->FetchMergedBytes();
  report.ops().Record(merged.ok());
  std::unique_ptr<BudgetedClassifier> reference = rig->workers[0].learner->impl().Clone();
  bool merged_ok = true;
  for (size_t w = 1; w < kWorkers; ++w) {
    merged_ok = merged_ok && reference->Merge(rig->workers[w].learner->impl()).ok();
  }
  std::ostringstream want(std::ios::binary);
  merged_ok = merged_ok && SaveClassifier(rig->workers[0].learner->method(), *reference, want).ok();
  report.Check(merged.ok() && merged_ok && merged.value() == want.str(),
               "FetchMergedBytes byte-identical to the in-process merge in worker-id order");

  if (!o.trace || !merged.ok()) return;
  std::istringstream in(merged.value(), std::ios::binary);
  Result<Learner> loaded = LoadLearner(in, rig->workers[0].learner->options());
  report.Check(loaded.ok(), "merged model loads");
  if (!loaded.ok()) return;
  Learner merged_model = std::move(loaded).value();
  MeasureDirectReads(merged_model, partitions[0], o.seed, tracer.NewBuffer(), report);
  const std::vector<Span> spans = tracer.Collect();
  const auto self = SelfTimes(spans);
  ReportUpdateSpans(spans, self, report);
  const uint64_t traced_syncs = total.syncs - before.syncs;
  report.Layer("dist.delta_frac",
               static_cast<double>(total.delta_syncs - before.delta_syncs) /
                   static_cast<double>(std::max<uint64_t>(1, traced_syncs)),
               "ratio");
  const uint64_t traced_pages = pages_total - pages_total_before;
  report.Layer("dist.pages_shipped_frac",
               traced_pages == 0 ? 0.0
                                 : static_cast<double>(pages_shipped - pages_shipped_before) /
                                       static_cast<double>(traced_pages),
               "ratio");
  report.Layer("dist.retries", static_cast<double>(total.retries - before.retries), "count");
  report.Layer("dist.reconnects", static_cast<double>(total.reconnects - before.reconnects),
               "count");
  report.Layer("dist.agg_busy_frac", agg_cpu / agg_wall, "ratio");
  report.Layer("dist.agg_us_per_sync",
               agg_cpu * 1e6 / static_cast<double>(std::max<uint64_t>(1, traced_syncs)), "us");
  report.Layer("trace.overhead_frac",
               (WindowMedian(traced.windows) - WindowMedian(plain.windows)) /
                   WindowMedian(plain.windows),
               "ratio");
  WriteTrace(tracer, o, report);
}

}  // namespace perfbench

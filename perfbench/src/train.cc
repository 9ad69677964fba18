// Workload `train`: stream in → collapsed model. An AWM-Sketch at a 16 KB
// budget trained by a ShardedLearner with three shards plus the owner
// thread; the harness pushes 512-example blocks, calls SyncNow every 16384
// examples, then Collapse. Each trial trains a fresh engine on the same
// stream, alternating with a sequential UpdateBatch pass of the same stream.
//
// Metrics: examples_per_s (first push to Collapse return, median over
// trials), seq_examples_per_s, op_p50_us / op_p99_us (one block's hand-off:
// PushBatch, plus SyncNow on every 32nd block), RelErr@128 of the collapsed
// model against the uncompressed reference.

#include <cmath>
#include <cstring>

#include "common.h"
#include "engine/sharded_learner.h"
#include "linear/dense_linear_model.h"
#include "metrics/recovery.h"
#include "util/memory_cost.h"

namespace perfbench {

using namespace wmsketch;

namespace {

constexpr uint32_t kShards = 3;
constexpr size_t kSyncEvery = 16384;
constexpr size_t kBlock = 512;
constexpr size_t kExamples = 12 * kSyncEvery;
constexpr size_t kTopK = 128;
/// Set-up samples taken before the first trial, and before each trial.
constexpr int kSetupReps = 5;
constexpr int kSetupPerTrial = 3;

LearnerBuilder TrainBuilder() {
  return PaperBuilder().SetMethod(Method::kAwmSketch).SetBudgetBytes(KiB(16));
}

bool SameBits(const std::vector<FeatureWeight>& a, const std::vector<FeatureWeight>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(FeatureWeight)) == 0);
}

struct EngineTrial {
  bool ok = false;
  /// Host steal share during the trial (see UsableWindows).
  double steal = 0.0;
  /// Examples/s, first push to Collapse return.
  double value = 0.0;
  std::vector<double> block_us;
  std::vector<FeatureWeight> top;
  uint64_t syncs = 0;
  double shard_skew = 0.0;
};

/// One engine trial over the whole stream; the collapsed model is left in
/// `*collapsed`.
EngineTrial RunEngineTrial(const std::vector<Example>& stream, FailureCounter& ops,
                           Tracer::Buffer* tb, std::optional<Learner>* collapsed) {
  EngineTrial out;
  Result<ShardedLearner> built = TrainBuilder().Shards(kShards).BuildSharded();
  ops.Record(built.ok());
  if (!built.ok()) return out;
  ShardedLearner engine = std::move(built).value();

  ScopedSpan trial(tb, "train.trial", 0, stream.size());
  const StealWindow steal;
  const int64_t t0 = NowNs();
  bool ok = true;
  for (size_t at = 0; at < stream.size(); at += kBlock) {
    const size_t n = std::min(kBlock, stream.size() - at);
    const int64_t b0 = NowNs();
    {
      ScopedSpan span(tb, "engine.PushBatch", trial.id(), n);
      const Status st = engine.PushBatch(std::span<const Example>(stream.data() + at, n));
      ops.Record(st.ok());
      ok = ok && st.ok();
    }
    if ((at + n) % kSyncEvery == 0) {
      ScopedSpan span(tb, "engine.SyncNow", trial.id());
      const Status st = engine.SyncNow();
      ops.Record(st.ok());
      ok = ok && st.ok();
    }
    out.block_us.push_back(static_cast<double>(NowNs() - b0) / 1e3);
  }
  const ShardedLearnerStats stats = engine.Stats();
  Result<Learner> merged = [&] {
    ScopedSpan span(tb, "engine.Collapse", trial.id());
    return engine.Collapse();
  }();
  const int64_t t1 = NowNs();
  ops.Record(merged.ok());
  if (!ok || !merged.ok()) return out;

  out.ok = true;
  out.steal = steal.Share();
  out.value = static_cast<double>(stream.size()) * 1e9 / static_cast<double>(t1 - t0);
  out.top = merged.value().TopK(kTopK);
  out.syncs = stats.syncs;
  double sum = 0.0;
  double max = 0.0;
  for (const uint64_t n : stats.per_shard) {
    sum += static_cast<double>(n);
    max = std::max(max, static_cast<double>(n));
  }
  out.shard_skew = sum == 0.0 ? 0.0 : max / (sum / static_cast<double>(stats.per_shard.size()));
  collapsed->emplace(std::move(merged).value());
  return out;
}

struct PassResult {
  std::vector<EngineTrial> trials;
  std::vector<WindowValue> seq_rates;
  /// Block hand-off latencies of the usable trials.
  std::vector<double> BlockUs() const {
    std::vector<double> all;
    for (const EngineTrial* t : UsableWindows(trials)) {
      all.insert(all.end(), t->block_us.begin(), t->block_us.end());
    }
    return all;
  }
};

}  // namespace

void RunTrain(const RunOptions& o, Report& report) {
  // Inputs and the uncompressed reference, before any set-up.
  const std::vector<Example> stream = GenerateStream(o.seed, kExamples);
  LearnerOptions ref_opts;
  ref_opts.lambda = 1e-6;
  ref_opts.rate = LearningRate::InverseSqrt(0.1);
  ref_opts.seed = 42;
  DenseLinearModel reference(ClassificationProfile::Rcv1Like().dimension, ref_opts);
  for (const Example& ex : stream) reference.Update(ex.x, ex.y);
  const std::vector<float> w_star = reference.Weights();

  // Set-up: what a trial does before its first timed block — build the
  // engine (its shard threads start) and the sequential learner — plus a
  // warm-up of one block and one sync. Sampled before the trials and again
  // before each one; the engine is destroyed outside the clock.
  FailureCounter& ops = report.ops();
  SetupTimes setup;
  const auto sample_setup = [&] {
    std::optional<ShardedLearner> engine;
    std::optional<Learner> seq;
    setup.Time([&] {
      Result<ShardedLearner> built = TrainBuilder().Shards(kShards).BuildSharded();
      Result<Learner> built_seq = TrainBuilder().Build();
      ops.Record(built.ok() && built_seq.ok());
      if (!built.ok() || !built_seq.ok()) return;
      engine.emplace(std::move(built).value());
      seq.emplace(std::move(built_seq).value());
      ops.Record(engine->PushBatch(std::span<const Example>(stream.data(), kBlock)).ok());
      ops.Record(engine->SyncNow().ok());
    });
  };
  for (int i = 0; i < kSetupReps; ++i) sample_setup();

  Tracer tracer;
  Tracer::Buffer* traced = o.trace ? tracer.NewBuffer() : nullptr;
  std::optional<Learner> collapsed;
  std::optional<Learner> seq_model;
  std::vector<FeatureWeight> first_top;
  std::vector<FeatureWeight> first_seq_top;
  bool engine_repeatable = true;
  bool seq_repeatable = true;
  bool all_ok = true;

  const auto run_pass = [&](double seconds, Tracer::Buffer* tb) {
    PassResult pass;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (pass.trials.size() < 3 || NowNs() < deadline) {
      for (int i = 0; i < kSetupPerTrial; ++i) sample_setup();
      EngineTrial trial = RunEngineTrial(stream, ops, tb, &collapsed);
      all_ok = all_ok && trial.ok;
      if (!trial.ok) break;
      if (first_top.empty()) first_top = trial.top;
      engine_repeatable = engine_repeatable && SameBits(first_top, trial.top);
      pass.trials.push_back(std::move(trial));

      const WindowValue seq_rate = SequentialPass(TrainBuilder(), stream, kBlock, tb, &seq_model);
      ops.Record(seq_rate.value > 0.0);
      all_ok = all_ok && seq_rate.value > 0.0;
      if (seq_rate.value == 0.0) break;
      pass.seq_rates.push_back(seq_rate);
      const std::vector<FeatureWeight> seq_top = seq_model->TopK(kTopK);
      if (first_seq_top.empty()) first_seq_top = seq_top;
      seq_repeatable = seq_repeatable && SameBits(first_seq_top, seq_top);
    }
    return pass;
  };

  const StealWindow run_steal;
  const PassResult plain = run_pass(o.trace ? o.seconds / 2 : o.seconds, nullptr);
  const double steal_share = run_steal.Share();
  report.Check(all_ok, "every engine trial pushed, synced and collapsed");
  if (!all_ok) return;

  const double rel_err = RelErrTopK(first_top, w_star, kTopK);
  const double seq_rel_err = RelErrTopK(first_seq_top, w_star, kTopK);
  report.Check(engine_repeatable,
               "collapsed top-128 bit-identical across every trial of this seed");
  report.Check(seq_repeatable, "sequential top-128 bit-identical across every trial");
  report.Check(std::isfinite(rel_err) && rel_err <= 1.5 * seq_rel_err,
               "collapsed RelErr@128 within 1.5x of the sequential learner's");
  report.Check(plain.trials.back().syncs == kExamples / kSyncEvery,
               "one engine sync per SyncNow call");

  const LatencySummary blocks = Summarize(plain.BlockUs());
  report.Check(blocks.p99_valid(), "at least 1000 block hand-offs for p99");
  report.EndToEnd("setup_s", setup.Median(), "s");
  report.Info("setup_samples", static_cast<double>(setup.count()), "count");
  report.EndToEnd("examples_per_s", WindowMedian(plain.trials), "1/s");
  report.EndToEnd("seq_examples_per_s", WindowMedian(plain.seq_rates), "1/s");
  report.EndToEnd("op_p50_us", blocks.p50, "us");
  report.Info("op_p99_us", blocks.tail, "us");
  report.Info("rel_err_top128", rel_err, "ratio");
  report.Info("seq_rel_err_top128", seq_rel_err, "ratio");
  report.Info("trials", static_cast<double>(plain.trials.size()), "count");
  report.Info("trials_set_aside_for_steal",
              static_cast<double>(SetAsideWindows(plain.trials) + SetAsideWindows(plain.seq_rates)),
              "count");
  report.Info("host_steal_frac", steal_share, "ratio");
  report.Info("op_samples", static_cast<double>(blocks.count), "count");
  report.Info("op_tail_pct", blocks.tail_pct, "pct");

  if (!o.trace) return;
  const PassResult pass = run_pass(o.seconds / 2, traced);
  report.Check(all_ok, "every traced trial pushed, synced and collapsed");
  if (!all_ok) return;
  MeasureDirectReads(*collapsed, stream, o.seed, traced, report);
  const std::vector<Span> spans = tracer.Collect();
  const auto self = SelfTimes(spans);
  ReportUpdateSpans(spans, self, report);
  const SpanTotals push = TotalsFor(spans, self, "engine.PushBatch");
  const SpanTotals sync = TotalsFor(spans, self, "engine.SyncNow");
  const SpanTotals collapse = TotalsFor(spans, self, "engine.Collapse");
  const LatencySummary sync_us = Summarize(sync.durations_us);
  report.Layer("engine.push_ns_per_example",
               static_cast<double>(push.self_ns) / static_cast<double>(push.items), "ns");
  report.Layer("engine.sync_ms_p50", sync_us.p50 / 1e3, "ms");
  report.Layer("engine.sync_ms_max", sync_us.max / 1e3, "ms");
  report.Layer("engine.syncs", static_cast<double>(pass.trials.back().syncs), "count");
  report.Layer("engine.collapse_ms", Summarize(collapse.durations_us).p50 / 1e3, "ms");
  report.Layer("engine.shard_skew", pass.trials.back().shard_skew, "ratio");
  const double untraced = WindowMedian(plain.trials);
  report.Layer("trace.overhead_frac", (WindowMedian(pass.trials) - untraced) / untraced, "ratio");
  WriteTrace(tracer, o, report);
}

}  // namespace perfbench

#include "common.h"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "engine/serving.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/zipf.h"

namespace perfbench {

using namespace wmsketch;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonValues(const std::map<std::string, Report::Value>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + JsonNumber(v.value) +
           ", \"unit\": " + JsonString(v.unit) + "}";
    first = false;
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Threshold(uint32_t t) { return t == UINT32_MAX ? "off" : std::to_string(t); }

}  // namespace

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back((ok ? "pass: " : "FAIL: ") + what);
  if (!ok) check_failures_.push_back(what);
}

void Report::PrintHuman(const RunOptions& o) const {
  std::printf("== perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", o.workload.c_str(),
              o.seed, o.seconds, o.trace ? 1 : 0);
  for (const auto& [k, v] : facts_) std::printf("  fact   %-28s %s\n", k.c_str(), v.c_str());
  for (const std::string& c : checks_) std::printf("  check  %s\n", c.c_str());
  std::printf("  ops    attempted=%" PRIu64 " failed=%" PRIu64 " failed_frac=%.6g\n",
              ops_.attempted(), ops_.failed(), ops_.Fraction());
  const auto print = [](const char* kind, const std::map<std::string, Value>& m) {
    for (const auto& [k, v] : m) {
      std::printf("  %-6s %-28s %14.6g %s\n", kind, k.c_str(), v.value, v.unit.c_str());
    }
  };
  print("e2e", end_to_end_);
  print("info", info_);
  print("layer", per_layer_);
  std::fflush(stdout);
}

std::string Report::ToJsonLine(const RunOptions& o) const {
  std::string out = "{\"workload\": " + JsonString(o.workload);
  out += ", \"seed\": " + std::to_string(o.seed);
  out += ", \"trace\": " + std::string(o.trace ? "1" : "0");
  out += ", \"correct\": " + std::string(correct() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(ops_.attempted());
  out += ", \"failed\": " + std::to_string(ops_.failed());
  out += ", \"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) out += (i ? ", " : "") + JsonString(checks_[i]);
  out += "], \"end_to_end\": " + JsonValues(end_to_end_);
  out += ", \"per_layer\": " + JsonValues(per_layer_);
  out += ", \"info\": " + JsonValues(info_);
  out += ", \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : facts_) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  return out + "}}";
}

void RecordFacts(const RunOptions& o, Report& report) {
  simd::CalibrateGather();
  report.Fact("seed", std::to_string(o.seed));
  report.Fact("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.Fact("cpu_model", CpuModel());
  report.Fact("build_type", WMS_PERFBENCH_BUILD_TYPE);
  report.Fact("wms_simd", WMS_PERFBENCH_SIMD ? "ON" : "OFF");
  report.Fact("compiler", __VERSION__);
  report.Fact("kernel", simd::ActiveKernel());
  const simd::KernelThresholds t = simd::Thresholds();
  std::ostringstream routes;
  routes << "gather>=" << Threshold(t.gather_min_entries)
         << " paged_gather>=" << Threshold(t.paged_gather_min_entries)
         << " fused_median>=" << Threshold(t.fused_median_min_keys)
         << " scatter>=" << Threshold(t.scatter_min_nnz)
         << " read_plan(1024)=" << (simd::ReadPlanDispatched(1024) ? "plan" : "fused")
         << " paged_read_plan(1024)=" << (simd::PagedReadPlanDispatched(1024) ? "plan" : "fused")
         << " fused_median(64)=" << (simd::FusedMedianDispatched(64) ? "on" : "off");
  report.Fact("kernel_routes", routes.str());
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ThreadCpuSeconds(std::thread::native_handle_type thread) {
  clockid_t clock{};
  if (::pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));  // user nice system idle iowait irq softirq steal
}

StealWindow::StealWindow() : steal0_(HostStealSeconds()), t0_(NowNs()) {}

double StealWindow::Share() const {
  const double wall = static_cast<double>(NowNs() - t0_) / 1e9;
  const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return wall <= 0.0 ? 0.0 : (HostStealSeconds() - steal0_) / (wall * cpus);
}

void SetupTimes::Time(const std::function<void()>& setup) {
  const int64_t t0 = NowNs();
  setup();
  seconds_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
}

std::vector<Example> GenerateStream(uint64_t seed, size_t n) {
  SyntheticClassificationGen gen(ClassificationProfile::Rcv1Like(), seed);
  std::vector<Example> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

LearnerBuilder PaperBuilder() {
  return LearnerBuilder().SetLambda(1e-6).SetLearningRate(LearningRate::InverseSqrt(0.1)).SetSeed(42);
}

WindowValue SequentialPass(const LearnerBuilder& builder, const std::vector<Example>& stream,
                           size_t batch, Tracer::Buffer* tb, std::optional<Learner>* trained) {
  Result<Learner> built = builder.Build();
  if (!built.ok()) return {0.0, 1.0};
  Learner learner = std::move(built).value();
  const StealWindow steal;
  const int64_t t0 = NowNs();
  for (size_t at = 0; at < stream.size(); at += batch) {
    const size_t n = std::min(batch, stream.size() - at);
    ScopedSpan span(tb, "core.UpdateBatch", 0, n);
    learner.UpdateBatch(std::span<const Example>(stream.data() + at, n));
  }
  const WindowValue rate{
      static_cast<double>(stream.size()) * 1e9 / static_cast<double>(NowNs() - t0), steal.Share()};
  if (trained != nullptr) trained->emplace(std::move(learner));
  return rate;
}

void MeasureDirectReads(Learner& learner, const std::vector<Example>& queries, uint64_t seed,
                        Tracer::Buffer* tb, Report& report) {
  Result<ServingHandle> acquired = learner.AcquireServingHandle();
  report.Check(acquired.ok(), "direct reads: serving handle acquired");
  if (!acquired.ok()) return;
  ServingHandle handle = std::move(acquired).value();
  constexpr int kCalls = 2000;
  const ZipfSampler zipf(ClassificationProfile::Rcv1Like().dimension, 1.1);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<uint32_t> ids(16 * kCalls);
  for (uint32_t& id : ids) id = static_cast<uint32_t>(zipf.Sample(rng));

  std::vector<double> predict_us;
  std::vector<double> estimate_us;
  std::vector<double> topk_us;
  double margin = 0.0;
  float estimates[16];
  double sink = 0.0;
  for (int i = 0; i < kCalls; ++i) {
    const Example& q = queries[static_cast<size_t>(i) % queries.size()];
    {
      ScopedSpan span(tb, "core.PredictBatch", 0, 1);
      const int64_t t0 = NowNs();
      handle.PredictBatch(std::span<const Example>(&q, 1), &margin);
      predict_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    {
      ScopedSpan span(tb, "core.EstimateBatch", 0, 16);
      const int64_t t0 = NowNs();
      handle.EstimateBatch(std::span<const uint32_t>(ids.data() + 16 * i, 16), estimates);
      estimate_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    {
      ScopedSpan span(tb, "core.TopK", 0, 64);
      const int64_t t0 = NowNs();
      const std::vector<FeatureWeight> top = handle.TopK(64);
      topk_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      sink += top.empty() ? 0.0 : top.front().weight;
    }
    sink += margin + estimates[0];
  }
  report.Check(std::isfinite(sink), "direct reads: finite answers");
  report.Layer("core.predict_us", Summarize(predict_us).p50, "us");
  report.Layer("core.estimate_us", Summarize(estimate_us).p50, "us");
  report.Layer("core.topk_us", Summarize(topk_us).p50, "us");
}

void WriteTrace(const Tracer& tracer, const RunOptions& o, Report& report) {
  ::mkdir("traces", 0755);
  const std::string path =
      "traces/" + o.workload + "-seed" + std::to_string(o.seed) + ".trace.json";
  report.Check(tracer.WriteJson(path), "spans written to " + path);
}

void ReportUpdateSpans(const std::vector<Span>& spans,
                       const std::unordered_map<uint64_t, int64_t>& self, Report& report) {
  const SpanTotals t = TotalsFor(spans, self, "core.UpdateBatch");
  if (t.items > 0) {
    report.Layer("core.update_ns_per_example",
                 static_cast<double>(t.self_ns) / static_cast<double>(t.items), "ns");
  }
}

}  // namespace perfbench

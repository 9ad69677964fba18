#pragma once

// Shared pieces of the three workloads: run options, the result report, the
// machine and build facts, input generation and the direct read probes.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/learner.h"
#include "datagen/classification_gen.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run measured. `end_to_end` and `per_layer` use the names
/// in BENCHMARK.json; `info` keeps further named figures (the per-path
/// names such as request_p99_us or sustained_qps) for the human report.
class Report {
 public:
  struct Value {
    double value = 0.0;
    std::string unit;
  };

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer_[name] = {value, unit};
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info_[name] = {value, unit};
  }
  void Fact(const std::string& name, const std::string& value) { facts_[name] = value; }

  /// An output check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// The run's operation counts (per-thread counters merge into it).
  FailureCounter& ops() { return ops_; }

  bool correct() const { return check_failures_.empty(); }

  /// Human-readable report (several lines) followed by nothing.
  void PrintHuman(const RunOptions& o) const;
  /// The single-line machine result: {"workload", "correct", "attempted",
  /// "failed", "checks", "end_to_end", "per_layer", "info", "facts"}.
  std::string ToJsonLine(const RunOptions& o) const;

 private:
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> per_layer_;
  std::map<std::string, Value> info_;
  std::map<std::string, std::string> facts_;
  std::vector<std::string> checks_;
  std::vector<std::string> check_failures_;
  FailureCounter ops_;
};

/// Machine and build facts recorded in every result: nproc, CPU model,
/// build type, WMS_SIMD, the kernel routes calibration chose, compiler.
/// Runs the kernel calibration first if nothing has yet.
void RecordFacts(const RunOptions& o, Report& report);

/// Process peak resident set so far, in MB.
double PeakRssMb();

/// CPU time a thread has consumed, in seconds (pthread CPU-time clock).
double ThreadCpuSeconds(std::thread::native_handle_type thread);

/// CPU time the hypervisor gave to other guests while this VM's CPUs were
/// runnable (the "steal" column of /proc/stat), in CPU-seconds since boot;
/// 0 where the kernel does not report it.
double HostStealSeconds();

/// Host steal over one measurement window (a trial, a window, a pass).
class StealWindow {
 public:
  StealWindow();
  /// Share of this VM's CPU time the hypervisor took since construction.
  double Share() const;

 private:
  double steal0_;
  int64_t t0_;
};

/// One window's measurement and the host's steal share during it.
struct WindowValue {
  double value = 0.0;
  double steal = 0.0;
};

/// The windows a figure is taken from. A window during which the hypervisor
/// took CPU from this VM measured the host as much as the program, and a
/// preempted vCPU stalls every thread on it for milliseconds. Windows whose
/// steal share exceeds both 0.5% and the run's median are set aside, so a
/// quiet run keeps every window and a contended one keeps its quieter half;
/// all are kept when fewer than three would remain.
template <typename T>
std::vector<const T*> UsableWindows(const std::vector<T>& windows) {
  std::vector<double> shares;
  for (const T& w : windows) shares.push_back(w.steal);
  const double limit = std::max(0.005, Median(shares));
  std::vector<const T*> usable;
  std::vector<const T*> all;
  for (const T& w : windows) {
    all.push_back(&w);
    if (w.steal <= limit) usable.push_back(&w);
  }
  return usable.size() >= 3 ? usable : all;
}

/// Median of the usable windows' values.
template <typename T>
double WindowMedian(const std::vector<T>& windows) {
  std::vector<double> values;
  for (const T* w : UsableWindows(windows)) values.push_back(w->value);
  return Median(values);
}

/// How many windows host steal set aside (for the report).
template <typename T>
size_t SetAsideWindows(const std::vector<T>& windows) {
  return windows.size() - UsableWindows(windows).size();
}

/// Set-up times sampled over a run. Each sample times one complete set-up;
/// the caller tears down what the previous one built before, outside the
/// clock. Workloads take a few samples before measuring and one more between
/// measurement windows, so the median reflects the host over the whole run
/// rather than at one instant.
class SetupTimes {
 public:
  /// Times one call of `setup`.
  void Time(const std::function<void()>& setup);
  /// Median of the samples, in seconds.
  double Median() const { return perfbench::Median(seconds_); }
  size_t count() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_;
};

/// `n` examples of the RCV1-like synthetic stream (planted signal).
std::vector<wmsketch::Example> GenerateStream(uint64_t seed, size_t n);

/// The paper's learner settings: λ = 1e-6, η_t = 0.1/√t, model seed 42.
wmsketch::LearnerBuilder PaperBuilder();

/// One single-threaded pass: a fresh learner from `builder` takes `stream`
/// in `batch`-sized UpdateBatch calls (spans "core.UpdateBatch" to `tb`).
/// Returns examples/s (0 if the build failed) and the host's steal share
/// meanwhile; the trained learner is left in `*trained` when given.
WindowValue SequentialPass(const wmsketch::LearnerBuilder& builder,
                           const std::vector<wmsketch::Example>& stream, size_t batch,
                           Tracer::Buffer* tb,
                           std::optional<wmsketch::Learner>* trained = nullptr);

/// Request-shaped direct ServingHandle calls on `learner`'s published
/// snapshot: single-example PredictBatch, 16-id EstimateBatch, TopK(64).
/// Reports core.predict_us / core.estimate_us / core.topk_us (medians).
void MeasureDirectReads(wmsketch::Learner& learner, const std::vector<wmsketch::Example>& queries,
                        uint64_t seed, Tracer::Buffer* tb, Report& report);

/// Writes the tracer's spans under traces/ (relative to the run directory).
void WriteTrace(const Tracer& tracer, const RunOptions& o, Report& report);

/// Derives core.update_ns_per_example from "core.UpdateBatch" spans.
void ReportUpdateSpans(const std::vector<Span>& spans,
                       const std::unordered_map<uint64_t, int64_t>& self, Report& report);

/// The workloads. Each generates its inputs from o.seed, sets up, measures
/// for o.seconds and checks its outputs into `report`.
void RunTrain(const RunOptions& o, Report& report);
void RunServe(const RunOptions& o, Report& report);
void RunSync(const RunOptions& o, Report& report);

}  // namespace perfbench

#pragma once

// Shared support for the figure/table reproduction binaries: aligned table
// printing, the standard method sweep, and stream-size knobs.
//
// Every binary prints the rows/series of one paper figure or table (see
// DESIGN.md §3). Stream lengths are laptop-scale; set WMS_BENCH_SCALE
// (a positive float, default 1.0) to shrink or grow them uniformly.
//
// All budgeted models are built through the LearnerBuilder facade, ingested
// through UpdateBatch, and evaluated through LearnerSnapshot — the benches
// exercise exactly the public API a production consumer would use.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/learner.h"
#include "core/budget.h"
#include "datagen/classification_gen.h"
#include "datagen/sparsity_profile.h"
#include "linear/dense_linear_model.h"
#include "metrics/online_error.h"
#include "metrics/recovery.h"
#include "stream/libsvm_io.h"
#include "util/memory_cost.h"

namespace wmsketch::bench {

/// Multiplies a default stream length by the WMS_BENCH_SCALE env var.
inline int ScaledCount(int base) {
  static const double scale = [] {
    const char* s = std::getenv("WMS_BENCH_SCALE");
    if (s == nullptr) return 1.0;
    const double v = std::atof(s);
    return v > 0.0 ? v : 1.0;
  }();
  return static_cast<int>(base * scale);
}

/// Percentile (q in [0, 100], linear interpolation between order statistics)
/// of a sample set; sorts `samples` in place. 0 on an empty set so a bench
/// row for a workload that produced no samples stays printable.
inline double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Prints a header line followed by a rule, e.g. for figure banners.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Fixed-width row printing: each cell 12 chars, left-aligned first column.
inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-22s" : "%12s", cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Scans argv for `--json <path>`; returns the path, or "" when the flag is
/// absent. Benches print their human-readable tables unconditionally and
/// additionally write machine-readable rows when the flag is given, e.g.
///   ./bench_fig4_budget_sweep --json BENCH_fig4.json
inline std::string JsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return "";
}

/// Scans argv for `<flag> <positive int>` (e.g. `--reps 3`, `--readers 8`);
/// returns `fallback` when absent or non-positive.
inline int IntFlagArg(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      const int value = std::atoi(argv[i + 1]);
      if (value > 0) return value;
    }
  }
  return fallback;
}

/// Scans argv for `<flag> <value>`; returns "" when the flag is absent.
inline std::string StrFlagArg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return "";
}

/// Collector for a bench's machine-readable output: flat rows of named
/// numbers/strings, written as {"bench": <name>, "rows": [{...}, ...]}.
/// Append with Row() then Num/Str (which attach to the latest row):
///
///   BenchJson json("fig4_budget_sweep");
///   json.Row().Num("budget_kb", kb).Str("method", name).Num("rel_err", e);
///   json.WriteIfRequested(argc, argv);
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  /// Starts a new (empty) row; Num/Str calls fill it until the next Row().
  BenchJson& Row() {
    rows_.emplace_back();
    return *this;
  }
  BenchJson& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    CurrentRow().emplace_back(key, buf);
    return *this;
  }
  BenchJson& Str(const std::string& key, const std::string& value) {
    CurrentRow().emplace_back(key, Quote(value));
    return *this;
  }

  /// Writes to `path`; returns false (with a note on stderr) on I/O failure.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\": %s, \"rows\": [", Quote(name_).c_str());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      for (size_t c = 0; c < rows_[r].size(); ++c) {
        std::fprintf(f, "%s%s: %s", c == 0 ? "" : ", ", Quote(rows_[r][c].first).c_str(),
                     rows_[r][c].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

  /// WriteTo the `--json <path>` argument if present; no-op otherwise.
  void WriteIfRequested(int argc, char** argv) const {
    const std::string path = JsonPathArg(argc, argv);
    if (!path.empty() && WriteTo(path)) {
      std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    }
  }

 private:
  /// Num/Str before any Row() open one implicitly rather than indexing into
  /// an empty vector.
  std::vector<std::pair<std::string, std::string>>& CurrentRow() {
    if (rows_.empty()) rows_.emplace_back();
    return rows_.back();
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// One example stream a hot-path bench measures, plus how to label its rows.
struct BenchStreamSpec {
  /// Appended to every config label in tables and JSON rows ("" for the
  /// default synthetic stream, "_<profile name>" / "_<dataset stem>"
  /// otherwise), so rows from different streams never collide on the
  /// (config, kernel) key check_perf.py joins baselines on.
  std::string suffix;
  /// Feature-id domain for point-estimate sampling.
  uint32_t dimension = 0;
  std::vector<Example> examples;
};

/// "path/to/rcv1_train.txt.gz" → "rcv1_train".
inline std::string DatasetStem(const std::string& path) {
  std::string stem = path;
  if (const size_t slash = stem.find_last_of('/'); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (stem.size() > 3 && stem.compare(stem.size() - 3, 3, ".gz") == 0) {
    stem = stem.substr(0, stem.size() - 3);
  }
  if (const size_t dot = stem.find_last_of('.'); dot != std::string::npos && dot > 0) {
    stem = stem.substr(0, dot);
  }
  return stem;
}

/// Resolves the streams a hot-path bench measures from its flags:
///
///   --libsvm <path[.gz]>     measure a real dataset instead of the default
///                            synthetic stream (rows suffixed _<stem>)
///   --profile <path.json>    additionally measure a committed sparsity
///                            profile replayed deterministically (rows
///                            suffixed _<profile name>) — the committable
///                            stand-in for datasets that cannot ship
///   --dump-profile <out>     with --libsvm: measure the dataset's sparsity
///                            profile and write it as JSON (how committed
///                            profiles are made)
///
/// Any malformed input aborts with the parse error (path:line) — a bench
/// that silently fell back to synthetic data would poison every committed
/// baseline row derived from the run.
inline std::vector<BenchStreamSpec> ResolveBenchStreams(int argc, char** argv,
                                                        const ClassificationProfile& synthetic,
                                                        int examples, uint64_t seed) {
  std::vector<BenchStreamSpec> streams;
  const std::string libsvm_path = StrFlagArg(argc, argv, "--libsvm");
  const std::string profile_path = StrFlagArg(argc, argv, "--profile");
  const std::string dump_path = StrFlagArg(argc, argv, "--dump-profile");

  if (!libsvm_path.empty()) {
    Result<std::vector<Example>> r = ReadLibsvmFile(libsvm_path);
    if (!r.ok()) {
      std::fprintf(stderr, "--libsvm: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    BenchStreamSpec spec;
    // Appended, not "_" + DatasetStem(...): gcc 12 reports a false
    // -Wrestrict overlap inside that operator+.
    spec.suffix = "_";
    spec.suffix += DatasetStem(libsvm_path);
    for (const Example& ex : r.value()) {
      spec.dimension = std::max<uint32_t>(
          spec.dimension, ex.x.empty() ? 1 : ex.x.index(ex.x.nnz() - 1) + 1);
    }
    spec.examples = std::move(r).value();
    if (!dump_path.empty()) {
      Result<SparsityProfile> p =
          MeasureSparsityProfile(spec.examples, DatasetStem(libsvm_path) + "_replay");
      if (!p.ok()) {
        std::fprintf(stderr, "--dump-profile: %s\n", p.status().ToString().c_str());
        std::exit(1);
      }
      std::FILE* f = std::fopen(dump_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "--dump-profile: cannot write %s\n", dump_path.c_str());
        std::exit(1);
      }
      const std::string json = FormatSparsityProfileJson(p.value());
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote sparsity profile %s\n", dump_path.c_str());
    }
    streams.push_back(std::move(spec));
  } else {
    if (!dump_path.empty()) {
      std::fprintf(stderr, "--dump-profile requires --libsvm\n");
      std::exit(1);
    }
    BenchStreamSpec spec;
    spec.dimension = synthetic.dimension;
    SyntheticClassificationGen gen(synthetic, seed);
    spec.examples.reserve(static_cast<size_t>(examples));
    for (int i = 0; i < examples; ++i) spec.examples.push_back(gen.Next());
    streams.push_back(std::move(spec));
  }

  if (!profile_path.empty()) {
    Result<SparsityProfile> p = LoadSparsityProfile(profile_path);
    if (!p.ok()) {
      std::fprintf(stderr, "--profile: %s\n", p.status().ToString().c_str());
      std::exit(1);
    }
    BenchStreamSpec spec;
    spec.suffix = "_" + p.value().name;
    spec.dimension = p.value().dimension;
    SparsityReplayGen gen(p.value(), seed);
    spec.examples.reserve(static_cast<size_t>(examples));
    for (int i = 0; i < examples; ++i) spec.examples.push_back(gen.Next());
    streams.push_back(std::move(spec));
  }
  return streams;
}

/// The paper's standard learner settings (η0 = 0.1, inverse-sqrt decay).
inline LearnerOptions PaperOptions(double lambda, uint64_t seed) {
  LearnerOptions opts;
  opts.lambda = lambda;
  opts.rate = LearningRate::InverseSqrt(0.1);
  opts.seed = seed;
  return opts;
}

/// A builder pre-loaded with the paper's standard settings.
inline LearnerBuilder PaperBuilder(double lambda, uint64_t seed) {
  return LearnerBuilder()
      .SetLambda(lambda)
      .SetLearningRate(LearningRate::InverseSqrt(0.1))
      .SetSeed(seed);
}

/// Unwraps a Result<Learner>, aborting with the status on failure. Bench
/// configurations are static and known-valid; a failure here is a bug.
inline Learner BuildOrDie(Result<Learner> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "learner build failed: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Result of training one budgeted method alongside the reference model.
struct MethodRun {
  std::string name;
  double rel_err = 0.0;     // RelErr of estimated top-K vs uncompressed w*
  double error_rate = 0.0;  // progressive-validation error
  size_t bytes = 0;
};

/// Trains every method in `methods` (plus the dense LR reference) on the
/// identical stream of `examples` examples drawn from `profile` with `seed`,
/// and evaluates top-`k` recovery against the reference.
struct SweepOutput {
  std::vector<MethodRun> runs;
  double lr_error_rate = 0.0;
};

inline SweepOutput RunMethodSweep(const ClassificationProfile& profile,
                                  const std::vector<Method>& methods, size_t budget_bytes,
                                  size_t k, double lambda, uint64_t seed, int examples) {
  std::vector<Learner> models;
  models.reserve(methods.size());
  for (const Method m : methods) {
    models.push_back(
        BuildOrDie(PaperBuilder(lambda, seed).SetMethod(m).SetBudgetBytes(budget_bytes).Build()));
  }
  DenseLinearModel reference(profile.dimension, PaperOptions(lambda, seed));

  std::vector<OnlineErrorRate> errors(models.size());
  OnlineErrorRate lr_error;
  SyntheticClassificationGen gen(profile, seed ^ 0xabcdef12345ULL);

  // Chunked ingest through the batch path: one virtual dispatch per model
  // per chunk, with the pre-update margins driving progressive validation.
  constexpr int kChunk = 512;
  std::vector<Example> chunk;
  std::vector<double> margins;
  for (int consumed = 0; consumed < examples;) {
    const int n = std::min(kChunk, examples - consumed);
    chunk.clear();
    for (int i = 0; i < n; ++i) chunk.push_back(gen.Next());
    consumed += n;
    for (size_t m = 0; m < models.size(); ++m) {
      margins.clear();
      models[m].UpdateBatch(chunk, &margins);
      for (int i = 0; i < n; ++i) errors[m].Record(margins[i], chunk[i].y);
    }
    for (const Example& ex : chunk) {
      lr_error.Record(reference.Update(ex.x, ex.y), ex.y);
    }
  }

  SweepOutput out;
  const std::vector<float> w_star = reference.Weights();
  for (size_t m = 0; m < models.size(); ++m) {
    const LearnerSnapshot snap = models[m].Snapshot(k);
    MethodRun run;
    run.name = snap.name();
    std::vector<FeatureWeight> top = snap.top_k();
    if (top.empty()) {
      top = snap.ScanTopK(k, profile.dimension);  // feature hashing
    }
    run.rel_err = RelErrTopK(top, w_star, k);
    run.error_rate = errors[m].Rate();
    run.bytes = snap.memory_cost_bytes();
    out.runs.push_back(run);
  }
  out.lr_error_rate = lr_error.Rate();
  return out;
}

}  // namespace wmsketch::bench

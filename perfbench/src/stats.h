#pragma once

// Measurement helpers of the benchmark harness: the percentile and
// sample-count rule, failure counting, and the open-loop schedule with its
// lag and backlog accounting. Header-only and free of library types so the
// unit tests exercise them without a model.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The highest whole percentile (capped at 99) that leaves at least ten of
/// `n` samples strictly beyond its nearest-rank order statistic; 0 when no
/// percentile does (n < 20 leaves no room above the median). p99 therefore
/// needs n >= 1000.
inline int TailPercentile(size_t n) {
  for (int q = 99; q >= 50; --q) {
    const size_t rank = (static_cast<size_t>(q) * n + 99) / 100;  // ceil(q·n/100)
    if (rank >= 1 && n - rank >= 10) return q;
  }
  return 0;
}

/// Nearest-rank percentile of a sorted sample set: the value at 1-based rank
/// ceil(q·n/100). q in [1, 100]; 0 for an empty set.
inline double NearestRank(const std::vector<double>& sorted, int q) {
  if (sorted.empty()) return 0.0;
  size_t rank = (static_cast<size_t>(q) * sorted.size() + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// A timing reported the way the benchmark reports every timing: the median
/// plus the highest percentile with at least ten samples beyond it, with the
/// sample count.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  /// The value at `tail_pct` (0 when the sample is too small for any tail).
  double tail = 0.0;
  int tail_pct = 0;
  double max = 0.0;

  /// The tail is a real p99 (at least 1000 samples).
  bool p99_valid() const { return tail_pct == 99; }
};

inline LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50);
  s.tail_pct = TailPercentile(samples.size());
  s.tail = s.tail_pct == 0 ? 0.0 : NearestRank(samples, s.tail_pct);
  s.max = samples.back();
  return s;
}

/// Median of a small set of repeated measurements (trials, set-ups).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Failed operations counted against attempted ones. A refused, dropped or
/// retried-out operation is a failure; so is an operation that returned a
/// wrong answer. One counter per thread, merged after the threads join.
class FailureCounter {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Counts `n` operations that were due but never completed.
  void RecordMissing(uint64_t n) {
    attempted_ += n;
    failed_ += n;
  }
  void Merge(const FailureCounter& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double Fraction() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A constant-rate open-loop schedule: request i is due at start + i/rate,
/// whether or not earlier requests have been answered.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {}

  int64_t DueNs(uint64_t i) const {
    return start_ns_ + static_cast<int64_t>(std::llround(static_cast<double>(i) * interval_ns_));
  }

  /// How many requests are due at or before `now_ns`.
  uint64_t DueBy(int64_t now_ns) const {
    if (now_ns < start_ns_) return 0;
    uint64_t n = static_cast<uint64_t>(static_cast<double>(now_ns - start_ns_) / interval_ns_) + 1;
    // Rounding in DueNs can move a boundary by one: settle it exactly.
    while (n > 0 && DueNs(n - 1) > now_ns) --n;
    while (DueNs(n) <= now_ns) ++n;
    return n;
  }

 private:
  int64_t start_ns_;
  double interval_ns_;
};

/// Accounting of one open-loop phase. Latency is timed from each request's
/// due time, so a generator stall is charged to every request it delayed;
/// lag (send time minus due time) and backlog (requests due but unanswered)
/// tell whether the generator, not the server, set the numbers.
class OpenLoopStats {
 public:
  /// A request due at `due_ns` left the generator at `sent_ns`.
  void OnSend(int64_t due_ns, int64_t sent_ns) {
    lags_us_.push_back(static_cast<double>(std::max<int64_t>(0, sent_ns - due_ns)) / 1e3);
  }
  /// The reply to a request due at `due_ns` arrived at `recv_ns`.
  void OnReply(int64_t due_ns, int64_t recv_ns) {
    latencies_us_.push_back(static_cast<double>(recv_ns - due_ns) / 1e3);
  }
  /// Samples the backlog: `due` requests are due by now, `answered` replied.
  void SampleBacklog(uint64_t due, uint64_t answered) {
    backlog_last_ = due > answered ? due - answered : 0;
    backlog_max_ = std::max(backlog_max_, backlog_last_);
  }
  /// Folds in a later phase (e.g. the next window of the same run).
  void Merge(const OpenLoopStats& other) {
    latencies_us_.insert(latencies_us_.end(), other.latencies_us_.begin(),
                         other.latencies_us_.end());
    lags_us_.insert(lags_us_.end(), other.lags_us_.begin(), other.lags_us_.end());
    backlog_max_ = std::max(backlog_max_, other.backlog_max_);
    backlog_last_ = other.backlog_last_;
  }

  LatencySummary Latency() const { return Summarize(latencies_us_); }
  LatencySummary Lag() const { return Summarize(lags_us_); }
  uint64_t backlog_max() const { return backlog_max_; }
  uint64_t backlog_last() const { return backlog_last_; }

  /// True when the generator kept its schedule: the median request left
  /// within `max_lag_us` of its due time. A generator that cannot offer the
  /// load falls behind on every request; a transient stall (the host
  /// preempting the generator) delays a few, and latency timed from the due
  /// time already charges those to the requests it delayed.
  bool OnSchedule(double max_lag_us) const {
    const LatencySummary lag = Lag();
    return lag.count > 0 && lag.p50 <= max_lag_us;
  }

 private:
  std::vector<double> latencies_us_;
  std::vector<double> lags_us_;
  uint64_t backlog_max_ = 0;
  uint64_t backlog_last_ = 0;
};

}  // namespace perfbench

// Unit tests of the harness's own helpers: the percentile and sample-count
// rule, failure counting, the open-loop schedule with its lag and backlog
// accounting, and span self time.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, TailLeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0);
  EXPECT_EQ(TailPercentile(19), 0);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(999), 98);
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(1000000), 99);
  for (size_t n = 20; n < 3000; n += 7) {
    const int q = TailPercentile(n);
    const size_t rank = (static_cast<size_t>(q) * n + 99) / 100;
    EXPECT_GE(n - rank, 10u) << n;
    if (q < 99) {
      const size_t next = (static_cast<size_t>(q + 1) * n + 99) / 100;
      EXPECT_LT(n - next, 10u) << n;  // the next percentile up would not qualify
    }
  }
}

TEST(Percentile, NearestRankAndSummary) {
  const std::vector<double> v = OneTo(1000);
  EXPECT_EQ(NearestRank(v, 50), 500.0);
  EXPECT_EQ(NearestRank(v, 99), 990.0);  // ten samples (991..1000) beyond
  EXPECT_EQ(NearestRank(v, 100), 1000.0);
  EXPECT_EQ(NearestRank({}, 50), 0.0);

  std::vector<double> shuffled = OneTo(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  const LatencySummary s = Summarize(shuffled);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.max, 1000.0);
  EXPECT_TRUE(s.p99_valid());

  const LatencySummary small = Summarize(OneTo(100));
  EXPECT_EQ(small.tail_pct, 90);
  EXPECT_EQ(small.tail, 90.0);
  EXPECT_FALSE(small.p99_valid());

  const LatencySummary tiny = Summarize(OneTo(5));
  EXPECT_EQ(tiny.tail_pct, 0);
  EXPECT_EQ(tiny.tail, 0.0);
  EXPECT_EQ(tiny.p50, 3.0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(Failures, CountedAgainstAttempted) {
  FailureCounter a;
  EXPECT_EQ(a.Fraction(), 0.0);
  a.Record(true);
  a.Record(false);
  a.Record(true);
  a.Record(true);
  EXPECT_EQ(a.attempted(), 4u);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_DOUBLE_EQ(a.Fraction(), 0.25);

  FailureCounter b;
  b.RecordMissing(4);  // due but never answered: attempted and failed
  a.Merge(b);
  EXPECT_EQ(a.attempted(), 8u);
  EXPECT_EQ(a.failed(), 5u);
}

TEST(OpenLoop, ScheduleIsIndependentOfReplies) {
  const OpenLoopSchedule s(1000, 1e6);  // one request per microsecond
  EXPECT_EQ(s.DueNs(0), 1000);
  EXPECT_EQ(s.DueNs(1), 2000);
  EXPECT_EQ(s.DueNs(1000), 1001000);
  EXPECT_EQ(s.DueBy(999), 0u);
  EXPECT_EQ(s.DueBy(1000), 1u);
  EXPECT_EQ(s.DueBy(1999), 1u);
  EXPECT_EQ(s.DueBy(2000), 2u);

  const OpenLoopSchedule odd(0, 3.0);  // non-integral interval in ns
  for (int64_t now = 0; now < 3000000000; now += 7777777) {
    const uint64_t n = odd.DueBy(now);
    EXPECT_LE(odd.DueNs(n - 1), now);
    EXPECT_GT(odd.DueNs(n), now);
  }
}

TEST(OpenLoop, LatencyCountsFromDueTimeAndLagIsReported) {
  OpenLoopStats stats;
  // Request 0 leaves on time; request 1 leaves 50 us late (a generator
  // stall) and is answered 10 us after it left.
  stats.OnSend(0, 0);
  stats.OnSend(100000, 150000);
  stats.OnReply(0, 20000);
  stats.OnReply(100000, 160000);
  const LatencySummary lat = stats.Latency();
  EXPECT_EQ(lat.count, 2u);
  EXPECT_EQ(lat.max, 60.0);  // the stall is charged to the request
  const LatencySummary lag = stats.Lag();
  EXPECT_EQ(lag.max, 50.0);
  EXPECT_EQ(lag.count, 2u);

  OpenLoopStats later;  // a second window of the same run
  later.OnSend(200000, 200000);
  later.OnReply(200000, 230000);
  later.SampleBacklog(3, 2);
  stats.Merge(later);
  EXPECT_EQ(stats.Latency().count, 3u);
  EXPECT_EQ(stats.Lag().max, 50.0);
  EXPECT_EQ(stats.backlog_last(), 1u);
}

TEST(OpenLoop, OnScheduleJudgesTheTypicalRequest) {
  OpenLoopStats stalled;  // a stall delays a tenth of the requests by 500 us
  for (int i = 0; i < 1000; ++i) stalled.OnSend(i * 1000, i * 1000 + (i < 100 ? 500000 : 1000));
  EXPECT_TRUE(stalled.OnSchedule(1.0));
  EXPECT_EQ(stalled.Lag().tail, 500.0);  // the stall still shows in the lag tail

  OpenLoopStats behind;  // a generator too slow for the rate: lag grows
  for (int i = 0; i < 1000; ++i) behind.OnSend(i * 1000, i * 1000 + i * 100);
  EXPECT_FALSE(behind.OnSchedule(1.0));
  EXPECT_FALSE(OpenLoopStats().OnSchedule(1.0));  // nothing sent: nothing measured
}

TEST(OpenLoop, BacklogTracksDueButUnanswered) {
  OpenLoopStats stats;
  stats.SampleBacklog(10, 10);
  EXPECT_EQ(stats.backlog_last(), 0u);
  stats.SampleBacklog(50, 20);
  stats.SampleBacklog(60, 58);
  EXPECT_EQ(stats.backlog_max(), 30u);
  EXPECT_EQ(stats.backlog_last(), 2u);
  stats.SampleBacklog(5, 9);  // replies never exceed sends; clamps at zero
  EXPECT_EQ(stats.backlog_last(), 0u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  // root [0,100): children [10,30) and [20,50) overlap (covered once: 40),
  // [90,120) is clipped to the parent (10). Grandchild [12,18) under the
  // first child only reduces that child's self time.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 12, 18),
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 100 - 40 - 10);
  EXPECT_EQ(self.at(2), 20 - 6);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 30);
  EXPECT_EQ(self.at(5), 6);
}

TEST(Spans, DisjointChildrenAndOrphans) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 60, 70), MakeSpan(3, 1, 10, 20),
      MakeSpan(4, 99, 0, 5),  // parent not recorded: a root
  };
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 80);
  EXPECT_EQ(self.at(4), 5);
}

TEST(Spans, TotalsAndRecordingAcrossThreads) {
  Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    Tracer::Buffer* buffer = tracer.NewBuffer();
    threads.emplace_back([buffer] {
      for (int i = 0; i < 100; ++i) {
        ScopedSpan outer(buffer, "outer", 0, 2);
        ScopedSpan inner(buffer, "inner", outer.id(), 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 600u);
  std::vector<uint64_t> ids;
  for (const Span& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());  // ids unique across threads

  const auto self = SelfTimes(spans);
  const SpanTotals outer = TotalsFor(spans, self, "outer");
  const SpanTotals inner = TotalsFor(spans, self, "inner");
  EXPECT_EQ(outer.count, 300u);
  EXPECT_EQ(outer.items, 600u);
  EXPECT_EQ(inner.items, 300u);
  int64_t outer_total = 0;
  for (const double us : outer.durations_us) outer_total += static_cast<int64_t>(us * 1e3 + 0.5);
  EXPECT_LE(outer.self_ns, outer_total);

  ScopedSpan off(nullptr, "off");  // tracing off: records nothing
  EXPECT_EQ(off.id(), 0u);

  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(tracer.WriteJson(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\": \"inner\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench

// Tests for the evaluation metrics: RelErr recovery, online error rate,
// Pearson correlation, relative risk, recall curves, and PMI-from-counts.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/correlation.h"
#include "metrics/online_error.h"
#include "metrics/pmi.h"
#include "metrics/recall.h"
#include "metrics/recovery.h"
#include "metrics/relative_risk.h"

namespace wmsketch {
namespace {

// ---------------------------------------------------------------- RelErr

TEST(RelErrTest, PerfectRecoveryIsOne) {
  const std::vector<float> w_star = {5.0f, -4.0f, 3.0f, 0.1f, -0.2f};
  const std::vector<FeatureWeight> exact = ExactTopK(w_star, 2);
  EXPECT_DOUBLE_EQ(RelErrTopK(exact, w_star, 2), 1.0);
}

TEST(RelErrTest, ExactTopKSortedByMagnitude) {
  const std::vector<float> w_star = {1.0f, -4.0f, 3.0f, 0.0f};
  const auto top = ExactTopK(w_star, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].feature, 1u);
  EXPECT_EQ(top[1].feature, 2u);
  EXPECT_EQ(top[2].feature, 0u);
}

TEST(RelErrTest, WrongFeaturesCostMore) {
  const std::vector<float> w_star = {5.0f, -4.0f, 3.0f, 0.1f, -0.2f};
  // Right features, slightly wrong values.
  const std::vector<FeatureWeight> close = {{0, 4.8f}, {1, -4.1f}};
  // Wrong features entirely.
  const std::vector<FeatureWeight> wrong = {{3, 0.1f}, {4, -0.2f}};
  const double close_err = RelErrTopK(close, w_star, 2);
  const double wrong_err = RelErrTopK(wrong, w_star, 2);
  EXPECT_GE(close_err, 1.0);
  EXPECT_LT(close_err, 1.05);
  EXPECT_GT(wrong_err, close_err);
}

TEST(RelErrTest, MissingEntriesCountAsZeros) {
  const std::vector<float> w_star = {5.0f, -4.0f, 3.0f};
  const std::vector<FeatureWeight> partial = {{0, 5.0f}};  // only 1 of K=2
  const double err = RelErrTopK(partial, w_star, 2);
  // Missing w*_1 = −4 contributes 16 to the numerator; denominator is 9.
  EXPECT_NEAR(err, std::sqrt((16.0 + 9.0) / 9.0), 1e-9);
}

TEST(RelErrTest, MatchesBruteForceOnRandomInputs) {
  std::vector<float> w_star(64);
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<float>(static_cast<int64_t>(state >> 33) % 1000) / 250.0f;
  };
  for (float& w : w_star) w = next() - 2.0f;
  const size_t k = 8;
  std::vector<FeatureWeight> est;
  for (uint32_t i = 0; i < k; ++i) est.push_back({i * 3, next() - 2.0f});

  // Brute force: materialize both K-sparse vectors.
  std::vector<float> est_dense(64, 0.0f), ref_dense(64, 0.0f);
  for (const auto& fw : est) est_dense[fw.feature] = fw.weight;
  for (const auto& fw : ExactTopK(w_star, k)) ref_dense[fw.feature] = fw.weight;
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < 64; ++i) {
    num += (est_dense[i] - w_star[i]) * (est_dense[i] - w_star[i]);
    den += (ref_dense[i] - w_star[i]) * (ref_dense[i] - w_star[i]);
  }
  EXPECT_NEAR(RelErrTopK(est, w_star, k), std::sqrt(num / den), 1e-6);
}

// --------------------------------------------------------- OnlineErrorRate

TEST(OnlineErrorRateTest, ProgressiveValidation) {
  OnlineErrorRate err;
  EXPECT_EQ(err.Rate(), 0.0);
  err.Record(1.0, 1);    // correct
  err.Record(-2.0, 1);   // wrong
  err.Record(0.0, 1);    // tie → +1 → correct
  err.Record(0.0, -1);   // tie → +1 → wrong
  EXPECT_DOUBLE_EQ(err.Rate(), 0.5);
  EXPECT_EQ(err.mistakes(), 2u);
  EXPECT_EQ(err.total(), 4u);
}

// -------------------------------------------------------------- Pearson

TEST(PearsonTest, PerfectAndInverseCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateInputsReturnZero) {
  EXPECT_EQ(PearsonCorrelation({1.0}, {2.0}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
}

TEST(PearsonTest, UncorrelatedNearZero) {
  std::vector<double> xs, ys;
  uint64_t state = 99;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1;
    xs.push_back(static_cast<double>((state >> 33) % 1000));
    state = state * 6364136223846793005ULL + 1;
    ys.push_back(static_cast<double>((state >> 33) % 1000));
  }
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 0.0, 0.05);
}

TEST(MedianTest, Basics) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0}), 3.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.0);  // lower-middle
}

// ----------------------------------------------------------- RelativeRisk

TEST(RelativeRiskTest, IndicativeFeatureHasHighRisk) {
  RelativeRiskTracker tracker;
  // Background attributes carry the base 20% outlier rate; feature 1
  // appears mostly in outliers. Relative risk compares against the rest of
  // the stream, so the background population defines the denominator.
  for (int i = 0; i < 1000; ++i) {
    tracker.Observe(100 + static_cast<uint32_t>(i % 7), /*outlier=*/i % 5 == 0);
  }
  for (int i = 0; i < 100; ++i) {
    tracker.Observe(1, /*outlier=*/i % 10 != 0);   // 90% outlier
    tracker.Observe(2, /*outlier=*/i % 5 == 0);    // 20% outlier (baseline)
  }
  EXPECT_GT(tracker.RelativeRisk(1), 3.0);
  EXPECT_NEAR(tracker.RelativeRisk(2), 1.0, 0.3);
  EXPECT_GT(tracker.LogRelativeRisk(1), std::log(3.0));
}

TEST(RelativeRiskTest, SmoothingKeepsExtremesFinite) {
  RelativeRiskTracker tracker;
  for (int i = 0; i < 50; ++i) tracker.Observe(1, true);   // always outlier
  for (int i = 0; i < 50; ++i) tracker.Observe(2, false);  // never outlier
  EXPECT_TRUE(std::isfinite(tracker.RelativeRisk(1)));
  EXPECT_TRUE(std::isfinite(tracker.RelativeRisk(2)));
  EXPECT_GT(tracker.RelativeRisk(1), 1.0);
  EXPECT_LT(tracker.RelativeRisk(2), 1.0);
  // Unseen features get a neutral estimate.
  EXPECT_NEAR(tracker.RelativeRisk(99), 1.0, 0.5);
}

TEST(RelativeRiskTest, OccurrencesTracked) {
  RelativeRiskTracker tracker;
  tracker.Observe(5, true);
  tracker.Observe(5, false);
  EXPECT_EQ(tracker.Occurrences(5), 2u);
  EXPECT_EQ(tracker.Occurrences(6), 0u);
  EXPECT_EQ(tracker.total(), 2u);
  EXPECT_EQ(tracker.total_positive(), 1u);
}

// ----------------------------------------------------------------- Recall

TEST(RecallTest, ThresholdCurve) {
  const std::vector<std::pair<uint32_t, double>> truth = {
      {1, 5.0}, {2, -6.0}, {3, 2.0}, {4, 0.1}};
  const std::unordered_set<uint32_t> retrieved = {1, 3};
  const auto curve = RecallAboveThresholds(retrieved, truth, {1.0, 4.0, 10.0});
  ASSERT_EQ(curve.size(), 3u);
  // τ=1: relevant {1,2,3}, hit {1,3} → 2/3.
  EXPECT_NEAR(curve[0].recall, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(curve[0].relevant, 3u);
  // τ=4: relevant {1,2}, hit {1} → 1/2.
  EXPECT_NEAR(curve[1].recall, 0.5, 1e-12);
  // τ=10: nothing relevant → recall 1 by convention.
  EXPECT_EQ(curve[2].recall, 1.0);
  EXPECT_EQ(curve[2].relevant, 0u);
}

// -------------------------------------------------------------------- PMI

TEST(PmiTest, IndependentPairHasZeroPmi) {
  // p(u,v) = p(u)p(v): counts 100/10000 pairs, 100/1000 & 10/1000 unigrams
  // → PMI = log( (100/10000) / (0.1 * 0.01) ) = log(10) ... pick numbers:
  EXPECT_NEAR(PmiFromCounts(10, 1000, 100, 100, 1000), 0.0, 1e-12);
}

TEST(PmiTest, PositiveForOverrepresentedPairs) {
  EXPECT_GT(PmiFromCounts(100, 1000, 100, 100, 1000), 0.0);
  EXPECT_LT(PmiFromCounts(1, 1000, 100, 100, 1000), 0.0);
}

}  // namespace
}  // namespace wmsketch

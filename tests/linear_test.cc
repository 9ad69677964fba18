// Tests for the linear-model substrate: losses, schedules, the uncompressed
// reference model, and feature hashing.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linear/classifier.h"
#include "linear/dense_linear_model.h"
#include "linear/feature_hashing.h"
#include "linear/learning_rate.h"
#include "linear/loss.h"
#include "util/math.h"
#include "util/random.h"

namespace wmsketch {
namespace {

// ------------------------------------------------------------------- Loss

// Property: the analytic derivative matches the numerical derivative of
// ℓ(m) = log(1 + e^{−m}), evaluated with Log1pExp.
class LossDerivativeTest : public ::testing::TestWithParam<double> {};

TEST_P(LossDerivativeTest, AnalyticMatchesNumeric) {
  const double m = GetParam();
  const LogisticLoss loss;
  const double h = 1e-6;
  const double numeric = (Log1pExp(-(m + h)) - Log1pExp(-(m - h))) / (2.0 * h);
  EXPECT_NEAR(loss.Derivative(m), numeric, 1e-4) << "at " << m;
}

INSTANTIATE_TEST_SUITE_P(Margins, LossDerivativeTest,
                         ::testing::Values(-3.0, -1.0, -0.2, 0.0, 0.31, 0.85, 0.99, 1.5, 4.0));

TEST(LossTest, LogisticValues) {
  const LogisticLoss loss;
  EXPECT_NEAR(loss.Derivative(0.0), -0.5, 1e-12);
  EXPECT_NEAR(loss.Derivative(-100.0), -1.0, 1e-9);
}

TEST(LossTest, LogisticIsConvexOnGrid) {
  const LogisticLoss loss;
  double prev_d = -1e100;
  for (double m = -5.0; m <= 5.0; m += 0.1) {
    const double d = loss.Derivative(m);
    EXPECT_GE(d, prev_d - 1e-12) << "at " << m;
    prev_d = d;
  }
}

TEST(LossTest, DefaultSingletonIsLogistic) {
  EXPECT_NE(dynamic_cast<const LogisticLoss*>(&DefaultLogisticLoss()), nullptr);
  EXPECT_EQ(&DefaultLogisticLoss(), &DefaultLogisticLoss());
}

// ---------------------------------------------------------- LearningRate

TEST(LearningRateTest, Schedules) {
  const LearningRate c = LearningRate::Constant(0.5);
  EXPECT_EQ(c.Rate(1), 0.5);
  EXPECT_EQ(c.Rate(1000), 0.5);

  const LearningRate s = LearningRate::InverseSqrt(1.0);
  EXPECT_DOUBLE_EQ(s.Rate(1), 1.0);
  EXPECT_DOUBLE_EQ(s.Rate(4), 0.5);
  EXPECT_DOUBLE_EQ(s.Rate(100), 0.1);

  const LearningRate inv = LearningRate::Inverse(1.0, 0.1);
  EXPECT_DOUBLE_EQ(inv.Rate(1), 1.0 / 1.1);
  EXPECT_GT(inv.Rate(10), inv.Rate(100));
}

// ------------------------------------------------------- DenseLinearModel

LearnerOptions TestOptions(double lambda = 1e-4) {
  LearnerOptions opts;
  opts.lambda = lambda;
  opts.rate = LearningRate::Constant(0.5);
  opts.seed = 42;
  return opts;
}

TEST(DenseLinearModelTest, SingleUpdateMatchesHandComputation) {
  LearnerOptions opts = TestOptions(/*lambda=*/0.0);
  DenseLinearModel model(8, opts);
  const SparseVector x({1, 3}, {1.0f, 2.0f});
  const double margin = model.Update(x, 1);
  EXPECT_EQ(margin, 0.0);
  // Logistic: g = ℓ'(0) = −0.5; w ← w − η·y·g·x = 0.5·0.5·x = 0.25·x.
  EXPECT_NEAR(model.WeightEstimate(1), 0.25f, 1e-6);
  EXPECT_NEAR(model.WeightEstimate(3), 0.5f, 1e-6);
  EXPECT_EQ(model.WeightEstimate(0), 0.0f);
  EXPECT_EQ(model.steps(), 1u);
}

TEST(DenseLinearModelTest, RegularizationDecaysWeights) {
  LearnerOptions opts = TestOptions(/*lambda=*/0.1);
  DenseLinearModel model(4, opts);
  model.Update(SparseVector::OneHot(0), 1);
  const float w1 = model.WeightEstimate(0);
  // Update a disjoint feature: feature 0 must decay by (1 − ηλ).
  model.Update(SparseVector::OneHot(1), 1);
  EXPECT_NEAR(model.WeightEstimate(0), w1 * (1.0f - 0.5f * 0.1f), 1e-6);
}

TEST(DenseLinearModelTest, LazyScaleMatchesEagerDecay) {
  // Train with the lazy-scale implementation and compare against a naive
  // eager implementation run side by side.
  LearnerOptions opts = TestOptions(/*lambda=*/0.01);
  const uint32_t d = 32;
  DenseLinearModel model(d, opts);
  std::vector<double> eager(d, 0.0);
  Rng rng(3);
  uint64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    const uint32_t f1 = static_cast<uint32_t>(rng.Bounded(d));
    uint32_t f2 = static_cast<uint32_t>(rng.Bounded(d));
    if (f2 == f1) f2 = (f2 + 1) % d;
    std::vector<uint32_t> idx = {std::min(f1, f2), std::max(f1, f2)};
    const SparseVector x(idx, {0.5f, 0.5f});
    const int8_t y = rng.Bernoulli(0.5) ? 1 : -1;

    // Eager reference step.
    ++t;
    const double eta = opts.rate.Rate(t);
    double margin = 0.0;
    for (size_t j = 0; j < x.nnz(); ++j) margin += eager[x.index(j)] * x.value(j);
    const double g = opts.loss->Derivative(y * margin);
    for (double& w : eager) w *= (1.0 - eta * opts.lambda);
    for (size_t j = 0; j < x.nnz(); ++j) {
      eager[x.index(j)] -= eta * y * g * x.value(j);
    }

    model.Update(x, y);
  }
  for (uint32_t f = 0; f < d; ++f) {
    EXPECT_NEAR(model.WeightEstimate(f), eager[f], 1e-4) << f;
  }
}

TEST(DenseLinearModelTest, LearnsSeparableProblem) {
  LearnerOptions opts = TestOptions(1e-6);
  opts.rate = LearningRate::Constant(0.2);
  DenseLinearModel model(16, opts);
  Rng rng(7);
  // Feature 3 decides the label.
  int mistakes_late = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    const SparseVector x = positive ? SparseVector({3, 5}, {1.0f, 0.5f})
                                    : SparseVector({5, 9}, {0.5f, 1.0f});
    const int8_t y = positive ? 1 : -1;
    const double margin = model.Update(x, y);
    if (i >= 1000 && (margin >= 0) != (y > 0)) ++mistakes_late;
  }
  EXPECT_EQ(mistakes_late, 0);
  EXPECT_GT(model.WeightEstimate(3), 0.5f);
  EXPECT_LT(model.WeightEstimate(9), -0.5f);
}

TEST(DenseLinearModelTest, TopKTracksLargestWeights) {
  LearnerOptions opts = TestOptions(0.0);
  DenseLinearModel model(64, opts, /*heap_capacity=*/4);
  // Drive distinct magnitudes into distinct features.
  for (int rep = 0; rep < 5; ++rep) {
    model.Update(SparseVector::OneHot(10), 1);
  }
  for (int rep = 0; rep < 3; ++rep) {
    model.Update(SparseVector::OneHot(20), -1);
  }
  model.Update(SparseVector::OneHot(30), 1);
  const auto top = model.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].feature, 10u);
  EXPECT_EQ(top[1].feature, 20u);
  EXPECT_LT(top[1].weight, 0.0f);
}

TEST(DenseLinearModelTest, WeightsMaterializeWithScale) {
  LearnerOptions opts = TestOptions(0.05);
  DenseLinearModel model(8, opts);
  for (int i = 0; i < 50; ++i) model.Update(SparseVector::OneHot(2), 1);
  const std::vector<float> w = model.Weights();
  ASSERT_EQ(w.size(), 8u);
  EXPECT_NEAR(w[2], model.WeightEstimate(2), 1e-6);
  EXPECT_EQ(w[0], 0.0f);
}

TEST(DenseLinearModelTest, SurvivesHeavyDecayRescale) {
  // λη = 0.05 per step drives the scale below the rescale threshold within
  // ~1200 steps at constant rate; weights must remain finite and tiny.
  LearnerOptions opts = TestOptions(0.1);
  DenseLinearModel model(4, opts);
  for (int i = 0; i < 3000; ++i) model.Update(SparseVector::OneHot(1), 1);
  const float w = model.WeightEstimate(1);
  EXPECT_TRUE(std::isfinite(w));
  EXPECT_GT(w, 0.0f);
}

TEST(DenseLinearModelTest, MemoryCostModel) {
  DenseLinearModel model(1000, TestOptions(), 128);
  EXPECT_EQ(model.MemoryCostBytes(), 1000u * 4 + 128u * 8);
}

// --------------------------------------------------- FeatureHashing model

TEST(FeatureHashingTest, LearnsThroughCollisions) {
  LearnerOptions opts = TestOptions(1e-6);
  opts.rate = LearningRate::Constant(0.2);
  FeatureHashingClassifier model(256, opts);
  Rng rng(11);
  int mistakes_late = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool positive = rng.Bernoulli(0.5);
    const SparseVector x =
        positive ? SparseVector({3}, {1.0f}) : SparseVector({9}, {1.0f});
    const int8_t y = positive ? 1 : -1;
    const double margin = model.Update(x, y);
    if (i >= 2000 && (margin >= 0) != (y > 0)) ++mistakes_late;
  }
  EXPECT_LT(mistakes_late, 20);
}

TEST(FeatureHashingTest, WeightEstimateReflectsSignHash) {
  LearnerOptions opts = TestOptions(0.0);
  FeatureHashingClassifier model(64, opts);
  for (int i = 0; i < 10; ++i) model.Update(SparseVector::OneHot(5), 1);
  EXPECT_GT(model.WeightEstimate(5), 0.0f);
}

TEST(FeatureHashingTest, NativeTopKEmptyButScanWorks) {
  LearnerOptions opts = TestOptions(0.0);
  FeatureHashingClassifier model(64, opts);
  for (int i = 0; i < 10; ++i) model.Update(SparseVector::OneHot(5), 1);
  EXPECT_TRUE(model.TopK(4).empty());
  const auto scanned = ScanTopK(*model.MakeReadModel(), 4, /*dimension=*/100);
  ASSERT_FALSE(scanned.empty());
  // Feature 5's bucket-mates tie with it; feature 5 must be among them.
  bool found = false;
  for (const auto& fw : scanned) found |= (fw.feature == 5u);
  EXPECT_TRUE(found);
}

TEST(FeatureHashingTest, MemoryCostIsTableOnly) {
  FeatureHashingClassifier model(512, TestOptions());
  EXPECT_EQ(model.MemoryCostBytes(), 2048u);
}

TEST(FeatureHashingTest, CollidingFeaturesShareWeight) {
  LearnerOptions opts = TestOptions(0.0);
  FeatureHashingClassifier model(2, opts);  // tiny table forces collisions
  for (int i = 0; i < 20; ++i) model.Update(SparseVector::OneHot(1), 1);
  // Any feature hashing to the same bucket reports a related weight
  // (equal magnitude, sign per its own hash).
  const float w1 = model.WeightEstimate(1);
  int sharers = 0;
  for (uint32_t f = 2; f < 40; ++f) {
    if (std::fabs(model.WeightEstimate(f)) == std::fabs(w1)) ++sharers;
  }
  EXPECT_GT(sharers, 5);
}

}  // namespace
}  // namespace wmsketch

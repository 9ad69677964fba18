// End-to-end integration tests: every budgeted method trained on the same
// synthetic benchmark stream as the uncompressed reference, checked for the
// paper's qualitative claims — recovery ordering, error-rate ordering,
// budget accounting and determinism.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/budget.h"
#include "datagen/classification_gen.h"
#include "linear/dense_linear_model.h"
#include "metrics/online_error.h"
#include "metrics/recovery.h"
#include "util/memory_cost.h"

namespace wmsketch {
namespace {

LearnerOptions BenchOptions(double lambda, uint64_t seed) {
  LearnerOptions opts;
  opts.lambda = lambda;
  opts.rate = LearningRate::InverseSqrt(0.1);  // the paper's η0 = 0.1
  opts.seed = seed;
  return opts;
}

// Trains one classifier per method plus the dense reference on the identical
// stream; returns (per-method RelErr@K, per-method error rate, LR error).
struct SweepResult {
  std::vector<double> rel_err;
  std::vector<double> error_rate;
  double lr_error_rate;
};

SweepResult RunSweep(const ClassificationProfile& profile, size_t budget, size_t k,
                     uint64_t seed, int examples) {
  const LearnerOptions opts = BenchOptions(1e-6, seed);
  std::vector<std::unique_ptr<BudgetedClassifier>> models;
  for (const Method m : AllMethods()) {
    models.push_back(MakeClassifier(DefaultConfig(m, budget).value(), opts));
  }
  DenseLinearModel reference(profile.dimension, opts);

  std::vector<OnlineErrorRate> errors(models.size());
  OnlineErrorRate lr_error;
  SyntheticClassificationGen gen(profile, seed + 1);
  for (int i = 0; i < examples; ++i) {
    const Example ex = gen.Next();
    for (size_t m = 0; m < models.size(); ++m) {
      errors[m].Record(models[m]->Update(ex.x, ex.y), ex.y);
    }
    lr_error.Record(reference.Update(ex.x, ex.y), ex.y);
  }

  SweepResult out;
  const std::vector<float> w_star = reference.Weights();
  for (size_t m = 0; m < models.size(); ++m) {
    std::vector<FeatureWeight> top = models[m]->TopK(k);
    if (top.empty()) top = ScanTopK(*models[m]->MakeReadModel(), k, profile.dimension);  // Hash
    out.rel_err.push_back(RelErrTopK(top, w_star, k));
    out.error_rate.push_back(errors[m].Rate());
  }
  out.lr_error_rate = lr_error.Rate();
  return out;
}

size_t IndexOf(Method m) {
  const auto& all = AllMethods();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == m) return i;
  }
  return all.size();
}

TEST(IntegrationTest, AwmWinsRecoveryAtSmallBudget) {
  // Fig. 3's headline: at a tight budget the AWM-Sketch has the lowest
  // top-K recovery error of all methods.
  const SweepResult r =
      RunSweep(ClassificationProfile::SmallTest(), KiB(2), /*k=*/64, 11, 30000);
  const double awm = r.rel_err[IndexOf(Method::kAwmSketch)];
  EXPECT_GE(awm, 1.0);
  for (const Method m :
       {Method::kSimpleTruncation, Method::kProbabilisticTruncation,
        Method::kSpaceSavingFrequent, Method::kCountMinFrequent, Method::kFeatureHashing}) {
    EXPECT_LE(awm, r.rel_err[IndexOf(m)] + 1e-9) << MethodName(m);
  }
}

TEST(IntegrationTest, EveryMethodRespectsBudget) {
  const LearnerOptions opts = BenchOptions(1e-6, 3);
  for (const size_t budget : {KiB(2), KiB(8), KiB(32)}) {
    for (const Method m : AllMethods()) {
      auto model = MakeClassifier(DefaultConfig(m, budget).value(), opts);
      EXPECT_LE(model->MemoryCostBytes(), budget) << MethodName(m);
    }
  }
}

TEST(IntegrationTest, ErrorRatesApproachUnconstrainedWithBudget) {
  // Fig. 6's shape: AWM's online error rate decreases with budget and
  // approaches (within a margin) the memory-unconstrained model's.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const SweepResult small =
      RunSweep(profile, KiB(2), 64, 21, 20000);
  const SweepResult big =
      RunSweep(profile, KiB(32), 64, 21, 20000);
  const size_t awm = IndexOf(Method::kAwmSketch);
  EXPECT_LE(big.error_rate[awm], small.error_rate[awm] + 0.01);
  EXPECT_LE(big.error_rate[awm], big.lr_error_rate + 0.03);
}

TEST(IntegrationTest, AwmErrorCompetitiveWithHashing) {
  // Sec. 7.3: AWM matches or beats feature hashing at equal budget (the
  // "cost of interpretability" is non-positive). Allow a small tolerance
  // for seed noise at this miniature scale.
  const SweepResult r =
      RunSweep(ClassificationProfile::SmallTest(), KiB(4), 64, 31, 30000);
  EXPECT_LE(r.error_rate[IndexOf(Method::kAwmSketch)],
            r.error_rate[IndexOf(Method::kFeatureHashing)] + 0.01);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  const SweepResult a =
      RunSweep(ClassificationProfile::SmallTest(), KiB(4), 32, 41, 5000);
  const SweepResult b =
      RunSweep(ClassificationProfile::SmallTest(), KiB(4), 32, 41, 5000);
  for (size_t m = 0; m < a.rel_err.size(); ++m) {
    EXPECT_EQ(a.rel_err[m], b.rel_err[m]);
    EXPECT_EQ(a.error_rate[m], b.error_rate[m]);
  }
}

TEST(IntegrationTest, RecoveryErrorShrinksWithBudget) {
  // Fig. 4's shape for the AWM-Sketch.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  const double err2 = RunSweep(profile, KiB(2), 64, 51, 25000)
                          .rel_err[IndexOf(Method::kAwmSketch)];
  const double err16 = RunSweep(profile, KiB(16), 64, 51, 25000)
                           .rel_err[IndexOf(Method::kAwmSketch)];
  EXPECT_LE(err16, err2 + 1e-9);
}

TEST(IntegrationTest, HigherRegularizationLowersAwmRecoveryError) {
  // Fig. 5's shape: stronger λ shrinks both w* and the sketch toward zero,
  // reducing relative recovery error.
  const ClassificationProfile profile = ClassificationProfile::SmallTest();
  auto run_lambda = [&](double lambda) {
    const LearnerOptions opts = BenchOptions(lambda, 61);
    auto model = MakeClassifier(DefaultConfig(Method::kAwmSketch, KiB(2)).value(), opts);
    DenseLinearModel reference(profile.dimension, opts);
    SyntheticClassificationGen gen(profile, 62);
    for (int i = 0; i < 25000; ++i) {
      const Example ex = gen.Next();
      model->Update(ex.x, ex.y);
      reference.Update(ex.x, ex.y);
    }
    return RelErrTopK(model->TopK(64), reference.Weights(), 64);
  };
  const double high_reg = run_lambda(1e-3);
  const double low_reg = run_lambda(1e-6);
  EXPECT_LE(high_reg, low_reg + 0.02);
}

}  // namespace
}  // namespace wmsketch

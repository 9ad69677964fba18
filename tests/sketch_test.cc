// Tests for the frequency-sketch substrate: Count-Sketch point estimates and
// recovery bounds, Count-Min one-sided error, Space-Saving guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/space_saving.h"
#include "util/random.h"
#include "util/zipf.h"

namespace wmsketch {
namespace {

// ------------------------------------------------------------ CountSketch

TEST(CountSketchTest, ExactOnSingleKey) {
  CountSketch cs(64, 3, 1);
  cs.Update(42, 5.0f);
  cs.Update(42, 2.5f);
  EXPECT_FLOAT_EQ(cs.Query(42), 7.5f);
}

TEST(CountSketchTest, UnseenKeyNearZeroWhenSparse) {
  CountSketch cs(256, 5, 2);
  for (uint32_t k = 0; k < 10; ++k) cs.Update(k, 1.0f);
  // With 10 keys in 5x256 buckets, an unseen key's buckets are likely empty,
  // and the median over 5 rows is extremely likely to be 0.
  int nonzero = 0;
  for (uint32_t k = 1000; k < 1100; ++k) nonzero += (cs.Query(k) != 0.0f);
  EXPECT_LE(nonzero, 5);
}

TEST(CountSketchTest, NegativeUpdatesSupported) {
  CountSketch cs(64, 3, 3);
  cs.Update(7, -4.0f);
  cs.Update(7, 1.0f);
  EXPECT_FLOAT_EQ(cs.Query(7), -3.0f);
}

// Property (Lemma 1 shape): max point-estimate error over a Zipfian count
// vector decreases as width grows; with width Θ(1/ε²) the error stays below
// ε·‖v‖₂ for all keys, with a comfortable constant.
class CountSketchRecoveryTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CountSketchRecoveryTest, LInfErrorBoundedByL2Norm) {
  const uint32_t width = GetParam();
  CountSketch cs(width, 5, 123);
  ZipfSampler zipf(5000, 1.2);
  Rng rng(55);
  std::unordered_map<uint32_t, float> truth;
  for (int i = 0; i < 50000; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    cs.Update(k, 1.0f);
    truth[k] += 1.0f;
  }
  double l2_sq = 0.0;
  for (const auto& [k, v] : truth) l2_sq += static_cast<double>(v) * v;
  const double l2 = std::sqrt(l2_sq);
  double max_err = 0.0;
  for (const auto& [k, v] : truth) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(cs.Query(k)) - v));
  }
  // ε ≈ c/√width with a small constant for depth 5 medians.
  const double eps = 4.0 / std::sqrt(static_cast<double>(width));
  EXPECT_LT(max_err, eps * l2) << "width " << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, CountSketchRecoveryTest,
                         ::testing::Values(64u, 256u, 1024u, 4096u));

// --------------------------------------------------------------- CountMin

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch cm(64, 4, 9);
  ZipfSampler zipf(2000, 1.1);
  Rng rng(66);
  std::unordered_map<uint32_t, double> truth;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    cm.Update(k);
    truth[k] += 1.0;
  }
  for (const auto& [k, v] : truth) {
    EXPECT_GE(cm.Query(k) + 1e-9, v) << k;
  }
}

TEST(CountMinTest, ErrorWithinL1Bound) {
  const uint32_t width = 512;
  CountMinSketch cm(width, 4, 10);
  ZipfSampler zipf(2000, 1.1);
  Rng rng(67);
  std::unordered_map<uint32_t, double> truth;
  const int total = 50000;
  for (int i = 0; i < total; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    cm.Update(k);
    truth[k] += 1.0;
  }
  // Standard guarantee: err ≤ e/width · ‖v‖₁ whp; allow 3x slack.
  const double bound = 3.0 * 2.71828 * total / width;
  for (const auto& [k, v] : truth) {
    EXPECT_LE(cm.Query(k) - v, bound) << k;
  }
}

TEST(CountMinTest, ConservativeUpdateTighter) {
  CountMinSketch plain(64, 4, 11, /*conservative=*/false);
  CountMinSketch cons(64, 4, 11, /*conservative=*/true);
  ZipfSampler zipf(3000, 1.05);
  Rng rng(68);
  std::unordered_map<uint32_t, double> truth;
  for (int i = 0; i < 30000; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    plain.Update(k);
    cons.Update(k);
    truth[k] += 1.0;
  }
  double plain_err = 0.0, cons_err = 0.0;
  for (const auto& [k, v] : truth) {
    plain_err += plain.Query(k) - v;
    cons_err += cons.Query(k) - v;
    EXPECT_GE(cons.Query(k) + 1e-9, v);  // still never underestimates
  }
  EXPECT_LE(cons_err, plain_err);
}

TEST(CountMinTest, TotalMassTracked) {
  CountMinSketch cm(64, 2, 12);
  cm.Update(1, 2.0);
  cm.Update(2, 3.0);
  EXPECT_DOUBLE_EQ(cm.TotalMass(), 5.0);
}

// ------------------------------------------------------------ SpaceSaving

TEST(SpaceSavingTest, ExactBelowCapacity) {
  SpaceSaving ss(10);
  for (int i = 0; i < 5; ++i) ss.Update(1);
  for (int i = 0; i < 3; ++i) ss.Update(2);
  const std::vector<SpaceSavingEntry> entries = ss.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].item, 1u);
  EXPECT_EQ(entries[0].count, 5u);
  EXPECT_EQ(entries[0].error, 0u);
  EXPECT_EQ(entries[1].item, 2u);
  EXPECT_EQ(entries[1].count, 3u);
  EXPECT_EQ(entries[1].error, 0u);
  EXPECT_FALSE(ss.Contains(99));
}

TEST(SpaceSavingTest, EvictionInheritsMinCount) {
  SpaceSaving ss(2);
  ss.Update(1);
  ss.Update(1);
  ss.Update(2);
  const uint32_t evicted = ss.Update(3);  // displaces item 2 (count 1)
  EXPECT_EQ(evicted, 2u);
  EXPECT_FALSE(ss.Contains(2));
  const std::vector<SpaceSavingEntry> entries = ss.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].item, 1u);
  EXPECT_EQ(entries[1].item, 3u);
  EXPECT_EQ(entries[1].count, 2u);  // min + 1
  EXPECT_EQ(entries[1].error, 1u);
}

TEST(SpaceSavingTest, OverestimateBoundedByTOverM) {
  const size_t capacity = 64;
  SpaceSaving ss(capacity);
  ZipfSampler zipf(5000, 1.1);
  Rng rng(77);
  std::unordered_map<uint32_t, uint64_t> truth;
  const uint64_t total = 100000;
  for (uint64_t i = 0; i < total; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    ss.Update(k);
    ++truth[k];
  }
  const uint64_t bound = total / capacity;
  for (const SpaceSavingEntry& e : ss.Entries()) {
    const uint64_t t = truth[e.item];
    EXPECT_GE(e.count, t);                 // never underestimates
    EXPECT_LE(e.count - t, bound) << e.item;  // Metwally bound
    EXPECT_LE(e.error, bound);
  }
}

TEST(SpaceSavingTest, TrueHeavyHittersAlwaysMonitored) {
  const size_t capacity = 32;
  SpaceSaving ss(capacity);
  ZipfSampler zipf(2000, 1.3);
  Rng rng(78);
  std::unordered_map<uint32_t, uint64_t> truth;
  const uint64_t total = 80000;
  for (uint64_t i = 0; i < total; ++i) {
    const uint32_t k = static_cast<uint32_t>(zipf.Sample(rng));
    ss.Update(k);
    ++truth[k];
  }
  for (const auto& [k, c] : truth) {
    if (c > total / capacity) {
      EXPECT_TRUE(ss.Contains(k)) << k << " count " << c;
    }
  }
}

TEST(SpaceSavingTest, EntriesSortedDescending) {
  SpaceSaving ss(8);
  for (int i = 0; i < 10; ++i) ss.Update(1);
  for (int i = 0; i < 5; ++i) ss.Update(2);
  for (int i = 0; i < 7; ++i) ss.Update(3);
  const auto entries = ss.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].item, 1u);
  EXPECT_EQ(entries[1].item, 3u);
  EXPECT_EQ(entries[2].item, 2u);
}

TEST(SpaceSavingTest, MemoryCostModel) {
  SpaceSaving ss(128);
  EXPECT_EQ(ss.MemoryCostBytes(), 128u * 12u);
}

}  // namespace
}  // namespace wmsketch

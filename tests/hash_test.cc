// Tests for the hashing substrate: the MurmurHash3 finalizer, tabulation
// hashing uniformity / sign balance, and the k-independent polynomial family.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hash/murmur3.h"
#include "hash/polynomial.h"
#include "hash/tabulation.h"

namespace wmsketch {
namespace {

// ---------------------------------------------------------------- Murmur3

TEST(Murmur3Test, Fmix64Bijective) {
  // Distinct inputs keep distinct outputs (sanity for the mixer).
  EXPECT_NE(Murmur3Fmix64(1), Murmur3Fmix64(2));
  EXPECT_EQ(Murmur3Fmix64(0xdeadbeef), Murmur3Fmix64(0xdeadbeef));
}

// ------------------------------------------------------------- Tabulation

TEST(TabulationTest, DeterministicGivenSeed) {
  TabulationHash a(5), b(5), c(6);
  for (uint32_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.Hash(k), b.Hash(k));
  }
  int same = 0;
  for (uint32_t k = 0; k < 1000; ++k) same += (a.Hash(k) == c.Hash(k));
  EXPECT_LT(same, 3);
}

// Property: bucket occupancy chi-square within tolerance across widths.
class TabulationUniformityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TabulationUniformityTest, ChiSquareWithinBounds) {
  const uint32_t width = GetParam();
  SignedBucketHash hash(1234, width);
  std::vector<int> counts(width, 0);
  const int n = 100000;
  for (uint32_t k = 0; k < static_cast<uint32_t>(n); ++k) ++counts[hash.Bucket(k)];
  const double expected = static_cast<double>(n) / width;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // dof = width-1; mean dof, sd sqrt(2*dof). The chi-square distribution is
  // right-skewed, so the normal-approximation tail needs headroom: 8 sigma.
  const double dof = width - 1;
  EXPECT_LT(chi2, dof + 8.0 * std::sqrt(2.0 * dof));
}

INSTANTIATE_TEST_SUITE_P(Widths, TabulationUniformityTest,
                         ::testing::Values(16u, 64u, 256u, 1024u));

TEST(TabulationTest, SignsBalanced) {
  SignedBucketHash hash(777, 256);
  int plus = 0;
  const int n = 100000;
  for (uint32_t k = 0; k < static_cast<uint32_t>(n); ++k) plus += (hash.Sign(k) > 0.0f);
  EXPECT_NEAR(static_cast<double>(plus) / n, 0.5, 0.01);
}

TEST(TabulationTest, SignIndependentOfBucketWidthBits) {
  // Sign comes from bit 32, bucket from low bits: changing width must not
  // change signs.
  TabulationHash tab(99);
  SignedBucketHash narrow(99, 16);
  SignedBucketHash wide(99, 4096);
  // Note: SignedBucketHash(seed,...) builds its own tables from the seed, so
  // equal seeds give equal hashes.
  for (uint32_t k = 0; k < 2000; ++k) {
    EXPECT_EQ(narrow.Sign(k), wide.Sign(k));
  }
}

TEST(TabulationTest, BucketAndSignMatchesSeparateCalls) {
  SignedBucketHash hash(31337, 512);
  for (uint32_t k = 0; k < 2000; ++k) {
    uint32_t bucket;
    float sign;
    hash.BucketAndSign(k, &bucket, &sign);
    EXPECT_EQ(bucket, hash.Bucket(k));
    EXPECT_EQ(sign, hash.Sign(k));
  }
}

// Pairwise independence spot-check: collision rate of key pairs ≈ 1/width.
TEST(TabulationTest, PairwiseCollisionRate) {
  const uint32_t width = 256;
  SignedBucketHash hash(4242, width);
  int collisions = 0;
  const int pairs = 50000;
  for (int i = 0; i < pairs; ++i) {
    const uint32_t a = static_cast<uint32_t>(i) * 2654435761u;
    const uint32_t b = a + 1;
    collisions += (hash.Bucket(a) == hash.Bucket(b));
  }
  const double rate = static_cast<double>(collisions) / pairs;
  EXPECT_NEAR(rate, 1.0 / width, 3.0 / width);
}

// ------------------------------------------------------------- Polynomial

TEST(PolynomialTest, DeterministicAndSeedSensitive) {
  PolynomialHash a(1, 4), b(1, 4), c(2, 4);
  for (uint32_t k = 0; k < 500; ++k) EXPECT_EQ(a.Hash(k), b.Hash(k));
  int same = 0;
  for (uint32_t k = 0; k < 500; ++k) same += (a.Hash(k) == c.Hash(k));
  EXPECT_LT(same, 2);
}

TEST(PolynomialTest, OutputBelowPrime) {
  PolynomialHash h(3, 8);
  for (uint32_t k = 0; k < 10000; ++k) EXPECT_LT(h.Hash(k), PolynomialHash::kPrime);
}

TEST(PolynomialTest, DegreeOneIsAffine) {
  // With independence 2, h(x) = c0 + c1*x mod p: check additivity of
  // differences h(x+2)-h(x+1) == h(x+1)-h(x) (mod p).
  PolynomialHash h(11, 2);
  const auto diff = [&](uint32_t x) {
    const uint64_t a = h.Hash(x + 1);
    const uint64_t b = h.Hash(x);
    return (a + PolynomialHash::kPrime - b) % PolynomialHash::kPrime;
  };
  for (uint32_t x = 0; x < 100; ++x) EXPECT_EQ(diff(x), diff(x + 1));
}

TEST(PolynomialTest, BucketHashUniform) {
  PolynomialBucketHash hash(2024, 128, 5);
  std::vector<int> counts(128, 0);
  const int n = 50000;
  for (uint32_t k = 0; k < static_cast<uint32_t>(n); ++k) ++counts[hash.Bucket(k)];
  const double expected = n / 128.0;
  for (const int c : counts) EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
}

TEST(PairFeatureIdTest, OrderSensitiveAndDeterministic) {
  EXPECT_EQ(PairFeatureId(3, 4), PairFeatureId(3, 4));
  EXPECT_NE(PairFeatureId(3, 4), PairFeatureId(4, 3));
  // Low collision rate over a grid of pairs.
  std::vector<uint32_t> ids;
  for (uint32_t u = 0; u < 200; ++u) {
    for (uint32_t v = 0; v < 200; ++v) ids.push_back(PairFeatureId(u, v));
  }
  std::sort(ids.begin(), ids.end());
  const size_t distinct = std::unique(ids.begin(), ids.end()) - ids.begin();
  EXPECT_GT(distinct, ids.size() - 5);  // 40k ids in 2^32 space: ~0 collisions
}

}  // namespace
}  // namespace wmsketch

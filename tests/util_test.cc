// Unit and property tests for src/util: Status/Result, PRNG, Zipf sampler,
// alias table, math helpers, and the memory cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/alias.h"
#include "util/crc32c.h"
#include "util/math.h"
#include "util/memory_cost.h"
#include "util/random.h"
#include "util/status.h"
#include "util/zipf.h"

namespace wmsketch {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kFailedPrecondition, StatusCode::kIOError,
        StatusCode::kCorruption}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Status FailingHelper() { return Status::IOError("disk"); }
Status PropagatingHelper() {
  WMS_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kIOError);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Bounded(n), n);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  const uint64_t n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.Bounded(n)];
  for (uint64_t b = 0; b < n; ++b) {
    EXPECT_NEAR(counts[b], trials / static_cast<int>(n), 600) << "bucket " << b;
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential();
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

// ------------------------------------------------------------------- Zipf

// Property sweep: the empirical frequency of the top ranks must match the
// closed-form PMF across exponents, including the harmonic point s = 1.
class ZipfLawTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfLawTest, EmpiricalFrequenciesMatchPmf) {
  const double exponent = GetParam();
  const uint64_t n = 1000;
  ZipfSampler zipf(n, exponent);
  Rng rng(23);
  std::vector<int> counts(n, 0);
  const int trials = 300000;
  for (int i = 0; i < trials; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t r : {0ULL, 1ULL, 2ULL, 5ULL, 10ULL, 50ULL}) {
    const double expected = zipf.Pmf(r) * trials;
    EXPECT_NEAR(counts[r], expected, 5.0 * std::sqrt(expected) + 8.0)
        << "rank " << r << " exponent " << exponent;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfLawTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.1, 1.3, 2.0));

TEST(ZipfTest, SingleValueDomain) {
  ZipfSampler zipf(1, 1.1);
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ZipfTest, SamplesCoverDomainBounds) {
  ZipfSampler zipf(10, 0.5);  // mild skew so high ranks appear
  Rng rng(31);
  std::set<uint64_t> seen;
  for (int i = 0; i < 20000; ++i) seen.insert(zipf.Sample(rng));
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 1.2);
  double total = 0.0;
  for (uint64_t r = 0; r < 100; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ------------------------------------------------------------------ Alias

TEST(AliasTest, RejectsBadInput) {
  EXPECT_FALSE(AliasTable::Build({}).ok());
  EXPECT_FALSE(AliasTable::Build({0.0, 0.0}).ok());
  EXPECT_FALSE(AliasTable::Build({1.0, -2.0}).ok());
  EXPECT_FALSE(AliasTable::Build({1.0, std::nan("")}).ok());
}

TEST(AliasTest, SingleWeight) {
  auto table = AliasTable::Build({5.0});
  ASSERT_TRUE(table.ok());
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.value().Sample(rng), 0u);
}

TEST(AliasTest, MatchesDistribution) {
  const std::vector<double> weights = {10.0, 1.0, 5.0, 0.0, 4.0};
  auto table = AliasTable::Build(weights);
  ASSERT_TRUE(table.ok());
  Rng rng(41);
  std::vector<int> counts(weights.size(), 0);
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) ++counts[table.value().Sample(rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = table.value().Probability(i) * trials;
    EXPECT_NEAR(counts[i], expected, 5.0 * std::sqrt(expected + 1.0) + 8.0) << "index " << i;
  }
  EXPECT_EQ(counts[3], 0);  // zero weight never sampled
}

TEST(AliasTest, ProbabilitiesNormalized) {
  auto table = AliasTable::Build({3.0, 1.0, 2.0});
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table.value().Probability(0), 0.5);
  EXPECT_DOUBLE_EQ(table.value().Probability(1), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(table.value().Probability(2), 1.0 / 3.0);
}

// ------------------------------------------------------------------- Math

TEST(MathTest, SigmoidStableAndSymmetric) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
  for (double x : {0.1, 0.5, 2.0, 7.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12) << x;
  }
}

TEST(MathTest, MedianOddAndEven) {
  std::vector<float> odd = {5.0f, 1.0f, 3.0f};
  EXPECT_EQ(MedianInPlace(odd.data(), odd.size()), 3.0f);
  std::vector<float> even = {4.0f, 1.0f, 3.0f, 2.0f};
  EXPECT_EQ(MedianInPlace(even.data(), even.size()), 2.0f);  // lower-middle convention
  std::vector<float> single = {7.0f};
  EXPECT_EQ(MedianInPlace(single.data(), single.size()), 7.0f);
}

TEST(MathTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(5), 8u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

// ----------------------------------------------------------- Memory model

TEST(MemoryCostTest, MatchesPaperAccounting) {
  // Sec. 7.1's example: 128 truncation entries (id + weight) = 1024 bytes.
  EXPECT_EQ(HeapBytes(128), 1024u);
  // Space-Saving slots carry an extra count.
  EXPECT_EQ(HeapBytes(128, 1), 1536u);
  EXPECT_EQ(TableBytes(512), 2048u);
  EXPECT_EQ(KiB(8), 8192u);
}

// ----------------------------------------------------------- CRC32C

// RFC 3720 Appendix B.4 / the canonical Castagnoli check value.
TEST(Crc32cTest, KnownAnswerVectors) {
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::Value("", 0), 0x00000000u);
  EXPECT_EQ(crc32c::Value("a", 1), 0xC1D04330u);
  EXPECT_EQ(crc32c::Value("The quick brown fox jumps over the lazy dog", 43),
            0x22620404u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c::Value(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesLikeConcatenation) {
  const std::string a = "hello, ", b = "world";
  const uint32_t whole = crc32c::Value((a + b).data(), a.size() + b.size());
  const uint32_t split =
      crc32c::Extend(crc32c::Value(a.data(), a.size()), b.data(), b.size());
  EXPECT_EQ(whole, split);
}

// The scalar twin of the SSE4.2 kernel, registered in the simd-paired
// coverage table (tests/hash_plan_test.cc) as Crc32cSse42.
TEST(Crc32cTest, Crc32cHardwareMatchesScalar) {
  if (!crc32c::HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this machine";
  const bool was_enabled = crc32c::Enabled();
  Rng rng(71);
  // Every length 0..257 plus larger blocks, at shifted alignments, so the
  // slicing-by-8 prologue/main/tail boundaries are all crossed both ways.
  std::vector<uint8_t> buf(4096 + 8);
  for (auto& byte : buf) byte = static_cast<uint8_t>(rng.Bounded(256));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 257; ++len) {
      crc32c::SetEnabled(true);
      const uint32_t hw = crc32c::Value(buf.data() + align, len);
      crc32c::SetEnabled(false);
      const uint32_t sw = crc32c::Value(buf.data() + align, len);
      ASSERT_EQ(hw, sw) << "align " << align << " len " << len;
    }
    crc32c::SetEnabled(true);
    const uint32_t hw = crc32c::Value(buf.data() + align, 4096);
    crc32c::SetEnabled(false);
    const uint32_t sw = crc32c::Value(buf.data() + align, 4096);
    ASSERT_EQ(hw, sw) << "align " << align << " len 4096";
  }
  crc32c::SetEnabled(was_enabled);
}

}  // namespace
}  // namespace wmsketch
